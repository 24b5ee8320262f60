#include "core/decompressor.hh"

#include <algorithm>

#include "common/logging.hh"
#include "dsp/metrics.hh"
#include "dsp/simd.hh"
#include "telemetry/metrics.hh"

namespace compaqt::core
{

void
Decompressor::expandWindowIntInto(const CompressedWindow &w,
                                  std::span<std::int32_t> out)
{
    COMPAQT_REQUIRE(w.icoeffs.size() + w.zeros == out.size(),
                    "expanded window has wrong size");
    std::copy(w.icoeffs.begin(), w.icoeffs.end(), out.begin());
    dsp::simd::zeroRunInt32(out.data() + w.icoeffs.size(), w.zeros);
}

namespace
{

/** Heterogeneous key comparison so cache probes with a string_view
 *  name do not allocate. */
struct CodecKeyLess
{
    using is_transparent = void;

    template <typename A, typename B>
    bool
    operator()(const std::pair<A, std::size_t> &a,
               const std::pair<B, std::size_t> &b) const
    {
        const std::string_view an(a.first), bn(b.first);
        return an < bn || (an == bn && a.second < b.second);
    }
};

} // namespace

const ICodec &
Decompressor::codec(std::string_view alias, std::size_t ws)
{
    // Per-thread cache: codec instances carry scratch buffers, so
    // giving each thread its own keeps a shared const Decompressor
    // thread-safe (as the pre-registry stateless decoder was).
    //
    // Keys are canonical names, so an alias ("int-dct-w") shares the
    // instance of its canonical codec; non-windowed codecs (delta,
    // dct-n) ignore the window size and cache under key 0, so
    // decoding waveforms of many distinct lengths keeps the cache
    // bounded by the number of codecs.
    static thread_local std::map<std::pair<std::string, std::size_t>,
                                 std::shared_ptr<ICodec>, CodecKeyLess>
        cache;

    const std::string_view name =
        CodecRegistry::instance().canonicalName(alias);
    auto it = cache.find(std::make_pair(name, ws));
    if (it != cache.end())
        return *it->second;
    // Instances are owned under the window size they actually
    // configured. A codec that ignores the requested size and
    // configures itself without a window (dct-n, ws-0 delta) dedupes
    // onto its key-0 entry — while a codec that honors the size
    // (delta with checkpoints) always gets a correctly configured
    // instance, never a key-0 one created for a different request.
    // The requested key is memoized as an alias to the same instance
    // so repeated dct-n dispatches at one waveform length hit the
    // cache instead of re-creating a codec per call; the cache stays
    // bounded by codecs x distinct requested sizes.
    std::shared_ptr<ICodec> codec =
        CodecRegistry::instance().create(name, ws);
    const std::size_t key_ws = codec->windowSize();
    const auto owner = cache.find(std::make_pair(name, key_ws));
    if (owner != cache.end())
        codec = owner->second;
    else
        cache.emplace(std::make_pair(std::string(name), key_ws),
                      codec);
    if (key_ws != ws)
        cache.emplace(std::make_pair(std::string(name), ws), codec);
    return *codec;
}

std::vector<double>
Decompressor::decompressChannel(const CompressedChannel &ch,
                                std::string_view codec_name) const
{
    std::vector<double> out;
    decompressChannel(ch, codec_name, out);
    return out;
}

void
Decompressor::decompressChannel(const CompressedChannel &ch,
                                std::string_view codec_name,
                                std::vector<double> &out) const
{
    out.resize(ch.numSamples);
    decodeChannelInto(ch, codec_name, out);
}

void
Decompressor::decodeChannelInto(const CompressedChannel &ch,
                                std::string_view codec_name,
                                SampleSpan out) const
{
    if (!ch.isAdaptive()) {
        codec(codec_name, ch.windowSize).decodeInto(ch, out);
        return;
    }
    // Adaptive flat-top channel: ramp sub-channels decode through the
    // codec; flat segments are constant fills that never touch the
    // transform (the software image of the hardware IDCT bypass).
    COMPAQT_REQUIRE(out.size() == ch.numSamples,
                    "adaptive channel output span has wrong size");
    const ICodec &c = codec(codec_name, ch.windowSize);
    std::size_t pos = 0;
    for (const auto &seg : ch.segments) {
        const std::size_t n = seg.samples();
        COMPAQT_REQUIRE(pos + n <= ch.numSamples,
                        "adaptive segments exceed numSamples");
        if (seg.isFlat)
            dsp::simd::fillDoubles(out.data() + pos, n, seg.value);
        else
            c.decodeInto(seg.windows, out.subspan(pos, n));
        pos += n;
    }
    COMPAQT_REQUIRE(pos == ch.numSamples,
                    "adaptive segments decode to wrong length");
}

std::size_t
Decompressor::decompressWindowInto(const CompressedChannel &ch,
                                   std::string_view codec_name,
                                   std::size_t window,
                                   SampleSpan out) const
{
    if (!ch.isAdaptive()) {
        return codec(codec_name, ch.windowSize)
            .decompressWindowInto(ch, window, out);
    }
    // Segment boundaries are window-aligned, so a global window maps
    // into exactly one segment; flat windows are constant fills.
    const std::size_t len = ch.windowSamples(window);
    COMPAQT_REQUIRE(out.size() >= len, "window output span too small");
    std::size_t local = 0;
    const AdaptiveSegment &seg = ch.segmentForWindow(window, local);
    if (seg.isFlat) {
        dsp::simd::fillDoubles(out.data(), len, seg.value);
        return len;
    }
    return codec(codec_name, ch.windowSize)
        .decompressWindowInto(seg.windows, local, out);
}

std::size_t
Decompressor::decodeWindowsInto(const CompressedChannel &ch,
                                std::string_view codec_name,
                                std::size_t first_window,
                                std::size_t window_count,
                                SampleSpan out) const
{
    if (window_count == 0)
        return 0;
    // The decode.kernel counters make batching observable: windows /
    // batches is the achieved batch factor, the lever behind the
    // SIMD decode plane's throughput.
    static telemetry::Counter &batches =
        telemetry::Registry::global().counter("decode.kernel.batches");
    static telemetry::Counter &windows =
        telemetry::Registry::global().counter("decode.kernel.windows");
    batches.add(1);
    windows.add(window_count);

    if (!ch.isAdaptive()) {
        return codec(codec_name, ch.windowSize)
            .decodeWindowsInto(ch, first_window, window_count, out);
    }

    // Adaptive channel: segment boundaries are window-aligned, so
    // one walk of the segment list splits the batch into maximal runs
    // of windows sharing one segment. Flat runs collapse to a single
    // constant fill; ramp runs forward to the codec's batch primitive
    // on the segment's sub-channel (local indices stay consecutive
    // within a segment).
    COMPAQT_REQUIRE(first_window + window_count <= ch.numWindows(),
                    "window batch out of range");
    const ICodec &c = codec(codec_name, ch.windowSize);
    const std::size_t ws = ch.windowSize;
    std::size_t written = 0;
    ch.forEachSegmentRun(
        first_window, first_window + window_count,
        [&](const AdaptiveSegment &seg, std::size_t lo, std::size_t hi,
            std::size_t local) {
            const std::size_t run_len =
                std::min(hi * ws, ch.numSamples) - lo * ws;
            COMPAQT_REQUIRE(out.size() >= written + run_len,
                            "window batch output span too small");
            if (seg.isFlat) {
                dsp::simd::fillDoubles(out.data() + written, run_len,
                                       seg.value);
                written += run_len;
            } else {
                written += c.decodeWindowsInto(seg.windows, local,
                                               hi - lo,
                                               out.subspan(written));
            }
        });
    return written;
}

waveform::IqWaveform
Decompressor::decompress(const CompressedWaveform &cw) const
{
    waveform::IqWaveform wf;
    decompress(cw, wf);
    return wf;
}

void
Decompressor::decompress(const CompressedWaveform &cw,
                         waveform::IqWaveform &out) const
{
    if (cw.i.isAdaptive() || cw.q.isAdaptive()) {
        decompressChannel(cw.i, cw.codec, out.i);
        decompressChannel(cw.q, cw.codec, out.q);
        return;
    }
    codec(cw.codec, cw.windowSize).decompress(cw, out);
}

waveform::IqWaveform
roundTrip(const Compressor &comp, const waveform::IqWaveform &wf)
{
    Decompressor dec;
    return dec.decompress(comp.compress(wf));
}

double
roundTripMse(const Compressor &comp, const waveform::IqWaveform &wf)
{
    const auto rt = roundTrip(comp, wf);
    return std::max(dsp::mse(wf.i, rt.i), dsp::mse(wf.q, rt.q));
}

} // namespace compaqt::core
