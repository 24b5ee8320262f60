#include "core/codec.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/logging.hh"
#include "core/codecs/builtin.hh"
#include "telemetry/trace.hh"

namespace compaqt::core
{

// --------------------------------------------------- compressed data types

std::size_t
CompressedChannel::numWindows() const
{
    if (!windows.empty())
        return windows.size();
    // Delta-coded channels carry no CompressedWindow records; their
    // window structure is implied by the checkpoint stride.
    if (windowSize == 0 || numSamples == 0)
        return 0;
    return (numSamples + windowSize - 1) / windowSize;
}

std::size_t
CompressedChannel::windowSamples(std::size_t w) const
{
    // Clamp both ends: a channel whose window count is inconsistent
    // with numSamples (corrupt stream) yields zero-length windows
    // rather than underflowing.
    const std::size_t begin = w * windowSize;
    return begin < numSamples ? std::min(windowSize,
                                         numSamples - begin)
                              : 0;
}

std::size_t
CompressedChannel::totalWords() const
{
    if (isAdaptive()) {
        std::size_t total = 0;
        for (const auto &seg : segments)
            total += seg.isFlat ? 1 : seg.windows.totalWords();
        return total;
    }
    if (windows.empty() && delta.originalCount > 0) {
        // Express the bit-level delta encoding in 16-bit sample-word
        // equivalents so ratios are comparable across codecs.
        const double bits =
            static_cast<double>(dsp::deltaCompressedBits(delta));
        return static_cast<std::size_t>(
            std::ceil(bits / dsp::kDeltaSampleBits));
    }
    std::size_t total = 0;
    for (const auto &w : windows)
        total += w.words();
    return total;
}

std::size_t
CompressedChannel::idctSamples() const
{
    if (!isAdaptive())
        return numSamples;
    std::size_t total = 0;
    for (const auto &seg : segments)
        if (!seg.isFlat)
            total += seg.windows.numWindows() * windowSize;
    return total;
}

std::size_t
CompressedChannel::bypassSamples() const
{
    std::size_t total = 0;
    for (const auto &seg : segments)
        if (seg.isFlat)
            total += seg.count;
    return total;
}

const AdaptiveSegment &
CompressedChannel::segmentForWindow(std::size_t w,
                                    std::size_t &local) const
{
    COMPAQT_REQUIRE(isAdaptive() && windowSize > 0,
                    "segmentForWindow needs an adaptive channel");
    COMPAQT_REQUIRE(w < numWindows(), "window index out of range");
    const AdaptiveSegment *found = nullptr;
    forEachSegmentRun(w, w + 1,
                      [&](const AdaptiveSegment &seg, std::size_t,
                          std::size_t, std::size_t l) {
                          found = &seg;
                          local = l;
                      });
    return *found;
}

dsp::CompressionStats
CompressedChannel::stats() const
{
    return {numSamples, totalWords()};
}

dsp::CompressionStats
CompressedWaveform::stats() const
{
    dsp::CompressionStats s = i.stats();
    s += q.stats();
    return s;
}

std::size_t
CompressedWaveform::worstCaseWindowWords() const
{
    std::size_t worst = 0;
    for (const auto *ch : {&i, &q}) {
        for (const auto &w : ch->windows)
            worst = std::max(worst, w.words());
        // Adaptive channels: ramp windows count as usual; a flat
        // segment occupies one codeword, which any width holds.
        for (const auto &seg : ch->segments) {
            if (seg.isFlat) {
                worst = std::max<std::size_t>(worst, 1);
                continue;
            }
            for (const auto &w : seg.windows.windows)
                worst = std::max(worst, w.words());
        }
    }
    return worst;
}

void
equalizeChannels(CompressedChannel &a, CompressedChannel &b,
                 bool integer_coeffs)
{
    COMPAQT_REQUIRE(a.windows.size() == b.windows.size(),
                    "equalizeChannels window count mismatch");
    for (std::size_t w = 0; w < a.windows.size(); ++w) {
        CompressedWindow &wa = a.windows[w];
        CompressedWindow &wb = b.windows[w];
        const std::size_t k = std::max(wa.prefixSize(), wb.prefixSize());
        for (CompressedWindow *win : {&wa, &wb}) {
            const std::size_t pad = k - win->prefixSize();
            if (pad == 0)
                continue;
            COMPAQT_REQUIRE(win->zeros >= pad,
                            "equalizeChannels pad exceeds zero run");
            if (integer_coeffs)
                win->icoeffs.resize(win->icoeffs.size() + pad, 0);
            else
                win->fcoeffs.resize(win->fcoeffs.size() + pad, 0.0);
            win->zeros -= static_cast<std::uint32_t>(pad);
        }
    }
}

// --------------------------------------------------------- ICodec defaults

void
ICodec::compress(const waveform::IqWaveform &wf, double threshold,
                 CompressedWaveform &out) const
{
    COMPAQT_REQUIRE(wf.i.size() == wf.q.size(),
                    "I/Q channel length mismatch");
    COMPAQT_REQUIRE(threshold >= 0.0, "negative threshold");
    out.codec.assign(name());
    encodeInto(wf.i, threshold, out.i);
    encodeInto(wf.q, threshold, out.q);
    out.windowSize = out.i.windowSize;
    equalizeChannels(out.i, out.q, isInteger());
}

void
ICodec::decompress(const CompressedWaveform &cw,
                   waveform::IqWaveform &out) const
{
    decompressChannel(cw.i, out.i);
    decompressChannel(cw.q, out.q);
}

void
ICodec::decompressChannel(const CompressedChannel &ch,
                          std::vector<double> &out) const
{
    out.resize(ch.numSamples);
    decodeInto(ch, out);
}

std::size_t
ICodec::decompressWindowInto(const CompressedChannel &ch,
                             std::size_t window, SampleSpan out) const
{
    // Any channel with window structure qualifies — including DCT-N,
    // whose single "window" spans the whole waveform. A channel with
    // none cannot be sliced, and pretending otherwise would silently
    // mis-stream; name the codec so the wiring error is attributable.
    if (ch.windowSize == 0) {
        throw std::logic_error(
            "codec '" + std::string(name()) +
            "' cannot decode per-window: the channel has no window "
            "structure");
    }
    COMPAQT_REQUIRE(window < ch.numWindows(),
                    "window index out of range");
    const std::size_t len = ch.windowSamples(window);
    COMPAQT_REQUIRE(out.size() >= len,
                    "window output span too small");

    // Decode-and-slice fallback, staged through the per-thread arena
    // so codecs without an O(windowSize) override still allocate
    // nothing in steady state. Allocation-free is NOT cheap, though:
    // each call decodes the ENTIRE channel and keeps one window, so a
    // caller streaming all w windows of an n-sample channel through
    // this path does O(n * w) decode work where an overriding codec
    // does O(n). The trace instant makes those silent quadratic
    // replays visible in the Chrome-trace timeline.
    COMPAQT_TRACE_INSTANT("decode", "codec.window_fallback", "window",
                          window, "channel_samples", ch.numSamples);
    auto &arena = ScratchArena::forThread();
    const ScratchArena::Frame frame(arena);
    SampleSpan full = arena.samples(ch.numSamples);
    decodeInto(ch, full);
    const std::size_t begin = window * ch.windowSize;
    std::copy_n(full.begin() + static_cast<std::ptrdiff_t>(begin),
                len, out.begin());
    return len;
}

std::size_t
ICodec::decodeWindowsInto(const CompressedChannel &ch,
                          std::size_t first_window,
                          std::size_t window_count,
                          SampleSpan out) const
{
    COMPAQT_REQUIRE(first_window + window_count <= ch.numWindows(),
                    "window batch out of range");
    // Reference semantics of the batch primitive: the per-window
    // decode at the running offset. Overrides must match this output
    // exactly (bit-exactly, for integer codecs).
    std::size_t written = 0;
    for (std::size_t w = first_window;
         w < first_window + window_count; ++w)
        written +=
            decompressWindowInto(ch, w, out.subspan(written));
    return written;
}

// ---------------------------------------------------------- codec registry

CodecRegistry &
CodecRegistry::instance()
{
    // Leaked singleton: codecs registered from namespace-scope
    // CodecRegistrar objects must not outlive the registry.
    static CodecRegistry *reg = [] {
        auto *r = new CodecRegistry;
        codecs::registerDeltaCodec(*r);
        codecs::registerDctCodecs(*r);
        codecs::registerIntDctCodec(*r);
        return r;
    }();
    return *reg;
}

void
CodecRegistry::add(std::string name, Factory factory,
                   std::vector<std::string> aliases)
{
    COMPAQT_REQUIRE(!name.empty(), "codec name must not be empty");
    COMPAQT_REQUIRE(static_cast<bool>(factory),
                    "codec factory must not be empty");
    // Replacing a codec silently would change what serialized
    // libraries decode to, so duplicates are fatal.
    if (contains(name))
        COMPAQT_FATAL("duplicate codec registration");
    for (const auto &a : aliases) {
        if (contains(a))
            COMPAQT_FATAL("duplicate codec alias registration");
        aliases_[a] = name;
    }
    factories_[std::move(name)] = std::move(factory);
}

bool
CodecRegistry::contains(std::string_view name) const
{
    return factories_.find(name) != factories_.end() ||
           aliases_.find(name) != aliases_.end();
}

std::string_view
CodecRegistry::canonicalName(std::string_view name) const
{
    auto alias = aliases_.find(name);
    return alias != aliases_.end() ? std::string_view(alias->second)
                                   : name;
}

std::unique_ptr<ICodec>
CodecRegistry::create(std::string_view name,
                      std::size_t window_size) const
{
    auto alias = aliases_.find(name);
    if (alias != aliases_.end())
        name = alias->second;
    auto it = factories_.find(name);
    if (it == factories_.end()) {
        std::string registered;
        for (const auto &n : names())
            registered += ' ' + n;
        COMPAQT_FATAL_F("unknown codec \"%.*s\" (registered:%s)",
                        static_cast<int>(name.size()), name.data(),
                        registered.c_str());
    }
    auto codec = it->second(window_size);
    COMPAQT_REQUIRE(codec != nullptr, "codec factory returned null");
    return codec;
}

std::vector<std::string>
CodecRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto &[name, factory] : factories_)
        out.push_back(name);
    return out;
}

} // namespace compaqt::core
