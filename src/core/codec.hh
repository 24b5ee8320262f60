/**
 * @file
 * The pluggable codec layer of the COMPAQT compression stack.
 *
 * Every compression algorithm the system knows — the paper's Table II
 * variants, the delta baseline, and any codec registered later — is an
 * ICodec implementation looked up by name in the process-wide
 * CodecRegistry. The compile-time compressor, the fidelity-aware
 * threshold search (Algorithm 1), the compressed pulse library, and
 * the pipeline facade all dispatch through this interface, so a codec
 * registered in one translation unit is usable from all of them
 * without modifying any.
 *
 * Built-in codecs (registered by the library itself):
 *   "delta"    Delta     base-delta over sign-magnitude samples
 *   "dct-n"    DCT-N     whole-waveform floating DCT
 *   "dct-w"    DCT-W     windowed floating DCT
 *   "int-dct"  int-DCT-W windowed HEVC-style integer DCT (hardware)
 *
 * Thresholds are expressed in normalized waveform-amplitude units for
 * all codecs (the integer path converts through the transform's
 * coefficientScale), so a given threshold trades distortion for
 * compression comparably across codecs.
 *
 * Streaming decode plane: the decode primitives are span-based —
 * encodeInto / decodeInto / decompressWindowInto operate on
 * caller-owned memory (SampleSpan) and perform no allocation in
 * steady state. New codecs implement only these span primitives.
 */

#ifndef COMPAQT_CORE_CODEC_HH
#define COMPAQT_CORE_CODEC_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/arena.hh"
#include "common/logging.hh"
#include "dsp/delta.hh"
#include "dsp/metrics.hh"
#include "waveform/shapes.hh"

namespace compaqt::core
{

/** Registry key of the delta baseline codec. */
inline constexpr std::string_view kDeltaCodecName = "delta";

/**
 * One compressed window: the verbatim coefficient prefix plus the
 * count of trailing zeros folded into the RLE codeword. Integer
 * codecs fill icoeffs; float codecs fill fcoeffs.
 */
struct CompressedWindow
{
    std::vector<double> fcoeffs;
    std::vector<std::int32_t> icoeffs;
    std::uint32_t zeros = 0;

    /** Number of kept coefficients. */
    std::size_t
    prefixSize() const
    {
        return std::max(fcoeffs.size(), icoeffs.size());
    }

    /** Memory words: prefix + codeword (if a zero run exists). */
    std::size_t
    words() const
    {
        return prefixSize() + (zeros > 0 ? 1 : 0);
    }
};

struct AdaptiveSegment;

/**
 * One compressed channel (I or Q) of a waveform. Transform codecs
 * fill `windows`; the delta codec fills `delta` (checkpointed when
 * the codec was configured with a window size, which is what makes
 * its per-window decode O(windowSize)).
 *
 * A channel may instead carry the adaptive flat-top representation of
 * Section V-D: `segments` non-empty means the samples are a sequence
 * of window-aligned ramp segments (each a plain windowed sub-channel)
 * and flat segments (one repeat codeword each, decoded through the
 * IDCT bypass). `windows` and `delta` are empty then; numSamples and
 * windowSize stay authoritative, so the global window grid
 * (numWindows / windowSamples) is identical to the plain
 * representation's and window-level consumers address both the same
 * way.
 */
struct CompressedChannel
{
    /** Original sample count before padding. */
    std::size_t numSamples = 0;
    /** Transform window size (== padded length for DCT-N; the
     *  checkpoint stride for windowed delta; 0 = no windows). */
    std::size_t windowSize = 0;
    std::vector<CompressedWindow> windows;
    /** Delta-coded payload ("delta" codec only). */
    dsp::DeltaEncoded delta;
    /** Adaptive flat-top segmentation (empty = plain channel). */
    std::vector<AdaptiveSegment> segments;

    /** True when this channel carries the adaptive flat-top
     *  representation. */
    bool isAdaptive() const { return !segments.empty(); }

    /** Number of decodable windows (derived from numSamples for
     *  delta-coded and adaptive channels, which store no top-level
     *  CompressedWindow). */
    std::size_t numWindows() const;

    /** Decoded sample count of window `w` — windowSize except for
     *  the clamped tail window. @pre w < numWindows() */
    std::size_t windowSamples(std::size_t w) const;

    /** Total memory words across windows (sample-word equivalents of
     *  the bit-level encoding for delta channels; one codeword per
     *  flat segment for adaptive channels). */
    std::size_t totalWords() const;

    /** Samples reconstructed through the IDCT (all of them for a
     *  plain transform channel; ramp samples only when adaptive). */
    std::size_t idctSamples() const;

    /** Samples served by the IDCT-bypass path (flat-segment samples;
     *  0 for a plain channel). */
    std::size_t bypassSamples() const;

    /**
     * The segment covering global window `w` of an adaptive channel,
     * plus the window index local to that segment's sub-channel
     * (meaningful for ramp segments). Segment boundaries are
     * window-aligned by construction, so every global window maps
     * into exactly one segment.
     * @pre isAdaptive() && w < numWindows()
     */
    const AdaptiveSegment &segmentForWindow(std::size_t w,
                                            std::size_t &local) const;

    /**
     * Walk an adaptive channel's segment list once, calling
     * fn(seg, lo, hi, local) for every segment overlapping global
     * windows [first, end), in order: global windows [lo, hi) lie in
     * `seg`, and `lo` is window `local` of a ramp segment's
     * sub-channel. @pre isAdaptive() && end <= numWindows()
     */
    template <typename Fn>
    void forEachSegmentRun(std::size_t first, std::size_t end,
                           Fn &&fn) const;

    dsp::CompressionStats stats() const;
};

/**
 * One segment of an adaptively compressed channel (Section V-D,
 * Fig 13): either `count` repeats of `value` served through the IDCT
 * bypass, or a plain windowed sub-channel for a ramp. Ramp
 * sub-channels never nest further segments.
 */
struct AdaptiveSegment
{
    /** True: `count` copies of `value` (IDCT bypass). */
    bool isFlat = false;
    /** Repeated sample value (flat segments), stored at the
     *  quantized resolution the bypass DAC path emits. */
    double value = 0.0;
    /** Number of repeated samples (flat segments). */
    std::size_t count = 0;
    /** DCT-compressed windows (ramp segments). */
    CompressedChannel windows;

    /** Decoded samples this segment contributes. */
    std::size_t
    samples() const
    {
        return isFlat ? count : windows.numSamples;
    }
};

template <typename Fn>
void
CompressedChannel::forEachSegmentRun(std::size_t first, std::size_t end,
                                     Fn &&fn) const
{
    std::size_t begin = 0; // first global window of the segment
    for (const AdaptiveSegment &seg : segments) {
        if (begin >= end)
            return;
        // Every segment but the last covers a whole number of
        // windows (boundaries are window-aligned by construction).
        const std::size_t span =
            (seg.samples() + windowSize - 1) / windowSize;
        const std::size_t lo = std::max(first, begin);
        const std::size_t hi = std::min(end, begin + span);
        if (lo < hi)
            fn(seg, lo, hi, lo - begin);
        begin += span;
    }
    COMPAQT_REQUIRE(begin >= end, "adaptive segments cover fewer "
                                  "windows than numSamples implies");
}

/**
 * A fully compressed I/Q waveform, tagged with the registry name of
 * the codec that produced it.
 */
struct CompressedWaveform
{
    /** CodecRegistry key of the producing codec. */
    std::string codec = "int-dct";
    std::size_t windowSize = 0;
    CompressedChannel i;
    CompressedChannel q;

    /** Combined old-size/new-size stats over both channels. */
    dsp::CompressionStats stats() const;

    /** R = old size / new size (Section IV-D). */
    double ratio() const { return stats().ratio(); }

    /** Worst-case words in any window (uniform memory width). */
    std::size_t worstCaseWindowWords() const;
};

/**
 * Split a thresholded coefficient window into its verbatim prefix
 * plus the trailing-zero run folded into the RLE codeword, reusing
 * out's buffers. Every windowed codec packs through this one helper
 * so the prefix+zeros == windowSize invariant (which channel
 * equalization and the hardware RLE decoder rely on) has a single
 * definition.
 */
template <typename T>
void
packWindow(std::span<const T> coeffs, CompressedWindow &out)
{
    std::size_t last = coeffs.size();
    while (last > 0 && coeffs[last - 1] == T{})
        --last;
    out.zeros = static_cast<std::uint32_t>(coeffs.size() - last);
    const auto end =
        coeffs.begin() + static_cast<std::ptrdiff_t>(last);
    if constexpr (std::is_same_v<T, double>) {
        out.fcoeffs.assign(coeffs.begin(), end);
        out.icoeffs.clear();
    } else {
        out.icoeffs.assign(coeffs.begin(), end);
        out.fcoeffs.clear();
    }
}

/**
 * Make both channels use the same per-window prefix length by
 * re-expanding explicit zeros in the shorter prefix (Section IV-C:
 * "the number of samples per window after compression are kept the
 * same for both channels").
 *
 * @param integer_coeffs true when the channels carry icoeffs
 */
void equalizeChannels(CompressedChannel &a, CompressedChannel &b,
                      bool integer_coeffs);

/**
 * A compression algorithm instance, configured for one window size.
 *
 * Instances are created by the CodecRegistry and may cache transform
 * plans and scratch buffers between calls, so the per-window hot
 * paths do no allocation in steady state. Because of that scratch
 * state an instance is NOT safe to share between threads; create one
 * per thread.
 *
 * Implementations provide the three span primitives (encodeInto,
 * decodeInto, and — for an O(windowSize) random-access path —
 * decompressWindowInto); the waveform-level entry points are built
 * on them.
 */
class ICodec
{
  public:
    virtual ~ICodec() = default;

    /** Registry key, e.g. "int-dct". */
    virtual std::string_view name() const = 0;

    /** Display label for tables/plots, e.g. "int-DCT-W". */
    virtual std::string_view label() const = 0;

    /** True when compressed coefficients are integers (icoeffs). */
    virtual bool isInteger() const = 0;

    /** False for waveform-level codecs with no window structure. */
    virtual bool isWindowed() const { return true; }

    /** Window size this instance was configured with (0 = whole
     *  waveform). */
    virtual std::size_t windowSize() const = 0;

    // ------------------------------------------- span primitives

    /**
     * Compress one channel from caller-owned samples into `out`,
     * reusing its buffers and overwriting every payload field.
     * @param threshold coefficient-zeroing threshold, normalized
     *        amplitude units
     */
    virtual void encodeInto(ConstSampleSpan x, double threshold,
                            CompressedChannel &out) const = 0;

    /**
     * Reconstruct one whole channel into caller-owned memory with no
     * allocation in steady state. @pre out.size() == ch.numSamples
     */
    virtual void decodeInto(const CompressedChannel &ch,
                            SampleSpan out) const = 0;

    /**
     * Reconstruct one window of a channel into caller-owned memory.
     * Writes the same samples decodeInto() would produce for
     * positions [window * windowSize, min((window + 1) * windowSize,
     * numSamples)) and returns the count written (the clamped tail
     * length for the last window).
     *
     * The default decodes the whole channel into per-thread arena
     * scratch and copies the slice; windowed codecs override with an
     * O(windowSize) path. A channel with no window structure
     * (ch.windowSize == 0) cannot be window-decoded: the default
     * throws std::logic_error naming the codec, so a caller that
     * wired up a non-windowed codec fails loudly instead of silently
     * mis-streaming.
     *
     * @pre out.size() >= ch.windowSamples(window)
     * @throws std::logic_error when ch has no window structure
     */
    virtual std::size_t
    decompressWindowInto(const CompressedChannel &ch,
                         std::size_t window, SampleSpan out) const;

    /**
     * Batch-of-windows decode primitive — the unit the SIMD decode
     * plane is organized around. Reconstructs `window_count`
     * consecutive windows starting at `first_window`, tightly packed
     * into `out` (only the channel-final window can be short, so
     * window j of the batch starts at offset j * windowSize for every
     * j but possibly ends early on the last). Returns the total
     * samples written.
     *
     * Equivalent to calling decompressWindowInto once per window at
     * the running output offset — that loop IS the default
     * implementation — but codecs override it to amortize per-call
     * overhead (one scratch frame, one checkpoint lookup, longer SIMD
     * runs) across the batch. Callers that decode K windows at a time
     * (WindowPlayer streaming, the fused decompression pipeline) go
     * through this primitive.
     *
     * @pre first_window + window_count <= ch.numWindows()
     * @pre out.size() >= sum of the batch's window lengths
     * @throws std::logic_error when ch has no window structure
     */
    virtual std::size_t
    decodeWindowsInto(const CompressedChannel &ch,
                      std::size_t first_window,
                      std::size_t window_count, SampleSpan out) const;

    /** Size `out` to the channel and decodeInto it. */
    void decompressChannel(const CompressedChannel &ch,
                           std::vector<double> &out) const;

    // --------------------------------------- waveform-level API

    /**
     * Compress both channels into `out`. The default implementation
     * compresses each channel and equalizes per-window prefixes
     * between I and Q as Section IV-C requires (a no-op for codecs
     * that produce no windows).
     */
    virtual void compress(const waveform::IqWaveform &wf,
                          double threshold,
                          CompressedWaveform &out) const;

    /** Reconstruct both channels into `out`. */
    virtual void decompress(const CompressedWaveform &cw,
                            waveform::IqWaveform &out) const;

    // Allocating conveniences over the buffer-reusing hot paths.

    CompressedWaveform
    compress(const waveform::IqWaveform &wf, double threshold) const
    {
        CompressedWaveform out;
        compress(wf, threshold, out);
        return out;
    }

    waveform::IqWaveform
    decompress(const CompressedWaveform &cw) const
    {
        waveform::IqWaveform out;
        decompress(cw, out);
        return out;
    }
};

/**
 * Process-wide, string-keyed codec factory.
 *
 * The four built-in codecs self-register; new codecs register from
 * any translation unit, typically through a namespace-scope
 * CodecRegistrar object:
 *
 *     const core::CodecRegistrar kReg("my-codec",
 *         [](std::size_t ws) { return std::make_unique<MyCodec>(ws); });
 *
 * after which "my-codec" works everywhere a codec name is accepted
 * (CompressorConfig, the pipeline facade, CompressedLibrary::load).
 */
class CodecRegistry
{
  public:
    /** Factory: build a codec instance for one window size. */
    using Factory =
        std::function<std::unique_ptr<ICodec>(std::size_t window_size)>;

    /** The process-wide registry, built-ins pre-registered. */
    static CodecRegistry &instance();

    /**
     * Register a codec under `name` (and optional aliases). Fatal on
     * a duplicate name: silently replacing a codec would change what
     * serialized libraries decode to.
     */
    void add(std::string name, Factory factory,
             std::vector<std::string> aliases = {});

    bool contains(std::string_view name) const;

    /** Canonical key for a name or alias (e.g. "int-dct-w" ->
     *  "int-dct"); unknown names are returned unchanged. */
    std::string_view canonicalName(std::string_view name) const;

    /**
     * Instantiate a codec for a window size. Fatal (with the list of
     * known codecs) when the name is unknown — a misspelled codec
     * must not silently fall back.
     */
    std::unique_ptr<ICodec> create(std::string_view name,
                                   std::size_t window_size) const;

    /** Canonical (non-alias) registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    CodecRegistry() = default;

    std::map<std::string, Factory, std::less<>> factories_;
    /** alias -> canonical name */
    std::map<std::string, std::string, std::less<>> aliases_;
};

/** Registers a codec from a namespace-scope object's constructor. */
struct CodecRegistrar
{
    CodecRegistrar(std::string name, CodecRegistry::Factory factory,
                   std::vector<std::string> aliases = {})
    {
        CodecRegistry::instance().add(std::move(name),
                                      std::move(factory),
                                      std::move(aliases));
    }
};

} // namespace compaqt::core

#endif // COMPAQT_CORE_CODEC_HH
