/**
 * @file
 * "int-dct" — the windowed HEVC-style integer DCT of Section IV-C,
 * the codec the hardware decompression engine of Section V decodes.
 * Samples are quantized to Q15, transformed with dsp::IntDct, and
 * thresholded in integer coefficient units (the normalized-amplitude
 * threshold is converted through the transform's coefficientScale so
 * thresholds are comparable across codecs).
 *
 * The decode side is span-native: every entry (decodeInto,
 * decompressWindowInto, decodeWindowsInto) decodes each window with
 * one fused inverse-and-dequantize kernel straight into caller-owned
 * memory. Nothing allocates and the codec keeps no scratch.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "common/logging.hh"
#include "core/codec.hh"
#include "core/codecs/builtin.hh"
#include "dsp/int_dct.hh"

namespace compaqt::core::codecs
{

namespace
{

class IntDctCodec final : public ICodec
{
  public:
    explicit IntDctCodec(std::size_t ws) : xform_(ws) {}

    std::string_view name() const override { return "int-dct"; }
    std::string_view label() const override { return "int-DCT-W"; }
    bool isInteger() const override { return true; }
    std::size_t windowSize() const override { return xform_.size(); }

    void
    encodeInto(ConstSampleSpan x, double threshold,
               CompressedChannel &out) const override
    {
        const std::size_t ws = xform_.size();
        const auto thr = static_cast<std::int32_t>(
            std::lround(threshold * xform_.coefficientScale()));

        out.numSamples = x.size();
        out.windowSize = ws;
        out.delta = {};
        const std::size_t nwin = (x.size() + ws - 1) / ws;
        out.windows.resize(nwin);

        std::array<std::int32_t, dsp::IntDct::kMaxSize> xs{}, ys{};
        const std::span<std::int32_t> xbuf(xs.data(), ws);
        const std::span<std::int32_t> ybuf(ys.data(), ws);
        for (std::size_t w = 0; w < nwin; ++w) {
            const std::size_t begin = w * ws;
            const std::size_t len = std::min(ws, x.size() - begin);
            for (std::size_t k = 0; k < len; ++k)
                xbuf[k] = dsp::IntDct::quantize(x[begin + k]);
            for (std::size_t k = len; k < ws; ++k)
                xbuf[k] = 0;
            xform_.forward(xbuf, ybuf);
            for (std::int32_t &c : ybuf)
                if (std::abs(c) < thr)
                    c = 0;
            packWindow<std::int32_t>(ybuf, out.windows[w]);
        }
    }

    void
    decodeInto(const CompressedChannel &ch,
               SampleSpan out) const override
    {
        const std::size_t ws = xform_.size();
        COMPAQT_REQUIRE(ch.windowSize == ws,
                        "channel window size does not match codec");
        COMPAQT_REQUIRE(out.size() == ch.numSamples,
                        "channel output span has wrong size");
        COMPAQT_REQUIRE(ch.windows.size() * ws >= ch.numSamples,
                        "decoded fewer samples than stored");
        for (std::size_t w = 0; w < ch.windows.size(); ++w) {
            const std::size_t len = ch.windowSamples(w);
            if (len == 0)
                break;
            decodeWindow(ch.windows[w], out.subspan(w * ws, len));
        }
    }

    std::size_t
    decompressWindowInto(const CompressedChannel &ch,
                         std::size_t window,
                         SampleSpan out) const override
    {
        const std::size_t ws = xform_.size();
        COMPAQT_REQUIRE(ch.windowSize == ws,
                        "channel window size does not match codec");
        COMPAQT_REQUIRE(window < ch.windows.size(),
                        "window index out of range");
        // The tail window is trimmed to numSamples exactly as
        // decodeInto() trims the assembled channel; windows entirely
        // past numSamples (corrupt stream) decode to zero samples
        // rather than underflowing.
        const std::size_t len = ch.windowSamples(window);
        COMPAQT_REQUIRE(out.size() >= len,
                        "window output span too small");
        decodeWindow(ch.windows[window], out.first(len));
        return len;
    }

    std::size_t
    decodeWindowsInto(const CompressedChannel &ch,
                      std::size_t first_window,
                      std::size_t window_count,
                      SampleSpan out) const override
    {
        const std::size_t ws = xform_.size();
        COMPAQT_REQUIRE(ch.windowSize == ws,
                        "channel window size does not match codec");
        COMPAQT_REQUIRE(first_window + window_count <=
                            ch.windows.size(),
                        "window batch out of range");
        // One virtual call amortized over the run: each window is
        // one fused dsp::simd dispatch, and the batch keeps the
        // transform matrix hot across iterations.
        std::size_t written = 0;
        for (std::size_t j = 0; j < window_count; ++j) {
            const std::size_t len =
                ch.windowSamples(first_window + j);
            if (len == 0)
                continue;
            COMPAQT_REQUIRE(out.size() >= written + len,
                            "window batch output span too small");
            decodeWindow(ch.windows[first_window + j],
                         out.subspan(written, len));
            written += len;
        }
        return written;
    }

  private:
    /** Decode one packed window into `out` — the single definition
     *  of the window-decode step every entry shares (their
     *  bit-exactness contract depends on it). The trailing-zero run
     *  never gets expanded: the fused kernel consumes the packed
     *  prefix directly, bit-exact with the dense inverse on the
     *  zero-extended window followed by dequantize. */
    void
    decodeWindow(const CompressedWindow &w, SampleSpan out) const
    {
        COMPAQT_REQUIRE(w.icoeffs.size() + w.zeros == xform_.size(),
                        "compressed window has wrong size");
        xform_.decodePrefix(w.icoeffs, out);
    }

    dsp::IntDct xform_;
};

} // namespace

void
registerIntDctCodec(CodecRegistry &reg)
{
    reg.add(
        "int-dct",
        [](std::size_t ws) {
            COMPAQT_REQUIRE(dsp::intDctSupported(ws),
                            "int-DCT-W window size must be 4/8/16/32");
            return std::make_unique<IntDctCodec>(ws);
        },
        {"int-dct-w"});
}

} // namespace compaqt::core::codecs
