#include "uarch/rle_decoder.hh"

#include "common/logging.hh"
#include "dsp/simd.hh"

namespace compaqt::uarch
{

RleDecoder::RleDecoder(std::size_t window_size)
    : windowSize_(window_size)
{
    COMPAQT_REQUIRE(window_size > 0, "window size must be positive");
}

void
RleDecoder::decodeInto(std::span<const Word> words,
                       std::span<std::int32_t> out)
{
    COMPAQT_REQUIRE(out.size() == windowSize_,
                    "RLE decode output span has wrong size");
    std::size_t n = 0;
    for (const Word &w : words) {
        if (w.isRle) {
            // The signature identifies the codeword; the last cn
            // inputs of the IDCT stage are forced to zero.
            COMPAQT_REQUIRE(n + w.count <= windowSize_,
                            "RLE decode produced wrong coefficient "
                            "count");
            // Zero-run expansion through the shared dsp::simd kernel
            // (a memset under the hood), the same fast path the
            // software codecs' RLE expansion uses.
            dsp::simd::zeroRunInt32(out.data() + n, w.count);
            n += w.count;
        } else {
            COMPAQT_REQUIRE(n < windowSize_,
                            "RLE decode produced wrong coefficient "
                            "count");
            out[n++] = w.value;
        }
    }
    COMPAQT_REQUIRE(n == windowSize_,
                    "RLE decode produced wrong coefficient count");
    ++cycles_;
}

} // namespace compaqt::uarch
