/**
 * @file
 * Stage 1 of the decompression pipeline (Fig 10): expand a fetched
 * compressed window (coefficient prefix + RLE codeword) into the full
 * window of transform coefficients, in one fabric cycle.
 */

#ifndef COMPAQT_UARCH_RLE_DECODER_HH
#define COMPAQT_UARCH_RLE_DECODER_HH

#include <cstdint>
#include <span>

#include "uarch/bram.hh"

namespace compaqt::uarch
{

/**
 * Combinational RLE decoder with cycle accounting.
 */
class RleDecoder
{
  public:
    /** @param window_size coefficients per expanded window */
    explicit RleDecoder(std::size_t window_size);

    std::size_t windowSize() const { return windowSize_; }

    /**
     * Decode one fetched window into caller-owned memory — the
     * zero-allocation primitive the streaming pipeline expands
     * through. The codeword's zero count plus the prefix must fill
     * the window exactly (zero-padded fetches with fewer words than
     * the memory width are legal, Fig 12c).
     * @pre out.size() == windowSize()
     */
    void decodeInto(std::span<const Word> words,
                    std::span<std::int32_t> out);

    /** Windows decoded (== cycles spent in this stage). */
    std::uint64_t cycles() const { return cycles_; }

  private:
    std::size_t windowSize_;
    std::uint64_t cycles_ = 0;
};

} // namespace compaqt::uarch

#endif // COMPAQT_UARCH_RLE_DECODER_HH
