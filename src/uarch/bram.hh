/**
 * @file
 * Banked waveform-memory model (Section V-C, Fig 12). FPGA BRAMs
 * serve one word per port per fabric cycle; streaming a waveform
 * faster than the fabric clock therefore requires interleaving its
 * words across banks. COMPAQT shrinks the number of banks a waveform
 * needs from clock-ratio many to worst-case-window-words many.
 */

#ifndef COMPAQT_UARCH_BRAM_HH
#define COMPAQT_UARCH_BRAM_HH

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/rle.hh"

namespace compaqt::uarch
{

/** One stored memory word: a coefficient/sample or an RLE codeword. */
using Word = dsp::RleWord<std::int32_t>;

/**
 * A group of BRAM banks holding one waveform, word-interleaved: word
 * j of window w lives in bank j at address w, so a full window is
 * fetched in a single fabric cycle (one read per involved bank).
 */
class BankedWaveform
{
  public:
    /**
     * @param width words per window (uniform, the worst case across
     *        the library — Section V-A)
     */
    explicit BankedWaveform(std::size_t width);

    std::size_t width() const { return width_; }
    std::size_t numWindows() const { return numWindows_; }

    /**
     * Store one window's words (<= width; short windows leave the
     * remaining banks untouched, Fig 12c).
     */
    void appendWindow(const std::vector<Word> &words);

    /**
     * Fetch window w into caller-owned memory: one fabric cycle, one
     * access per occupied bank. Returns the word count written.
     * @pre out.size() >= width()
     */
    std::size_t fetchWindowInto(std::size_t w,
                                std::span<Word> out) const;

    /** Total accesses performed by fetchWindowInto so far. */
    std::uint64_t accesses() const { return accesses_; }

    /** Occupied storage in words (capacity accounting). */
    std::size_t storedWords() const;

    /** Footprint including uniform-width padding (FPGA layout). */
    std::size_t
    paddedWords() const
    {
        return numWindows_ * width_;
    }

  private:
    std::size_t width_;
    std::size_t numWindows_ = 0;
    /** banks_[j][w] = word j of window w (may be absent). */
    std::vector<std::vector<Word>> banks_;
    std::vector<std::vector<bool>> valid_;
    mutable std::uint64_t accesses_ = 0;
};

} // namespace compaqt::uarch

#endif // COMPAQT_UARCH_BRAM_HH
