/**
 * @file
 * Base-delta compression baseline (Section IV-B).
 *
 * The paper evaluates delta compression as the conventional-memory-
 * compression strawman: samples are stored sign-magnitude (as DAC
 * sample words are), and each waveform is encoded as a base sample
 * plus fixed-width deltas over the sign-magnitude bit patterns. Smooth
 * same-sign waveforms need roughly half-width deltas (R ~ 2); a zero
 * crossing flips the sign bit, producing a delta that occupies the
 * full bit-field, so such waveforms see no compression (R ~ 1) — the
 * behaviour shown in Fig 7(a).
 *
 * Windowed decode: a plain delta stream can only be decoded from the
 * front (every sample depends on the running pattern), which would
 * make per-window random access O(n). Encoding with a checkpoint
 * stride stores the running pattern at each window boundary, so
 * deltaDecodeWindowInto() reconstructs any window in O(stride) — the
 * property window-level playback needs from every windowed codec.
 */

#ifndef COMPAQT_DSP_DELTA_HH
#define COMPAQT_DSP_DELTA_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.hh"

namespace compaqt::dsp
{

/** Bits per stored sample in the uncompressed layout (one channel). */
constexpr int kDeltaSampleBits = 16;

/** Lossless delta encoding of a quantized waveform channel. */
struct DeltaEncoded
{
    /** First sample, sign-magnitude bit pattern. */
    std::uint16_t base = 0;
    /** Signed differences of consecutive sign-magnitude patterns. */
    std::vector<std::int32_t> deltas;
    /** Bits required to store any delta (two's complement). */
    int deltaWidth = 0;
    /** Number of samples in the original waveform. */
    std::size_t originalCount = 0;
    /** True if the waveform changes sign anywhere. */
    bool hasZeroCrossing = false;
    /** Samples between pattern checkpoints; 0 = no checkpoints. */
    std::size_t checkpointStride = 0;
    /** Running pattern at samples stride, 2*stride, ... (base covers
     *  sample 0). Present only when checkpointStride > 0. */
    std::vector<std::uint16_t> checkpoints;
};

/**
 * Encode a normalized waveform ([-1, 1] doubles) channel.
 * @param checkpoint_stride store a pattern checkpoint every this many
 *        samples (0 = none), enabling O(stride) windowed decode
 */
DeltaEncoded deltaEncode(std::span<const double> x,
                         std::size_t checkpoint_stride = 0);

/** Exact inverse of deltaEncode at the quantized resolution. */
std::vector<double> deltaDecode(const DeltaEncoded &enc);

/** Zero-allocation decode into caller-owned memory.
 *  @pre out.size() == enc.originalCount */
void deltaDecodeInto(const DeltaEncoded &enc, SampleSpan out);

/**
 * Decode window `window` (samples [window*stride, min((window+1)*
 * stride, originalCount))) in O(stride) from the nearest checkpoint.
 * @pre enc.checkpointStride > 0, out.size() >= window length
 * @return samples written
 */
std::size_t deltaDecodeWindowInto(const DeltaEncoded &enc,
                                  std::size_t window, SampleSpan out);

/**
 * Decode `window_count` consecutive windows starting at
 * `first_window` into one tightly packed span — the batch decode
 * primitive behind core::ICodec::decodeWindowsInto. One checkpoint
 * lookup seeds the run; the delta replay is inherently serial
 * (every pattern depends on the previous one), but the
 * sign-magnitude-to-double conversion runs over the whole batch
 * through the dsp::simd kernels, which is where the cycles go.
 * @pre enc.checkpointStride > 0; every requested window exists;
 *      out.size() >= total samples in the run
 * @return samples written
 */
std::size_t deltaDecodeWindowsInto(const DeltaEncoded &enc,
                                   std::size_t first_window,
                                   std::size_t window_count,
                                   SampleSpan out);

/** Size of the encoding in bits (base + width field + deltas +
 *  checkpoints). */
std::size_t deltaCompressedBits(const DeltaEncoded &enc);

/** Compression ratio vs the uncompressed 16-bit layout. */
double deltaRatio(const DeltaEncoded &enc);

} // namespace compaqt::dsp

#endif // COMPAQT_DSP_DELTA_HH
