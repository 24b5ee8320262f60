/**
 * @file
 * Reference (software) decompression: the golden model the hardware
 * decompression pipeline of Section V must match sample-for-sample.
 * Also used at compile time by fidelity-aware compression to measure
 * the distortion a candidate threshold would produce.
 *
 * Decoding dispatches through the CodecRegistry on the codec name a
 * CompressedWaveform carries, so any registered codec decodes here
 * without changes. The span entry points (decodeChannelInto,
 * decompressWindowInto, the expandWindow*Into RLE primitives) write
 * into caller-owned memory and allocate nothing in steady state;
 * decompress() and decompressChannel() return owned output.
 */

#ifndef COMPAQT_CORE_DECOMPRESSOR_HH
#define COMPAQT_CORE_DECOMPRESSOR_HH

#include <string_view>
#include <vector>

#include "common/arena.hh"
#include "core/compressor.hh"

namespace compaqt::core
{

/**
 * Software decoder for every registered codec. Stateless: codec
 * instances (with their cached plans and scratch buffers) live in a
 * per-thread cache, so a Decompressor is cheap to call in loops and
 * safe to share between threads — each thread decodes through its
 * own codec instances.
 */
class Decompressor
{
  public:
    /** Reconstruct both channels of a compressed waveform. */
    waveform::IqWaveform
    decompress(const CompressedWaveform &cw) const;

    /** Buffer-reusing variant of decompress() for hot loops. */
    void decompress(const CompressedWaveform &cw,
                    waveform::IqWaveform &out) const;

    /**
     * Reconstruct one channel.
     * @param codec registry name of the codec that produced it
     */
    std::vector<double> decompressChannel(const CompressedChannel &ch,
                                          std::string_view codec) const;

    /** Buffer-reusing variant of decompressChannel(). */
    void decompressChannel(const CompressedChannel &ch,
                           std::string_view codec,
                           std::vector<double> &out) const;

    /**
     * Zero-allocation channel decode into caller-owned memory.
     * Adaptive flat-top channels decode here too: ramp segments go
     * through the codec, flat segments become constant fills that
     * never touch the transform.
     * @pre out.size() == ch.numSamples
     */
    void decodeChannelInto(const CompressedChannel &ch,
                           std::string_view codec,
                           SampleSpan out) const;

    /**
     * Reconstruct a single window of a windowed channel.
     * Output matches the corresponding slice of decodeChannelInto()
     * exactly; returns the samples written (the clamped tail length
     * for the last window). Windows of adaptive channels resolve
     * through the window-aligned segment map: a flat window is a
     * constant fill (IDCT bypass), a ramp window decodes from its
     * segment's sub-channel.
     * @pre out.size() >= ch.windowSamples(window)
     * @throws std::logic_error when the codec cannot window-decode
     */
    std::size_t decompressWindowInto(const CompressedChannel &ch,
                                     std::string_view codec,
                                     std::size_t window,
                                     SampleSpan out) const;

    /**
     * Batch-of-windows decode — the registry-dispatched face of
     * ICodec::decodeWindowsInto, and the entry every batching caller
     * (WindowPlayer streaming) uses.
     * Output is bit-identical to decompressWindowInto() called per
     * window at the running offset. Adaptive channels split the batch
     * at segment boundaries in one walk of the segment list: a run of
     * flat windows becomes one constant fill (IDCT bypass), a run of
     * ramp windows becomes one codec batch on the segment's
     * sub-channel. Each call bumps the decode.kernel.batches /
     * decode.kernel.windows counters.
     * @pre first_window + window_count <= ch.numWindows()
     * @pre out.size() >= total samples in the batch
     */
    std::size_t decodeWindowsInto(const CompressedChannel &ch,
                                  std::string_view codec,
                                  std::size_t first_window,
                                  std::size_t window_count,
                                  SampleSpan out) const;

    /**
     * Resolve the calling thread's codec instance for (name, window
     * size) once, so a per-window hot loop dispatches straight to
     * the span primitives instead of re-probing the instance cache
     * every window. The reference stays valid for the thread's
     * lifetime and must not be shared across threads (instances
     * carry scratch state).
     */
    const ICodec &resolve(std::string_view codec,
                          std::size_t window_size) const
    {
        return Decompressor::codec(codec, window_size);
    }

    /**
     * Expand one compressed window back to windowSize transform
     * coefficients (integer path), i.e.\ the RLE-decode stage,
     * writing into caller memory. @pre out.size() == window_size
     */
    static void expandWindowIntInto(const CompressedWindow &w,
                                    std::span<std::int32_t> out);

  private:
    static const ICodec &codec(std::string_view name, std::size_t ws);
};

/**
 * Convenience: compress-then-decompress round trip, returning the
 * distorted waveform a qubit would actually receive.
 */
waveform::IqWaveform roundTrip(const Compressor &comp,
                               const waveform::IqWaveform &wf);

/** Worst (max) channel MSE between an original and its round trip. */
double roundTripMse(const Compressor &comp,
                    const waveform::IqWaveform &wf);

} // namespace compaqt::core

#endif // COMPAQT_CORE_DECOMPRESSOR_HH
