/**
 * @file
 * The full decompression pipeline of Fig 10 (banked fetch -> RLE
 * decode -> IDCT -> DAC buffer), with the adaptive IDCT-bypass path
 * of Fig 13(b). Streams a compressed channel and reports the cycle,
 * access, and bandwidth accounting the evaluation needs.
 *
 * The pipeline is modelled at window granularity: each stage takes
 * one fabric cycle and the stages are pipelined, so a W-window
 * waveform streams in W + latency cycles, producing WS samples per
 * cycle — the bandwidth expansion of Fig 2(b).
 */

#ifndef COMPAQT_UARCH_PIPELINE_HH
#define COMPAQT_UARCH_PIPELINE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "core/compressor.hh"
#include "uarch/bram.hh"
#include "uarch/idct_engine.hh"
#include "uarch/rle_decoder.hh"

namespace compaqt::uarch
{

/** Streaming statistics for one waveform playback. */
struct StreamStats
{
    /** Fabric cycles from first fetch to last sample. */
    std::uint64_t cycles = 0;
    /** Memory words actually read. */
    std::uint64_t wordsRead = 0;
    /** Samples delivered to the DAC buffer. */
    std::uint64_t samplesOut = 0;
    /** Windows that went through the IDCT. */
    std::uint64_t idctWindows = 0;
    /** Samples produced by the RLE-only bypass (adaptive mode). */
    std::uint64_t bypassSamples = 0;

    /** Samples per fabric cycle — the effective bandwidth boost. */
    double
    samplesPerCycle() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(samplesOut) /
                                 static_cast<double>(cycles);
    }
};

/**
 * One per-channel decompression pipeline instance.
 */
class DecompressionPipeline
{
  public:
    /**
     * @param kind engine flavor
     * @param window_size transform size (4/8/16/32)
     * @param memory_width uniform words per window the memory was
     *        provisioned for (>= worst case of the library)
     */
    DecompressionPipeline(EngineKind kind, std::size_t window_size,
                          std::size_t memory_width);

    /**
     * Load a compressed channel into banked memory.
     * @pre integer codec, windows fit memory_width
     */
    void load(const core::CompressedChannel &ch);

    /** Samples the loaded waveform decodes to (pre-trim capacity is
     *  numWindows * windowSize; the stream trims to this). */
    std::size_t loadedSamples() const { return loadedSamples_; }

    /** Windows resident in banked memory. */
    std::size_t numWindows() const { return memory_.numWindows(); }

    /**
     * Stream the loaded waveform into caller-owned memory, one
     * window per fabric cycle through fetch -> RLE -> IDCT scratch
     * that is reused across calls (no steady-state allocation).
     * Samples are bit-exact with core::Decompressor (the golden
     * model). @pre out.size() >= numWindows() * windowSize
     * @return the statistics of the playback (samplesOut ==
     *         loadedSamples())
     */
    StreamStats streamInto(std::span<std::int32_t> out);

    /**
     * Stream a channel that may carry the adaptive flat-top
     * representation into caller-owned memory: ramp segments load
     * and stream through the full fetch -> RLE -> IDCT pipeline,
     * flat segments take the bypass path (one cycle per repeat
     * codeword, no memory or IDCT activity beyond it — Fig 13b).
     * A plain channel degenerates to load() + streamInto().
     * @pre out.size() >= ch.numWindows() * windowSize
     * @return playback statistics (samplesOut == ch.numSamples,
     *         bypassSamples == ch.bypassSamples())
     */
    StreamStats streamAdaptiveInto(const core::CompressedChannel &ch,
                                   std::span<std::int32_t> out);

    const IdctEngine &engine() const { return engine_; }

    /** Windows fused per decode batch: streamInto expands up to this
     *  many RLE windows into one scratch run, then transforms the
     *  run with a single engine batch call writing straight into the
     *  caller's DAC buffer. Purely a software-throughput batching of
     *  the functional model — per-window fetch/RLE accounting and
     *  the cycle formula are unchanged. */
    static constexpr std::size_t kFusedBatchWindows = 8;

  private:
    std::size_t ws_;
    std::size_t memWidth_;
    RleDecoder rle_;
    IdctEngine engine_;
    BankedWaveform memory_;
    std::size_t loadedSamples_ = 0;
    /** Reused scratch: fetched words (one window) and expanded
     *  coefficients (one kFusedBatchWindows run) — the Fig 10
     *  inter-stage registers, widened to the fused batch. */
    std::vector<Word> wbuf_;
    std::vector<std::int32_t> cbuf_;
};

} // namespace compaqt::uarch

#endif // COMPAQT_UARCH_PIPELINE_HH
