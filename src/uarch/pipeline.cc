#include "uarch/pipeline.hh"

#include "common/logging.hh"

namespace compaqt::uarch
{

namespace
{

/** Memory words of one compressed window (prefix + codeword). */
std::vector<Word>
windowWords(const core::CompressedWindow &w)
{
    std::vector<Word> words;
    words.reserve(w.words());
    for (std::int32_t c : w.icoeffs)
        words.push_back(Word::sample(c));
    if (w.zeros > 0)
        words.push_back(Word::codeword(w.zeros));
    return words;
}

} // namespace

DecompressionPipeline::DecompressionPipeline(EngineKind kind,
                                             std::size_t window_size,
                                             std::size_t memory_width)
    : ws_(window_size), memWidth_(memory_width), rle_(window_size),
      engine_(kind, window_size), memory_(memory_width),
      wbuf_(memory_width), cbuf_(window_size * kFusedBatchWindows)
{
}

void
DecompressionPipeline::load(const core::CompressedChannel &ch)
{
    COMPAQT_REQUIRE(ch.windowSize == ws_,
                    "channel window size mismatch");
    memory_ = BankedWaveform(memWidth_);
    for (const auto &w : ch.windows) {
        COMPAQT_REQUIRE(w.icoeffs.size() == w.prefixSize(),
                        "pipeline requires the integer codec");
        memory_.appendWindow(windowWords(w));
    }
    loadedSamples_ = ch.numSamples;
}

StreamStats
DecompressionPipeline::streamInto(std::span<std::int32_t> out)
{
    COMPAQT_REQUIRE(memory_.numWindows() > 0, "no waveform loaded");
    COMPAQT_REQUIRE(out.size() >= memory_.numWindows() * ws_,
                    "stream output span too small");
    StreamStats stats;
    const std::uint64_t reads_before = memory_.accesses();

    const std::size_t nwin = memory_.numWindows();
    for (std::size_t w = 0; w < nwin;) {
        // cycle: fetch -> cycle: expand -> cycle: IDCT, each stage
        // writing the next stage's register (reused scratch), the
        // last one landing directly in the caller's DAC buffer.
        // Fetch and RLE stay per-window (their access and cycle
        // accounting is per-window), but the expanded coefficients
        // accumulate into a kFusedBatchWindows run that one engine
        // batch call transforms — fewer dispatches, longer SIMD
        // runs, bit-identical samples.
        const std::size_t run =
            std::min(kFusedBatchWindows, nwin - w);
        for (std::size_t j = 0; j < run; ++j) {
            const std::size_t nwords =
                memory_.fetchWindowInto(w + j, wbuf_);
            rle_.decodeInto(
                {wbuf_.data(), nwords},
                std::span(cbuf_).subspan(j * ws_, ws_));
        }
        engine_.transformBatchInto(
            std::span<const std::int32_t>(cbuf_.data(), run * ws_),
            out.subspan(w * ws_, run * ws_), run);
        w += run;
    }

    // Pipelined stages: one window per cycle in steady state, plus
    // fill latency (fetch + RLE + IDCT latency).
    stats.cycles = memory_.numWindows() + 2 +
                   static_cast<std::uint64_t>(engine_.latency());
    stats.wordsRead = memory_.accesses() - reads_before;
    stats.samplesOut = loadedSamples_;
    stats.idctWindows = memory_.numWindows();
    return stats;
}

StreamStats
DecompressionPipeline::streamAdaptiveInto(
    const core::CompressedChannel &ch, std::span<std::int32_t> out)
{
    COMPAQT_REQUIRE(ch.windowSize == ws_,
                    "adaptive channel window size mismatch");
    if (!ch.isAdaptive()) {
        load(ch);
        return streamInto(out);
    }
    COMPAQT_REQUIRE(out.size() >= ch.numWindows() * ws_,
                    "stream output span too small");
    StreamStats stats;
    std::uint64_t cycles = 2 + static_cast<std::uint64_t>(
        engine_.latency()); // pipeline fill

    // Segment boundaries are window-aligned, so every segment but the
    // final one starts and ends on a window boundary of `out`; only
    // the final ramp segment may pad past numSamples (within the
    // numWindows * ws capacity the caller provisioned).
    std::size_t pos = 0;
    for (const auto &seg : ch.segments) {
        if (seg.isFlat) {
            // One codeword read; the decoded value feeds the DAC
            // buffer directly, bypassing memory and the IDCT
            // (Fig 13b). One cycle to issue the codeword.
            COMPAQT_REQUIRE(seg.count <= out.size() - pos,
                            "adaptive flat segment overruns the "
                            "stream buffer");
            const auto v = dsp::IntDct::quantize(seg.value);
            std::fill_n(out.begin() +
                            static_cast<std::ptrdiff_t>(pos),
                        seg.count, v);
            pos += seg.count;
            stats.wordsRead += 1;
            stats.bypassSamples += seg.count;
            cycles += 1;
            continue;
        }
        load(seg.windows);
        COMPAQT_REQUIRE(memory_.numWindows() * ws_ <=
                            out.size() - pos,
                        "adaptive ramp segment overruns the stream "
                        "buffer");
        const StreamStats part = streamInto(
            out.subspan(pos, memory_.numWindows() * ws_));
        pos += loadedSamples_;
        stats.wordsRead += part.wordsRead;
        stats.idctWindows += part.idctWindows;
        cycles += part.idctWindows; // steady-state pipelining
    }
    stats.cycles = cycles;
    stats.samplesOut = ch.numSamples;
    return stats;
}

} // namespace compaqt::uarch
