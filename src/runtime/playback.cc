#include "runtime/playback.hh"

#include <algorithm>

#include "common/logging.hh"
#include "dsp/simd.hh"
#include "telemetry/metrics.hh"

namespace compaqt::runtime
{

void
WindowPlayer::playWindows(const waveform::GateId &id,
                          const core::CompressedEntry &entry,
                          std::uint8_t ch, std::uint32_t first,
                          std::uint32_t count, PlaybackCounters &c)
{
    // Playback's kernel work, added once per range:
    // ceil(count / kBatchWindows) batches and count windows.
    static telemetry::Counter &batches =
        telemetry::Registry::global().counter("decode.kernel.batches");
    static telemetry::Counter &windows =
        telemetry::Registry::global().counter("decode.kernel.windows");

    const auto &cw = entry.cw;
    const core::CompressedChannel &channel = ch == 0 ? cw.i : cw.q;
    const std::size_t ws = channel.windowSize;
    const std::uint32_t end = first + count;
    COMPAQT_REQUIRE(end <= channel.numWindows(),
                    "play range outside the channel's window grid");
    if (log_) {
        record(id, entry, ch, first, count, false, 0);
        return;
    }
    const std::size_t cap = ws * kBatchWindows;
    if (scratch_.size() < cap)
        scratch_.resize(cap);
    const SampleSpan scratch(scratch_.data(), cap);
    const core::ICodec &codec = dec_.resolve(cw.codec, ws);
    // Decode `n` consecutive windows of one (sub-)channel, starting
    // at its window `local`, in scratch-sized batches.
    const auto decode = [&](const core::CompressedChannel &sub,
                            std::size_t local, std::size_t n) {
        for (std::size_t j = 0; j < n; j += kBatchWindows)
            c.samples += codec.decodeWindowsInto(
                sub, local + j,
                std::min<std::size_t>(kBatchWindows, n - j), scratch);
    };

    if (!channel.isAdaptive()) {
        decode(channel, first, count);
    } else {
        // One walk of the window-aligned segments: a ramp run decodes
        // on its segment's sub-channel, a flat run is a constant fill
        // counted as bypassed.
        channel.forEachSegmentRun(
            first, end,
            [&](const core::AdaptiveSegment &seg, std::size_t lo,
                std::size_t hi, std::size_t local) {
                if (!seg.isFlat) {
                    decode(seg.windows, local, hi - lo);
                    return;
                }
                const std::size_t n =
                    std::min(hi * ws, channel.numSamples) - lo * ws;
                for (std::size_t done = 0; done < n; done += cap)
                    dsp::simd::fillDoubles(scratch_.data(),
                                           std::min(cap, n - done),
                                           seg.value);
                c.samples += n;
                c.bypassed += n;
            });
    }
    c.windows += count;
    batches.add((count + kBatchWindows - 1) / kBatchWindows);
    windows.add(count);
}

void
WindowPlayer::prefetchWindows(const waveform::GateId &id,
                              const core::CompressedEntry &entry,
                              std::uint8_t ch, std::uint32_t first,
                              std::uint32_t count, std::uint8_t tier)
{
    if (log_)
        record(id, entry, ch, first, count, true, tier);
}

void
WindowPlayer::record(const waveform::GateId &id,
                     const core::CompressedEntry &entry, std::uint8_t ch,
                     std::uint32_t first, std::uint32_t count,
                     bool prefetch, std::uint8_t tier)
{
    if (count == 0)
        return;
    const auto &cw = entry.cw;
    const core::CompressedChannel &channel = ch == 0 ? cw.i : cw.q;
    const auto i_windows = static_cast<std::uint32_t>(cw.i.numWindows());
    const std::uint32_t base = ch == 1 ? i_windows : 0;
    // One event per run of windows the model holds: flat bypass
    // windows never occupy it.
    const auto add = [&](std::uint32_t lo, std::uint32_t n) {
        lo += base;
        // A play continuing the previous play of the same gate (the Q
        // channel right after the I channel, or a chunk right after
        // the chunk before it) extends that event: same windows, same
        // order.
        if (!prefetch && !log_->empty()) {
            WindowEvent &last = log_->back();
            if (!last.prefetch && last.gate == id &&
                last.first + last.count == lo) {
                last.count += n;
                return;
            }
        }
        log_->push_back(
            {id, prefetch, tier, lo, n, i_windows,
             i_windows + static_cast<std::uint32_t>(cw.q.numWindows()),
             static_cast<std::uint32_t>(channel.windowSize),
             libVersion_});
    };
    if (!channel.isAdaptive()) {
        add(first, count);
        return;
    }
    channel.forEachSegmentRun(
        first, std::size_t{first} + count,
        [&](const core::AdaptiveSegment &seg, std::size_t lo,
            std::size_t hi, std::size_t) {
            if (!seg.isFlat)
                add(static_cast<std::uint32_t>(lo),
                    static_cast<std::uint32_t>(hi - lo));
        });
}

} // namespace compaqt::runtime
