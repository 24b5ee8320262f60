#include "runtime/playback.hh"

#include <algorithm>

namespace compaqt::runtime
{

void
WindowPlayer::playWindows(const waveform::GateId &id,
                          const core::CompressedEntry &entry,
                          std::uint8_t ch, std::uint32_t first,
                          std::uint32_t count, PlaybackCounters &c)
{
    const auto &cw = entry.cw;
    const core::CompressedChannel &channel = ch == 0 ? cw.i : cw.q;
    const std::size_t ws = channel.windowSize;
    if (scratch_.size() < ws * kBatchWindows)
        scratch_.resize(ws * kBatchWindows);
    const std::uint32_t end = first + count;
    for (std::uint32_t w = first; w < end;) {
        const auto run = std::min<std::uint32_t>(kBatchWindows, end - w);
        c.samples += dec_.decodeWindowsInto(
            channel, cw.codec, w, run,
            SampleSpan(scratch_.data(), scratch_.size()));
        w += run;
    }
    c.windows += count;

    if (!channel.isAdaptive()) {
        record(id, entry, ch, first, count, false, 0);
        return;
    }
    // Adaptive channel: the decode above already served flat windows
    // as constant fills. Walk the window-aligned segments once to
    // count those samples as bypassed and to record only the ramp
    // runs — a flat window never occupies the model.
    std::uint32_t begin = 0;
    for (const core::AdaptiveSegment &seg : channel.segments) {
        if (begin >= end)
            break;
        const auto span =
            static_cast<std::uint32_t>((seg.samples() + ws - 1) / ws);
        const std::uint32_t lo = std::max(first, begin);
        const std::uint32_t hi = std::min(end, begin + span);
        begin += span;
        if (lo >= hi)
            continue;
        if (seg.isFlat)
            c.bypassed += std::min(hi * ws, channel.numSamples) -
                          std::min(lo * ws, channel.numSamples);
        else
            record(id, entry, ch, lo, hi - lo, false, 0);
    }
}

void
WindowPlayer::prefetchWindow(const waveform::GateId &id,
                             const core::CompressedEntry &entry,
                             std::uint8_t ch, std::uint32_t window,
                             std::uint8_t tier)
{
    if (!log_)
        return;
    const core::CompressedChannel &channel =
        ch == 0 ? entry.cw.i : entry.cw.q;
    if (channel.isAdaptive()) {
        std::size_t local = 0;
        if (channel.segmentForWindow(window, local).isFlat)
            return;
    }
    record(id, entry, ch, window, 1, true, tier);
}

void
WindowPlayer::record(const waveform::GateId &id,
                     const core::CompressedEntry &entry, std::uint8_t ch,
                     std::uint32_t first, std::uint32_t count,
                     bool prefetch, std::uint8_t tier)
{
    if (!log_)
        return;
    const auto &cw = entry.cw;
    const auto i_windows = static_cast<std::uint32_t>(cw.i.numWindows());
    if (ch == 1)
        first += i_windows;
    // A range continuing the previous play of the same gate (the Q
    // channel right after the I channel, or a chunk right after the
    // chunk before it) extends that event: same windows, same order.
    if (!prefetch && !log_->empty()) {
        WindowEvent &last = log_->back();
        if (!last.prefetch && last.gate == id &&
            last.first + last.count == first) {
            last.count += count;
            return;
        }
    }
    log_->push_back(
        {id, prefetch, tier, first, count, i_windows,
         i_windows + static_cast<std::uint32_t>(cw.q.numWindows()),
         static_cast<std::uint32_t>((ch == 0 ? cw.i : cw.q).windowSize),
         libVersion_});
}

} // namespace compaqt::runtime
