/**
 * @file
 * The window-playback loop the instruction-stream interpreter drives:
 * decode a range of windows of one gate channel straight into reused
 * scratch in one pass — the codec resolved once, the channel's
 * segment map walked once, ramp runs batch-decoded by the codec and
 * adaptive flat runs served as constant fills through the IDCT
 * bypass. Every play decodes; the rack's waveform-memory model never
 * sits on the sample path.
 *
 * Inside RuntimeService's grid a player also records what it played —
 * one WindowEvent per ramp run of a played or prefetched range — into
 * its cell's log, which the grid replays into the rack's model after
 * every cell has finished. A player built without a log decodes and
 * records nothing.
 */

#ifndef COMPAQT_RUNTIME_PLAYBACK_HH
#define COMPAQT_RUNTIME_PLAYBACK_HH

#include <cstdint>
#include <vector>

#include "core/decompressor.hh"
#include "runtime/rack.hh"

namespace compaqt::runtime
{

/** Playback-side tallies of one execution cell (the fields of
 *  ShardStats the decode loop owns). */
struct PlaybackCounters
{
    std::uint64_t gates = 0;
    std::uint64_t windows = 0;
    std::uint64_t samples = 0;
    std::uint64_t bypassed = 0;
};

/**
 * Per-cell playback state: one Decompressor, the reused scratch
 * buffer, and the optional event log. Not thread-safe — build one per
 * worker cell, like the codec instances it resolves.
 */
class WindowPlayer
{
  public:
    /**
     * Windows per batch: the scratch holds kBatchWindows windows, and
     * a run of one (sub-)channel decodes in chunks of that many. 8
     * windows keeps the scratch footprint at a few KB while
     * amortizing the per-batch virtual call well past the point of
     * diminishing returns — the decode bench's K sweep quantifies
     * that curve.
     */
    static constexpr std::uint32_t kBatchWindows = 8;

    /**
     * Play against a pinned library epoch: recorded events carry
     * `vlib.version`, so windows of different calibrations never
     * satisfy each other in the model. The caller owns the pin (and
     * passes the entries). With `log` non-null, and on a compressed
     * rack whose model has capacity, every played range and prefetch
     * is appended to it.
     */
    WindowPlayer(const Rack &rack, const VersionedLibrary &vlib,
                 WindowEventLog *log = nullptr)
        : decode_(rack.config().controller.compressed),
          log_(decode_ && rack.cache().capacity() > 0 ? log : nullptr),
          libVersion_(vlib.version)
    {
    }

    /** False for uncompressed baseline racks: playback streams raw
     *  samples and never touches payloads or the model. */
    bool decodes() const { return decode_; }

    /**
     * Play windows [first, first + count) of channel `ch` (0 = I,
     * 1 = Q) of `entry`, accumulating windows/samples/bypassed into
     * `c`. One pass: the codec is resolved once, an adaptive
     * channel's segments are walked once, and every sample — flat
     * fills included — is written to the scratch. Adds the range's
     * batches (ceil(count / kBatchWindows)) and windows to the
     * decode.kernel.* counters once.
     * @pre the range is within the channel's window grid (a range
     *      past it panics; isa::Interpreter rejects one up front)
     */
    void playWindows(const waveform::GateId &id,
                     const core::CompressedEntry &entry,
                     std::uint8_t ch, std::uint32_t first,
                     std::uint32_t count, PlaybackCounters &c);

    /**
     * The body of a PREFETCH streak: record a prefetch of windows
     * [first, first + count) of channel `ch` with the compiler's tier
     * hint (0 fast, 1 slow) — one event per ramp run, which the model
     * applies window by window in order. Flat bypass windows never
     * occupy the model and record nothing; so does a player without
     * a log. @pre the range is within the channel's window grid
     */
    void prefetchWindows(const waveform::GateId &id,
                         const core::CompressedEntry &entry,
                         std::uint8_t ch, std::uint32_t first,
                         std::uint32_t count, std::uint8_t tier);

  private:
    void record(const waveform::GateId &id,
                const core::CompressedEntry &entry, std::uint8_t ch,
                std::uint32_t first, std::uint32_t count, bool prefetch,
                std::uint8_t tier);

    bool decode_;
    WindowEventLog *log_;
    std::uint64_t libVersion_;
    core::Decompressor dec_;
    std::vector<double> scratch_;
};

} // namespace compaqt::runtime

#endif // COMPAQT_RUNTIME_PLAYBACK_HH
