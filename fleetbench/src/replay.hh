/**
 * @file
 * The traced replay: after the untraced measured phase, replay a
 * sample of the same seeded jobs by calling each layer's public
 * functions from outside, in the service's order, and record every
 * call as a span tagged with the job id in a private
 * telemetry::Trace.
 *
 * Each replayed job runs the service order — partition, then per
 * shard demand, program-cache lookup or compile, and interpret — then
 * the same cells' windows through WindowPlayer::playWindows on a
 * second set of racks, then the same windows through
 * Decompressor::decodeWindowsInto into scratch. The replay runs on
 * fresh racks built like the fleet's, on as many threads as the fleet
 * has workers (so lock waits in the store land in the store's time),
 * after an untimed warm prefix. Traced and untraced jobs alternate in
 * pairs; the untraced half is the baseline of the trace overhead.
 *
 * Nested self times come out by subtraction: interpret self time is
 * interpret minus playback, and store self time is playback minus the
 * decode work playback did, estimated as the kernel's time per window
 * times the playback racks' store misses. Interleaving the three per
 * job keeps machine noise from skewing the differences.
 */

#ifndef FLEETBENCH_REPLAY_HH
#define FLEETBENCH_REPLAY_HH

#include <cstdint>
#include <string>

#include "isa/program_cache.hh"
#include "workload.hh"

namespace fleetbench
{

/** Span totals of the timed segments, in nanoseconds. */
struct ReplayResult
{
    int threads = 0;
    /** Traced timed jobs. */
    std::uint64_t jobs = 0;
    /** Service-order time of the traced timed jobs, summed over
     *  threads: the replay's wall time the shares divide. */
    double wallNs = 0.0;
    /** Median service-order time per job, traced over untraced,
     *  minus one. */
    double traceOverhead = 0.0;
    double partitionNs = 0.0;
    double demandNs = 0.0;
    /** Program-cache sweep and lookup plus compiles on a miss. */
    double programNs = 0.0;
    double interpretNs = 0.0;
    /** Every traced compileShard() span, warm prefix included. */
    double compileAllNs = 0.0;
    std::uint64_t compilesAll = 0;
    double playbackNs = 0.0;
    /** Store demand misses the traced jobs' playback caused. */
    std::uint64_t playbackMisses = 0;
    double decodeNs = 0.0;
    std::uint64_t decodeWindows = 0;
    std::uint64_t decodeSamples = 0;
    /** Program-cache counters over the timed segment. */
    isa::ProgramCacheStats programCache;
    std::uint64_t droppedEvents = 0;
    std::uint64_t traceEvents = 0;
    bool traceWritten = false;
};

/**
 * Replay a sample of `in.jobs` (see the file comment) and write the
 * spans to `trace_path` as Chrome-trace JSON. A workload with swaps
 * publishes the second calibration halfway through the timed jobs.
 */
ReplayResult replay(const Inputs &in, const waveform::DeviceModel &dev,
                    const Fleet &fleet, const ThreadBudget &budget,
                    const std::string &trace_path);

} // namespace fleetbench

#endif // FLEETBENCH_REPLAY_HH
