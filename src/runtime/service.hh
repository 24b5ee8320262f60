/**
 * @file
 * The rack's execution front end: accept a batch of scheduled
 * circuits, split every schedule across the fleet by qubit ownership,
 * execute the (circuit, shard) grid concurrently on a worker pool,
 * and roll the per-shard ExecutionStats up into one RackStats record
 * (fleet demand, waveform-memory model counters, wall-clock
 * throughput).
 *
 * There is one execution path, the instruction-driven one of
 * COMPAQT's controller (Fig 6): each cell fetches its shard slice's
 * PLAY/WAIT/PREFETCH program from the program cache (compiling it on
 * a miss) and interprets it. Playback decodes every played window,
 * every time — the way COMPAQT decompresses on the way to the DACs.
 * Each cell records the ranges it played and prefetched; once the
 * whole grid has succeeded, the serial reduction replays those
 * records into the rack's waveform-memory model in (circuit, shard)
 * order, which is what makes the model's counters deterministic.
 */

#ifndef COMPAQT_RUNTIME_SERVICE_HH
#define COMPAQT_RUNTIME_SERVICE_HH

#include <cstdint>
#include <vector>

#include "circuits/scheduler.hh"
#include "common/executor.hh"
#include "isa/compiler.hh"
#include "isa/program_cache.hh"
#include "runtime/rack.hh"

namespace compaqt::runtime
{

/** One shard's aggregate over a batch. */
struct ShardStats
{
    /** Bank/bandwidth demand: peaks are maxima over the batch,
     *  totals are sums. */
    uarch::ExecutionStats demand;
    /** Physical gate pulses played on this shard. */
    std::uint64_t gatesPlayed = 0;
    /** Compressed windows decoded (flat bypass windows included). */
    std::uint64_t windowsDecoded = 0;
    /** Samples reconstructed for the shard's DACs. */
    std::uint64_t samplesDecoded = 0;
    /** Of samplesDecoded, samples served by the adaptive IDCT
     *  bypass as constant fills (never transformed, never in the
     *  model). */
    std::uint64_t samplesBypassed = 0;
    /** PREFETCH ops the model's replay found cold and inserted.
     *  Deterministic at any worker count; like the model counters it
     *  depends on the model state the batch found. */
    std::uint64_t prefetchesIssued = 0;
};

/** Fleet-level rollup of one batch execution. */
struct RackStats
{
    std::vector<ShardStats> shards;

    // Fleet demand: per-shard peaks summed (each shard is its own
    // RFSoC, so the rack must provision the sum), feasible iff every
    // shard fit its bank budget.
    std::size_t fleetPeakBanks = 0;
    int fleetPeakChannels = 0;
    double fleetPeakBandwidthBytesPerSec = 0.0;
    bool feasible = true;

    std::uint64_t totalGates = 0;
    std::uint64_t totalSamples = 0;
    std::uint64_t totalBypassSamples = 0;
    std::uint64_t totalWindows = 0;
    std::uint64_t missingGates = 0;
    /** Scheduled events no shard owns (a qubit outside the rack's
     *  plan): dropped by partitioning, reported here so a
     *  schedule/device size mismatch is visible, not silent. */
    std::uint64_t unownedEvents = 0;
    /** Fleet sum of ShardStats::prefetchesIssued. */
    std::uint64_t prefetchesIssued = 0;

    /** Waveform-memory model counters of this batch alone: the
     *  grid's replay applies the batch's events under the model's
     *  lock and returns what they added, so concurrent services on
     *  one Rack never fold into each other's counters. A pure
     *  function of the model state the batch found and the batch —
     *  bit-identical at any worker count. A batch that throws never
     *  touches the model. (entries/residentSamples are the model's
     *  state after the replay.) */
    DecodedCacheStats cache;
    double cacheHitRate = 0.0;

    // Wall-clock throughput of the batch execution.
    double wallSeconds = 0.0;
    double gatesPerSec = 0.0;
    double samplesPerSec = 0.0;
};

/** Service tuning knobs. */
struct ServiceConfig
{
    /** Worker threads (including the caller); >= 1. */
    int workers = 1;
    /**
     * Capacity of the compiled-program cache (entries, LRU). Keyed by
     * (schedule fingerprint, shard, library version), so a hot-swap
     * never serves a stale artifact — the old version's entries are
     * simply unreachable and get swept. 0 disables caching.
     */
    std::size_t programCacheEntries = 256;
};

/**
 * One batch execution with per-schedule attribution — the serving
 * plane's hook: runtime::Server coalesces jobs from many tenants into
 * one rack batch but must report each job its own result.
 */
struct BatchExecution
{
    /** Whole-batch rollup. */
    RackStats total;
    /**
     * The library epoch the whole batch executed under. Batches pin
     * one epoch up front, so a hot-swap landing mid-batch never
     * splits a batch across calibrations — the swap takes effect at
     * the next batch.
     */
    std::uint64_t libraryVersion = 0;
    /**
     * Per-schedule rollups: jobs[j] covers only batch[j]'s cells of
     * the execution grid. Every field is a pure function of
     * (rack, batch[j]) — independent of batch composition, submission
     * interleaving, and worker count — except three: the model
     * counters and wall-clock throughput attribute only to the whole
     * batch and stay zero here, and prefetchesIssued counts the
     * job's cold prefetches against the model state its batch
     * reached (worker-count independent, composition dependent).
     */
    std::vector<RackStats> jobs;
};

/**
 * Executes batches of scheduled circuits on one Rack. Every RackStats
 * field but the wall-clock ones is bit-identical across worker
 * counts: every (circuit, shard) cell is a pure function of its
 * schedule slice and its compiled program, computed independently and
 * reduced — model replay included — in a fixed order.
 */
class RuntimeService
{
  public:
    RuntimeService(const Rack &rack, const ServiceConfig &cfg = {});

    int workers() const { return exec_.workers(); }

    /**
     * Execute a batch with per-schedule rollups (see BatchExecution);
     * `.total` is the whole batch. Each cell fetches its shard
     * slice's program from the program cache, compiling it with
     * isa::Compiler under `cfg` on a miss, and drives it through
     * isa::Interpreter against the rack's model. Per shard slice,
     * every event whose gate the pinned library holds plays once:
     * one gate, every window of both channels (all of its samples on
     * an uncompressed rack), and demand is the shard controller's
     * stats-only execute(). The model counters and prefetchesIssued
     * depend on the emitted PREFETCHes and the model state, but not
     * on the worker count.
     * @throws std::invalid_argument when a shard's mandatory stream
     *         exceeds cfg.instructionMemoryWords — the whole batch
     *         fails and the model is left untouched
     */
    BatchExecution executeBatchCompiledPerJob(
        const std::vector<circuits::Schedule> &batch,
        const isa::CompilerConfig &cfg = {});

    /** Compiled-program cache counters (hits/misses/stale sweeps). */
    isa::ProgramCacheStats
    programCacheStats() const
    {
        return progCache_.stats();
    }

  private:
    const Rack &rack_;
    common::Executor exec_;
    /** Compiled artifacts keyed by (schedule, shard, library
     *  version); shared across batches so steady-state serving of a
     *  repeating workload skips the compiler entirely. */
    mutable isa::ProgramCache progCache_;
};

} // namespace compaqt::runtime

#endif // COMPAQT_RUNTIME_SERVICE_HH
