/**
 * @file
 * The rack's execution front end: accept a batch of scheduled
 * circuits, fetch or compile each schedule's plan (its shard programs
 * and per-shard demand), execute the (circuit, shard) grid
 * concurrently on a worker pool, and roll the per-shard
 * ExecutionStats up into one RackStats record (fleet demand,
 * waveform-memory model counters, wall-clock throughput).
 *
 * There is one execution path, the instruction-driven one of
 * COMPAQT's controller (Fig 6): work that depends only on the
 * schedule, the compiler knobs and the library epoch — partitioning,
 * demand accounting, compiling — happens once per plan, at its first
 * dispatch; every cell then interprets its shard's PLAY/WAIT/PREFETCH
 * program. Playback decodes every played window, every time — the way
 * COMPAQT decompresses on the way to the DACs. The ranges a program
 * plays and prefetches are fixed when it compiles, so the plan also
 * carries them as model events; one more job of the grid replays the
 * batch's events into the rack's waveform-memory model in (circuit,
 * shard) order while the cells decode, which is what makes the
 * model's counters deterministic.
 */

#ifndef COMPAQT_RUNTIME_SERVICE_HH
#define COMPAQT_RUNTIME_SERVICE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "circuits/scheduler.hh"
#include "common/executor.hh"
#include "isa/compiler.hh"
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
     *  bit-identical at any worker count. (entries/residentSamples
     *  are the model's state after the replay.) */
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
     * Capacity of the plan cache in shard programs (LRU). A plan —
     * one schedule compiled for every shard — weighs the rack's shard
     * count, so the default holds 64 plans on a 4-shard rack. Keyed by
     * (schedule fingerprint x compiler knobs, library version), so a
     * hot-swap never serves a stale artifact — the old version's
     * plans are simply unreachable and get swept. 0 disables caching.
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
 * reduced in a fixed order, and the model replays the plans' events in
 * that same order.
 */
class RuntimeService
{
  public:
    /** Runs its grid on its own Executor of cfg.workers threads. */
    RuntimeService(const Rack &rack, const ServiceConfig &cfg = {});

    /** Runs its grid on `exec`, which it may share with other
     *  services (runtime::Server's fleet pool). */
    RuntimeService(const Rack &rack,
                   std::shared_ptr<common::Executor> exec,
                   std::size_t programCacheEntries);

    /**
     * Execute a batch with per-schedule rollups (see BatchExecution);
     * `.total` is the whole batch. Each schedule's plan comes from
     * the plan cache — one lookup per schedule — or, on a miss, from
     * isa::Compiler::compile under `cfg` (partition, then per shard
     * the program, the controller's stats-only demand and the model
     * events); each cell drives its shard's program through
     * isa::Interpreter, and one job beside them replays the plans'
     * events into the rack's model. Per shard slice, every event
     * whose gate the pinned library holds plays once: one gate, every
     * window of both channels (all of its samples on an uncompressed
     * rack). The model counters and prefetchesIssued depend on the
     * emitted PREFETCHes and the model state, but not on the worker
     * count.
     * @throws std::invalid_argument when a shard's mandatory stream
     *         exceeds cfg.instructionMemoryWords. Only the compile
     *         throws — a compiler-made plan passes every check the
     *         interpreter makes — and every plan is fetched or
     *         compiled before any cell plays or the replay starts, so
     *         a batch that throws never touches the model.
     */
    BatchExecution executeBatchCompiledPerJob(
        const std::vector<circuits::Schedule> &batch,
        const isa::CompilerConfig &cfg = {});

    /** Plan-cache counters: one hit or miss per schedule per batch,
     *  insertions, evictions, stale sweeps; `entries` counts plans. */
    isa::ProgramCacheStats
    programCacheStats() const
    {
        return plans_.stats();
    }

  private:
    const Rack &rack_;
    std::shared_ptr<common::Executor> exec_;
    /** Compiled plans, shared across batches so steady-state serving
     *  of a repeating workload skips partition, demand accounting and
     *  the compiler entirely. */
    isa::PlanCache plans_;
};

} // namespace compaqt::runtime

#endif // COMPAQT_RUNTIME_SERVICE_HH
