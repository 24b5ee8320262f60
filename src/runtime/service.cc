#include "runtime/service.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "isa/interpreter.hh"
#include "runtime/playback.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace compaqt::runtime
{

namespace
{

using Plan = std::shared_ptr<const isa::CompiledSchedule>;

/** Play one shard's program of one circuit's plan, driven by the
 *  interpreter. */
PlaybackCounters
playShard(const Rack &rack, const VersionedLibrary &vlib,
          const isa::CompiledSchedule &plan, std::size_t shard)
{
    COMPAQT_TRACE_SPAN("shard", "shard.play", "shard", shard, "events",
                       plan.stats[shard].playedEvents);
    isa::Interpreter interp(rack, vlib);
    return interp.run(plan.programs[shard]).play;
}

/** Fold the compiler knobs that shape the emitted stream into the
 *  plan-cache key with scheduleFingerprint's word fold. */
std::uint64_t
compilerCfgHash(const isa::CompilerConfig &cfg)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    const auto fold = [&h](std::uint64_t v) {
        h = circuits::fingerprintFold(h, v);
    };
    fold(cfg.instructionMemoryWords);
    fold(cfg.prefetchLeadCycles);
    fold(cfg.maxOutstandingPrefetches);
    fold(cfg.emitPrefetch ? 1 : 0);
    fold(cfg.tier0ReuseDistance);
    return h;
}

/** Fold one grid cell — its plan's demand for the shard, what it
 *  played, and its cold prefetches — into its shard's rollup: peaks
 *  are maxima, totals are sums. */
void
accumulateCell(ShardStats &sh, const uarch::ExecutionStats &demand,
               const PlaybackCounters &play,
               std::uint64_t prefetchesIssued)
{
    sh.demand.peakBanks = std::max(sh.demand.peakBanks, demand.peakBanks);
    sh.demand.peakChannels =
        std::max(sh.demand.peakChannels, demand.peakChannels);
    sh.demand.peakBandwidthBytesPerSec =
        std::max(sh.demand.peakBandwidthBytesPerSec,
                 demand.peakBandwidthBytesPerSec);
    sh.demand.feasible = sh.demand.feasible && demand.feasible;
    sh.demand.totalSamples += demand.totalSamples;
    sh.demand.totalWordsRead += demand.totalWordsRead;
    sh.demand.missingGates += demand.missingGates;
    sh.demand.bypassSamples += demand.bypassSamples;
    sh.gatesPlayed += play.gates;
    sh.windowsDecoded += play.windows;
    sh.samplesDecoded += play.samples;
    sh.samplesBypassed += play.bypassed;
    sh.prefetchesIssued += prefetchesIssued;
}

/** Batch-grain service metrics: registered once, bumped once per
 *  executed batch (never per cell or per gate, so the always-on cost
 *  is a handful of relaxed adds per batch). */
struct ServiceMetrics
{
    telemetry::Counter &batches;
    telemetry::Counter &gates;
    telemetry::Counter &windows;
    telemetry::Counter &samples;
    telemetry::LatencyHistogram &batchWall;

    static ServiceMetrics &
    instance()
    {
        static ServiceMetrics m = [] {
            auto &reg = telemetry::Registry::global();
            return ServiceMetrics{
                reg.counter("service.batches"),
                reg.counter("service.gates_played"),
                reg.counter("service.windows_decoded"),
                reg.counter("service.samples_decoded"),
                reg.histogram("service.batch_wall"),
            };
        }();
        return m;
    }
};

/** Sum per-shard rollups into the fleet-level fields. */
void
finalizeFleet(RackStats &stats)
{
    for (const auto &sh : stats.shards) {
        stats.fleetPeakBanks += sh.demand.peakBanks;
        stats.fleetPeakChannels += sh.demand.peakChannels;
        stats.fleetPeakBandwidthBytesPerSec +=
            sh.demand.peakBandwidthBytesPerSec;
        stats.feasible = stats.feasible && sh.demand.feasible;
        stats.totalGates += sh.gatesPlayed;
        stats.totalWindows += sh.windowsDecoded;
        stats.totalSamples += sh.samplesDecoded;
        stats.totalBypassSamples += sh.samplesBypassed;
        stats.missingGates += sh.demand.missingGates;
        stats.prefetchesIssued += sh.prefetchesIssued;
    }
}

/**
 * The batch skeleton: play the (circuit, shard) grid of the batch's
 * plans concurrently while one more job replays the plans' events into
 * the rack's waveform-memory model in (circuit, shard) order, then
 * reduce serially in a fixed order — so no rolled-up number, model
 * counters included, depends on worker interleaving. The replay need
 * not wait for the cells: the events are the plan's, and no cell of a
 * compiler-made plan throws. `t0` is when the batch started fetching
 * its plans.
 */
BatchExecution
runGrid(const Rack &rack, const VersionedLibrary &vlib,
        common::Executor &exec, const std::vector<Plan> &plans,
        std::chrono::steady_clock::time_point t0)
{
    const auto n_shards = static_cast<std::size_t>(rack.numShards());
    const std::size_t n_cells = plans.size() * n_shards;
    std::vector<const WindowEventLog *> logs;
    logs.reserve(n_cells);
    for (const Plan &plan : plans)
        for (const WindowEventLog &log : plan->events)
            logs.push_back(&log);
    std::vector<PlaybackCounters> played(n_cells);
    std::vector<std::uint64_t> inserted(n_cells, 0);
    DecodedCacheStats cache;
    // Job 0 is the replay, so one worker runs it first, on the caller.
    exec.forEach(n_cells + 1, [&](std::size_t i) {
        if (i == 0) {
            cache = rack.cache().replay(logs, inserted);
            return;
        }
        --i;
        played[i] = playShard(rack, vlib, *plans[i / n_shards],
                              i % n_shards);
    });
    const auto t1 = std::chrono::steady_clock::now();

    // Serial, fixed-order reduction: shard-level peaks are maxima
    // over the batch, totals are sums — independent of how workers
    // interleaved the cells. Each schedule's own rollup folds only
    // its row of the grid, so a job's numbers do not depend on which
    // other jobs shared its batch.
    BatchExecution result;
    result.libraryVersion = vlib.version;
    RackStats &stats = result.total;
    stats.shards.resize(n_shards);
    result.jobs.resize(plans.size());
    for (std::size_t c = 0; c < plans.size(); ++c) {
        const isa::CompiledSchedule &plan = *plans[c];
        RackStats &job = result.jobs[c];
        job.shards.resize(n_shards);
        for (std::size_t s = 0; s < n_shards; ++s) {
            const std::size_t i = c * n_shards + s;
            accumulateCell(stats.shards[s], plan.demand[s], played[i],
                           inserted[i]);
            accumulateCell(job.shards[s], plan.demand[s], played[i],
                           inserted[i]);
        }
        finalizeFleet(job);
        job.unownedEvents = plan.unownedEvents;
        stats.unownedEvents += plan.unownedEvents;
    }
    finalizeFleet(stats);

    stats.cache = cache;
    stats.cacheHitRate = cache.hitRate();

    stats.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    if (stats.wallSeconds > 0.0) {
        stats.gatesPerSec =
            static_cast<double>(stats.totalGates) / stats.wallSeconds;
        stats.samplesPerSec =
            static_cast<double>(stats.totalSamples) /
            stats.wallSeconds;
    }

    auto &metrics = ServiceMetrics::instance();
    metrics.batches.add();
    metrics.gates.add(stats.totalGates);
    metrics.windows.add(stats.totalWindows);
    metrics.samples.add(stats.totalSamples);
    metrics.batchWall.record(stats.wallSeconds);
    return result;
}

} // namespace

RuntimeService::RuntimeService(const Rack &rack,
                               const ServiceConfig &cfg)
    : RuntimeService(rack, std::make_shared<common::Executor>(cfg.workers),
                     cfg.programCacheEntries)
{
}

RuntimeService::RuntimeService(const Rack &rack,
                               std::shared_ptr<common::Executor> exec,
                               std::size_t programCacheEntries)
    : rack_(rack), exec_(std::move(exec)), plans_(programCacheEntries)
{
}

BatchExecution
RuntimeService::executeBatchCompiledPerJob(
    const std::vector<circuits::Schedule> &batch,
    const isa::CompilerConfig &cfg)
{
    const auto n_shards = static_cast<std::size_t>(rack_.numShards());
    COMPAQT_TRACE_SPAN("batch", "service.batch", "circuits", batch.size(),
                       "cells", batch.size() * n_shards);
    // Pin one epoch and hand it to both the compiler and the
    // interpreter, so a swap landing between compile and run cannot
    // produce a version-mismatch rejection inside the batch.
    const VersionedLibrary vlib = rack_.currentLibrary();
    const isa::Compiler compiler(rack_, vlib, cfg);
    // Sweep plans of retired epochs once per batch — they are
    // unreachable (the key carries the version) and only waste slots.
    plans_.dropStale(vlib.version);

    // One plan lookup per schedule. A miss compiles the whole schedule
    // once, inside the batch's wall clock; a compile that throws fails
    // the batch before any cell plays or the model replays.
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t cfgHash = compilerCfgHash(cfg);
    std::vector<Plan> plans;
    plans.reserve(batch.size());
    for (const circuits::Schedule &sched : batch) {
        const isa::PlanKey key{circuits::scheduleFingerprint(sched) ^ cfgHash,
                               vlib.version};
        Plan plan = plans_.get(key);
        if (!plan) {
            COMPAQT_TRACE_SPAN("compile", "isa.compile", "events",
                               sched.events.size());
            plan = plans_.put(key, compiler.compile(sched), n_shards);
        }
        plans.push_back(std::move(plan));
    }
    return runGrid(rack_, vlib, *exec_, plans, t0);
}

} // namespace compaqt::runtime
