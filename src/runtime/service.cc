#include "runtime/service.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "isa/interpreter.hh"
#include "runtime/playback.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace compaqt::runtime
{

namespace
{

/** Result of one (circuit, shard) cell of the execution grid. */
struct CellResult
{
    uarch::ExecutionStats demand;
    PlaybackCounters play;
    /** Cold prefetches the model inserted for this cell (set by the
     *  grid's replay). */
    std::uint64_t prefetchesIssued = 0;
};

/**
 * Play one shard's slice of one circuit: stats-only demand accounting
 * on the shard's controller, then the slice's program — fetched from
 * the program cache or compiled on a miss — driven by the interpreter,
 * which records what it plays and prefetches into the cell's log.
 */
CellResult
playShard(const Rack &rack, const VersionedLibrary &vlib, int shard,
          const circuits::Schedule &part, const isa::Compiler &compiler,
          isa::ProgramCache &cache, std::uint64_t cfgHash,
          WindowEventLog &log)
{
    COMPAQT_TRACE_SPAN("shard", "shard.play", "shard",
                       static_cast<std::uint64_t>(shard), "events",
                       part.events.size());
    CellResult cell;
    cell.demand = rack.controller(shard).execute(part, *vlib);
    // The cache key covers everything the artifact depends on: the
    // schedule's content fingerprint, the compiler knobs, the shard
    // (its channel set shapes the stream), and the pinned library
    // version — so a hot-swap can never serve a stale program.
    const isa::ProgramKey key{
        circuits::scheduleFingerprint(part) ^ cfgHash, shard,
        vlib.version};
    std::shared_ptr<const isa::InstructionProgram> prog =
        cache.get(key);
    if (!prog) {
        COMPAQT_TRACE_SPAN("compile", "isa.compile_shard", "shard",
                           static_cast<std::uint64_t>(shard));
        prog = cache.put(key, compiler.compileShard(part));
    }
    isa::Interpreter interp(rack, vlib, &log);
    cell.play = interp.run(*prog).play;
    return cell;
}

/** Fold the compiler knobs that shape the emitted stream into the
 *  program-cache key with scheduleFingerprint's word fold. */
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

/** Fold one grid cell into its shard's rollup: peaks are maxima,
 *  totals are sums. */
void
accumulateCell(ShardStats &sh, const CellResult &cell)
{
    sh.demand.peakBanks =
        std::max(sh.demand.peakBanks, cell.demand.peakBanks);
    sh.demand.peakChannels =
        std::max(sh.demand.peakChannels, cell.demand.peakChannels);
    sh.demand.peakBandwidthBytesPerSec =
        std::max(sh.demand.peakBandwidthBytesPerSec,
                 cell.demand.peakBandwidthBytesPerSec);
    sh.demand.feasible = sh.demand.feasible && cell.demand.feasible;
    sh.demand.totalSamples += cell.demand.totalSamples;
    sh.demand.totalWordsRead += cell.demand.totalWordsRead;
    sh.demand.missingGates += cell.demand.missingGates;
    sh.demand.bypassSamples += cell.demand.bypassSamples;
    sh.gatesPlayed += cell.play.gates;
    sh.windowsDecoded += cell.play.windows;
    sh.samplesDecoded += cell.play.samples;
    sh.samplesBypassed += cell.play.bypassed;
    sh.prefetchesIssued += cell.prefetchesIssued;
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
 * The batch skeleton: partition every schedule, play the (circuit,
 * shard) grid concurrently (each cell recording into its own event
 * log), then reduce serially in a fixed order — replaying the logs
 * into the rack's waveform-memory model in (circuit, shard) order
 * first — so no rolled-up number, model counters included, depends
 * on worker interleaving.
 */
BatchExecution
runGrid(const Rack &rack, const VersionedLibrary &vlib,
        common::Executor &exec,
        const std::vector<circuits::Schedule> &batch,
        const isa::Compiler &compiler, isa::ProgramCache &programs,
        std::uint64_t cfgHash)
{
    const int n_shards = rack.numShards();
    const auto n_cells =
        batch.size() * static_cast<std::size_t>(n_shards);
    COMPAQT_TRACE_SPAN("batch", "service.batch", "circuits",
                       batch.size(), "cells", n_cells);

    // Partition every circuit up front (cheap, serial, deterministic).
    std::vector<std::uint64_t> unowned(batch.size(), 0);
    std::vector<std::vector<circuits::Schedule>> parts;
    parts.reserve(batch.size());
    for (std::size_t c = 0; c < batch.size(); ++c) {
        parts.push_back(circuits::partitionByOwner(
            batch[c], rack.plan().owner, n_shards));
        std::uint64_t kept = 0;
        for (const auto &part : parts.back())
            kept += part.events.size();
        unowned[c] = batch[c].events.size() - kept;
    }

    std::vector<CellResult> cells(n_cells);
    std::vector<WindowEventLog> logs(n_cells);
    const auto t0 = std::chrono::steady_clock::now();
    exec.forEach(n_cells, [&](std::size_t i) {
        const std::size_t c = i / static_cast<std::size_t>(n_shards);
        const int s = static_cast<int>(
            i % static_cast<std::size_t>(n_shards));
        cells[i] = playShard(rack, vlib, s,
                             parts[c][static_cast<std::size_t>(s)],
                             compiler, programs, cfgHash, logs[i]);
    });
    // Reached only when every cell succeeded: a batch that throws
    // leaves the model exactly as it found it.
    std::vector<std::uint64_t> inserted(n_cells, 0);
    const DecodedCacheStats cache = rack.cache().replay(logs, inserted);
    const auto t1 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n_cells; ++i)
        cells[i].prefetchesIssued = inserted[i];

    // Serial, fixed-order reduction: shard-level peaks are maxima
    // over the batch, totals are sums — independent of how workers
    // interleaved the cells. Each schedule's own rollup folds only
    // its row of the grid, so a job's numbers do not depend on which
    // other jobs shared its batch.
    BatchExecution result;
    result.libraryVersion = vlib.version;
    RackStats &stats = result.total;
    stats.shards.resize(static_cast<std::size_t>(n_shards));
    result.jobs.resize(batch.size());
    for (std::size_t c = 0; c < batch.size(); ++c) {
        RackStats &job = result.jobs[c];
        job.shards.resize(static_cast<std::size_t>(n_shards));
        for (int s = 0; s < n_shards; ++s) {
            const auto &cell =
                cells[c * static_cast<std::size_t>(n_shards) +
                      static_cast<std::size_t>(s)];
            accumulateCell(
                stats.shards[static_cast<std::size_t>(s)], cell);
            accumulateCell(
                job.shards[static_cast<std::size_t>(s)], cell);
        }
        finalizeFleet(job);
        job.unownedEvents = unowned[c];
        stats.unownedEvents += unowned[c];
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
    : rack_(rack), exec_(cfg.workers),
      progCache_(cfg.programCacheEntries)
{
}

BatchExecution
RuntimeService::executeBatchCompiledPerJob(
    const std::vector<circuits::Schedule> &batch,
    const isa::CompilerConfig &cfg)
{
    // Pin one epoch and hand it to both the compiler and the
    // interpreter, so a swap landing between compile and run cannot
    // produce a version-mismatch rejection inside the batch.
    const VersionedLibrary vlib = rack_.currentLibrary();
    // One compiler shared by every cell: it is stateless across
    // compileShard calls, and each worker interprets its own program.
    const isa::Compiler compiler(rack_, vlib, cfg);
    // Sweep artifacts of retired epochs once per batch — they are
    // unreachable (the key carries the version) and only waste slots.
    progCache_.dropStale(vlib.version);
    return runGrid(rack_, vlib, exec_, batch, compiler, progCache_,
                   compilerCfgHash(cfg));
}

} // namespace compaqt::runtime
