/**
 * @file
 * Instruction-stream back end: compile-plane footprint and what
 * PREFETCH buys on QEC syndrome workloads. Sweeps surface-code
 * distance x shard count, lowering each shard's schedule slice to a
 * PLAY/WAIT/PREFETCH program, and reports program size against the
 * per-shard instruction-memory bound, gate-table dedupe, and prefetch
 * emission. The headline numbers are (a) every program fitting its
 * instruction-memory budget and (b) the default program's cold-cache
 * hit rate beating the same program without its PREFETCHes
 * (`{.emitPrefetch = false}`) — PREFETCH hoisting turns first-use
 * misses into hits — while both runs report exactly the deterministic
 * RackStats the schedule-and-library oracle (tests/rack_oracle.hh)
 * predicts.
 *
 * Emits BENCH_istream_compile.json (bench::JsonReport); CI asserts
 * the `programs_within_bound` and `stats_identity` flags.
 *
 * Usage: bench_istream_compile [--tiny]
 *   --tiny  CI smoke mode: smallest sweep that still exercises every
 *           code path and emits the full JSON schema.
 */

#include <cstring>
#include <iostream>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.hh"
#include "circuits/scheduler.hh"
#include "circuits/surface_code.hh"
#include "common/table.hh"
#include "isa/compiler.hh"
#include "rack_oracle.hh"
#include "runtime/rack.hh"
#include "runtime/service.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"

using namespace compaqt;

namespace
{

struct Workload
{
    int distance;
    std::size_t qubits;
    waveform::DeviceModel dev;
    core::CompressedLibrary clib;
    circuits::Schedule syndrome;
};

Workload
makeWorkload(int distance)
{
    // Two syndrome rounds: every stabilizer's gates repeat, so the
    // program gate table's dedupe is visible, as is a realistic
    // prefetch picture (round 2's windows are already warm).
    const auto sc = circuits::makeSurfaceCode(
        distance, circuits::SurfaceLayout::Rotated, 2);
    auto dev = waveform::DeviceModel::synthetic(
        "istream-surface-" + std::to_string(sc.totalQubits()),
        sc.totalQubits(), sc.nativeCoupling().edges());
    const auto lib = waveform::PulseLibrary::build(dev);
    auto clib = bench::buildCompressed(lib, "int-dct", 16);
    return Workload{distance, sc.totalQubits(), std::move(dev),
                    std::move(clib),
                    circuits::schedule(sc.circuit, {})};
}

runtime::RackConfig
rackConfig(const Workload &w, int shards, std::size_t cache_windows)
{
    runtime::RackConfig rc;
    rc.numShards = shards;
    rc.policy = runtime::ShardPolicy::LocalityAware;
    rc.controller.compressed = true;
    rc.controller.windowSize = 16;
    rc.controller.memoryWidth = w.clib.worstCaseWindowWords();
    rc.cacheWindows = cache_windows;
    return rc;
}

/** Whole-program rollup of one compile() across a rack's shards. */
struct CompileRollup
{
    std::size_t maxShardWords = 0;
    std::size_t totalWords = 0;
    std::size_t instructions = 0;
    std::size_t prefetchInstructions = 0;
    std::uint64_t playedEvents = 0;
    std::uint64_t dedupedFetches = 0;
    std::uint64_t skippedNoSlack = 0;
    std::uint64_t droppedBudget = 0;
    bool allFit = true;
};

CompileRollup
rollup(const isa::CompiledSchedule &cs)
{
    CompileRollup r;
    for (const auto &st : cs.stats) {
        r.maxShardWords = std::max(r.maxShardWords, st.memoryWords);
        r.totalWords += st.memoryWords;
        r.instructions += st.instructions;
        r.prefetchInstructions += st.prefetchInstructions;
        r.playedEvents += st.playedEvents;
        r.dedupedFetches += st.dedupedFetches;
        r.skippedNoSlack += st.prefetchSkippedNoSlack;
        r.droppedBudget += st.prefetchDroppedBudget;
        r.allFit = r.allFit && st.fitsMemoryBound;
    }
    return r;
}

/**
 * The bit-identity contract with the oracle: every deterministic
 * RackStats field (per-shard demand and playback tallies, fleet
 * rollups, missingGates, unownedEvents, feasible). Cache counters,
 * wall-clock rates, and prefetchesIssued are excluded by design —
 * prefetching is the point.
 */
bool
identicalStats(const runtime::RackStats &a, const runtime::RackStats &b)
{
    if (a.shards.size() != b.shards.size())
        return false;
    for (std::size_t s = 0; s < a.shards.size(); ++s) {
        const auto &x = a.shards[s];
        const auto &y = b.shards[s];
        if (x.demand.peakBanks != y.demand.peakBanks ||
            x.demand.peakChannels != y.demand.peakChannels ||
            x.demand.feasible != y.demand.feasible ||
            x.demand.totalSamples != y.demand.totalSamples ||
            x.demand.bypassSamples != y.demand.bypassSamples ||
            x.demand.totalWordsRead != y.demand.totalWordsRead ||
            x.demand.peakBandwidthBytesPerSec !=
                y.demand.peakBandwidthBytesPerSec ||
            x.demand.missingGates != y.demand.missingGates ||
            x.gatesPlayed != y.gatesPlayed ||
            x.windowsDecoded != y.windowsDecoded ||
            x.samplesDecoded != y.samplesDecoded ||
            x.samplesBypassed != y.samplesBypassed)
            return false;
    }
    return a.fleetPeakBanks == b.fleetPeakBanks &&
           a.fleetPeakChannels == b.fleetPeakChannels &&
           a.fleetPeakBandwidthBytesPerSec ==
               b.fleetPeakBandwidthBytesPerSec &&
           a.feasible == b.feasible &&
           a.totalGates == b.totalGates &&
           a.totalWindows == b.totalWindows &&
           a.totalSamples == b.totalSamples &&
           a.totalBypassSamples == b.totalBypassSamples &&
           a.missingGates == b.missingGates &&
           a.unownedEvents == b.unownedEvents;
}

/** Steady-state throughput under one compiler config (warmup batch,
 *  then best of three — the bench_rack_throughput protocol). */
double
steadyGatesPerSec(const Workload &w, int shards, int workers,
                  const isa::CompilerConfig &cfg)
{
    const runtime::Rack rack(w.dev, w.clib,
                             rackConfig(w, shards, 1u << 15));
    runtime::RuntimeService svc(rack, {.workers = workers});
    const std::vector<circuits::Schedule> batch(4, w.syndrome);
    auto run = [&] { return svc.executeBatchCompiledPerJob(batch, cfg); };
    run();
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep)
        best = std::max(best, run().total.gatesPerSec);
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool tiny =
        argc > 1 && std::strcmp(argv[1], "--tiny") == 0;

    bench::JsonReport report("istream_compile");

    const std::vector<int> distances = tiny ? std::vector<int>{3}
                                            : std::vector<int>{3, 5};
    const std::vector<int> shard_counts =
        tiny ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
    const int workers = tiny ? 2 : 4;
    report.setWorkers(workers);

    const isa::CompilerConfig ccfg;
    const isa::CompilerConfig no_prefetch{.emitPrefetch = false};

    // ---------------------------------------------- compile plane
    Table ct("instruction-stream compile: qubits x shards"
             " (per-shard PLAY/WAIT/PREFETCH programs)");
    ct.header({"qubits", "shards", "instr", "prefetch", "max words",
               "bound", "fits", "events", "deduped", "no-slack",
               "no-budget"});

    std::size_t max_shard_words = 0;
    bool all_within_bound = true;
    double dedupe_ratio = 0.0;
    std::size_t prefetch_instructions = 0;
    for (const int d : distances) {
        const auto w = makeWorkload(d);
        for (const int shards : shard_counts) {
            const runtime::Rack rack(
                w.dev, w.clib, rackConfig(w, shards, 1u << 15));
            const isa::Compiler comp(rack, ccfg);
            const auto cs = comp.compile(w.syndrome);
            const auto r = rollup(cs);
            ct.row({std::to_string(w.qubits),
                    std::to_string(shards),
                    std::to_string(r.instructions),
                    std::to_string(r.prefetchInstructions),
                    std::to_string(r.maxShardWords),
                    std::to_string(ccfg.instructionMemoryWords),
                    r.allFit ? "yes" : "NO",
                    std::to_string(r.playedEvents),
                    std::to_string(r.dedupedFetches),
                    std::to_string(r.skippedNoSlack),
                    std::to_string(r.droppedBudget)});
            max_shard_words =
                std::max(max_shard_words, r.maxShardWords);
            all_within_bound = all_within_bound && r.allFit;
            prefetch_instructions += r.prefetchInstructions;
            if (r.playedEvents > 0)
                dedupe_ratio = std::max(
                    dedupe_ratio,
                    static_cast<double>(r.dedupedFetches) /
                        static_cast<double>(r.playedEvents));
        }
    }
    report.print(ct);

    // ------------------------------- cold-cache execution comparison
    // Fresh racks for both runs: without PREFETCH every first-use
    // window is a demand miss; the default stream warms those windows
    // ahead of playback. Deterministic stats must match the oracle
    // on both runs while the hit rate climbs.
    Table et("prefetch vs no prefetch, cold waveform-memory model"
             " (largest patch)");
    et.header({"program", "gates", "hit rate", "hits", "misses",
               "prefetch", "pf hits", "pf wasted", "= oracle"});

    const auto w = makeWorkload(distances.back());
    const int cmp_shards = shard_counts.back();
    const std::vector<circuits::Schedule> pair = {w.syndrome,
                                                  w.syndrome};

    const runtime::Rack brack(w.dev, w.clib,
                              rackConfig(w, cmp_shards, 1u << 15));
    runtime::RuntimeService bsvc(brack, {.workers = workers});
    const auto bare =
        bsvc.executeBatchCompiledPerJob(pair, no_prefetch).total;

    const runtime::Rack crack(w.dev, w.clib,
                              rackConfig(w, cmp_shards, 1u << 15));
    runtime::RuntimeService csvc(crack, {.workers = workers});
    const auto compiled = csvc.executeBatchCompiledPerJob(pair, ccfg).total;

    const auto expected = oracle::rackStats(crack, pair);
    const bool bare_ok = identicalStats(expected, bare);
    const bool compiled_ok = identicalStats(expected, compiled);
    const bool identical = bare_ok && compiled_ok;
    for (const auto &[name, st, ok] :
         {std::tuple{"no prefetch", &bare, bare_ok},
          std::tuple{"prefetch", &compiled, compiled_ok}})
        et.row({name, std::to_string(st->totalGates),
                Table::num(st->cacheHitRate, 3),
                std::to_string(st->cache.hits),
                std::to_string(st->cache.misses),
                std::to_string(st->cache.prefetches),
                std::to_string(st->cache.prefetchHits),
                std::to_string(st->cache.prefetchWasted),
                ok ? "yes" : "NO"});
    report.print(et);

    const double hit_gain = compiled.cacheHitRate - bare.cacheHitRate;
    std::cout << "\nboth runs match the oracle: "
              << (identical ? "yes" : "NO")
              << "\ncold-cache hit rate: no prefetch "
              << Table::num(bare.cacheHitRate, 3) << " -> prefetch "
              << Table::num(compiled.cacheHitRate, 3) << " (+"
              << Table::num(hit_gain, 3) << ")\n";

    // ------------------------------------------ steady-state gates/s
    const double bare_gps =
        steadyGatesPerSec(w, cmp_shards, workers, no_prefetch);
    const double compiled_gps =
        steadyGatesPerSec(w, cmp_shards, workers, ccfg);
    const double ratio = bare_gps > 0.0 ? compiled_gps / bare_gps : 0.0;
    std::cout << "steady-state gates/s: no prefetch "
              << Table::num(bare_gps, 0) << ", prefetch "
              << Table::num(compiled_gps, 0) << " ("
              << Table::num(ratio, 2) << "x)\n";

    // CI-asserted flags first, then the trajectory series.
    report.metric("programs_within_bound", all_within_bound ? 1 : 0);
    report.metric("stats_identity", identical ? 1 : 0);
    report.metric("program_words_max_shard",
                  static_cast<double>(max_shard_words));
    report.metric("instruction_memory_bound",
                  static_cast<double>(ccfg.instructionMemoryWords));
    report.metric("dedupe_ratio", dedupe_ratio);
    report.metric("prefetch_instructions",
                  static_cast<double>(prefetch_instructions));
    report.metric("no_prefetch_hit_rate", bare.cacheHitRate);
    report.metric("compiled_hit_rate", compiled.cacheHitRate);
    report.metric("cold_hit_rate_gain", hit_gain);
    report.metric("prefetches",
                  static_cast<double>(compiled.cache.prefetches));
    report.metric("prefetch_hits",
                  static_cast<double>(compiled.cache.prefetchHits));
    report.metric("prefetch_wasted",
                  static_cast<double>(compiled.cache.prefetchWasted));
    report.metric("prefetches_issued",
                  static_cast<double>(compiled.prefetchesIssued));
    report.metric("no_prefetch_gates_per_sec", bare_gps);
    report.metric("compiled_gates_per_sec", compiled_gps);
    report.metric("prefetch_gates_ratio", ratio);
    return 0;
}
