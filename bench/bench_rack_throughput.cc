/**
 * @file
 * Rack-runtime throughput: sweep qubit count (surface-code distance)
 * x shard count x modeled waveform-memory size, executing
 * syndrome-cycle batches on the sharded control-rack runtime, and
 * report wall-clock gates/s and samples/s plus the memory model's
 * counters. Playback decodes every window whatever the model says, so
 * the headline cached/uncached gates-per-second ratio measures what
 * running the model costs a rack replaying hot QEC pulses (1.0 =
 * free): the median of per-pair ratios over alternating
 * modeled/unmodeled batches at the sweep's largest point.
 *
 * Emits BENCH_rack_throughput.json (bench::JsonReport) so the runtime
 * performance trajectory is tracked across PRs.
 *
 * Usage: bench_rack_throughput [--tiny]
 *   --tiny  CI smoke mode: smallest sweep that still exercises every
 *           code path and emits the full JSON schema.
 */

#include <algorithm>
#include <cstring>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "circuits/scheduler.hh"
#include "circuits/surface_code.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "isa/compiler.hh"
#include "power/system.hh"
#include "runtime/rack.hh"
#include "runtime/service.hh"
#include "telemetry/metrics.hh"
#include "uarch/controller.hh"
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
    std::shared_ptr<const core::CompressedLibrary> clib;
    std::vector<circuits::Schedule> batch;
};

Workload
makeWorkload(int distance, int batch_size)
{
    const auto sc = circuits::makeSurfaceCode(
        distance, circuits::SurfaceLayout::Rotated, 1);
    auto dev = waveform::DeviceModel::synthetic(
        "rack-surface-" + std::to_string(sc.totalQubits()),
        sc.totalQubits(), sc.nativeCoupling().edges());
    const auto lib = waveform::PulseLibrary::build(dev);
    auto clib = std::make_shared<const core::CompressedLibrary>(
        bench::buildCompressed(lib, "int-dct", 16));
    const auto sched = circuits::schedule(sc.circuit, {});
    return Workload{
        distance, sc.totalQubits(), std::move(dev), std::move(clib),
        std::vector<circuits::Schedule>(
            static_cast<std::size_t>(batch_size), sched)};
}

runtime::RackConfig
rackConfig(const Workload &w, int shards, std::size_t cache_windows)
{
    runtime::RackConfig rc;
    rc.numShards = shards;
    rc.policy = runtime::ShardPolicy::LocalityAware;
    rc.controller.compressed = true;
    rc.controller.windowSize = 16;
    rc.controller.memoryWidth = w.clib->worstCaseWindowWords();
    rc.cacheWindows = cache_windows;
    return rc;
}

/** Steady-state run: one warmup batch to fill the model, then the
 *  best of three measured batches (sub-millisecond intervals are at
 *  the mercy of the OS scheduler; best-of-N reports the machine's
 *  capability, not its stalls). */
runtime::RackStats
run(const Workload &w, int shards, std::size_t cache_windows,
    int workers)
{
    const runtime::Rack rack(w.dev, w.clib,
                             rackConfig(w, shards, cache_windows));
    runtime::RuntimeService svc(rack, {.workers = workers});
    svc.executeBatchCompiledPerJob(w.batch);
    auto best = svc.executeBatchCompiledPerJob(w.batch).total;
    for (int rep = 1; rep < 3; ++rep) {
        auto stats = svc.executeBatchCompiledPerJob(w.batch).total;
        if (stats.gatesPerSec > best.gatesPerSec)
            best = stats;
    }
    return best;
}

/** PREFETCH windows one run of `batch` on `rack` replays: every
 *  PREFETCH op names one window. */
std::uint64_t
prefetchWindows(const runtime::Rack &rack,
                const std::vector<circuits::Schedule> &batch)
{
    const isa::Compiler compiler(rack);
    std::uint64_t windows = 0;
    for (const auto &s : batch)
        for (const auto &ps : compiler.compile(s).stats)
            windows += ps.prefetchInstructions;
    return windows;
}

/** The model replay's splices per window it applied (demand and
 *  PREFETCH windows), over batches that made `splices` splices and
 *  counted `cache`. */
double
splicesPerWindow(std::uint64_t splices,
                 const runtime::DecodedCacheStats &cache,
                 std::uint64_t prefetch_windows)
{
    const std::uint64_t windows =
        cache.hits + cache.misses + prefetch_windows;
    return windows == 0 ? 0.0
                        : static_cast<double>(splices) /
                              static_cast<double>(windows);
}

/** The registry counter the model's replay adds its splices to. */
telemetry::Counter &
spliceCounter()
{
    return telemetry::Registry::global().counter("cache.replay.splices");
}

/** What the model costs, measured in pairs: per-pair ratios of
 *  modeled over unmodeled gates/s, and each side's gates/s; and the
 *  modeled side's splices per replayed window. */
struct PairedSpeedup
{
    std::vector<double> ratios, modeled, unmodeled;
    double splicesPerWindow = 0.0;
};

/** `pairs` alternating batches on two warmed racks that differ only
 *  in the model (the side that runs first alternates too). A pair's
 *  two batches see the same host period, so the per-pair ratio is
 *  far steadier than a ratio of independent best-ofs. */
PairedSpeedup
pairedSpeedup(const Workload &w, int shards, std::size_t cache_windows,
              int workers, int pairs)
{
    const runtime::Rack bare(w.dev, w.clib, rackConfig(w, shards, 0));
    const runtime::Rack modeled(w.dev, w.clib,
                                rackConfig(w, shards, cache_windows));
    runtime::RuntimeService off(bare, {.workers = workers});
    runtime::RuntimeService on(modeled, {.workers = workers});
    const auto gatesPerSec = [&w](runtime::RuntimeService &svc) {
        return svc.executeBatchCompiledPerJob(w.batch).total.gatesPerSec;
    };
    gatesPerSec(off);
    gatesPerSec(on);
    PairedSpeedup p;
    const auto cache_before = modeled.cache().stats();
    const std::uint64_t splices = spliceCounter().value();
    for (int i = 0; i < pairs; ++i) {
        double g_off = 0.0, g_on = 0.0;
        if (i % 2 == 0) {
            g_off = gatesPerSec(off);
            g_on = gatesPerSec(on);
        } else {
            g_on = gatesPerSec(on);
            g_off = gatesPerSec(off);
        }
        p.ratios.push_back(g_off > 0.0 ? g_on / g_off : 0.0);
        p.modeled.push_back(g_on);
        p.unmodeled.push_back(g_off);
    }
    p.splicesPerWindow = splicesPerWindow(
        spliceCounter().value() - splices,
        runtime::DecodedCacheStats::delta(cache_before,
                                          modeled.cache().stats()),
        prefetchWindows(modeled, w.batch) *
            static_cast<std::uint64_t>(pairs));
    return p;
}

// ---------------------------------------------------------------
// Hierarchical-memory sweep: a skewed multi-tenant mix (hot QEC
// patch replayed every batch + a churning scan tenant whose one-shot
// pulses exceed the total budget) across tier splits and admission
// policies at EQUAL total window budget. Every window counts ws
// samples, so an equal window budget is an equal sample budget. The
// claim under test: an admission-controlled two-tier model beats the
// single-tier admit-always LRU on hit rate, because one-shot churn
// stops flushing the hot set. Gates/s is reported but not compared:
// playback decodes either way, so it does not depend on the policy.
// ---------------------------------------------------------------

/** Unique decoded windows the gates of a schedule occupy. */
std::size_t
uniqueWindows(const core::CompressedLibrary &clib,
              const circuits::Schedule &s)
{
    std::set<waveform::GateId> gates;
    for (const auto &e : s.events)
        if (const auto id = uarch::gateIdFor(e.gate))
            gates.insert(*id);
    std::size_t windows = 0;
    for (const auto &id : gates)
        if (const auto *e = clib.find(id))
            windows += e->cw.i.windows.size() + e->cw.q.windows.size();
    return windows;
}

struct SkewWorkload
{
    waveform::DeviceModel dev;
    std::shared_ptr<const core::CompressedLibrary> clib;
    std::vector<circuits::Schedule> batch;
    /** Unique windows of the hot QEC tenant / the churn tenant. */
    std::size_t hotWindows = 0;
    std::size_t churnWindows = 0;
    double avgWordsPerWindow = 1.0;
};

/**
 * Hot tenant: one d=3 syndrome cycle replayed `hot_replays` times per
 * batch. Churn tenant: X/SX/Measure scans over `churn_factor` x as
 * many fresh qubits, split into two circuits — every churn pulse is
 * touched once per batch, so its reuse distance is the whole batch
 * footprint (cyclic access, LRU's worst case).
 */
SkewWorkload
makeSkewedWorkload(int hot_replays, int churn_factor)
{
    const auto sc = circuits::makeSurfaceCode(
        3, circuits::SurfaceLayout::Rotated, 1);
    const int hot_q = sc.totalQubits();
    const int churn_q = hot_q * churn_factor;
    auto dev = waveform::DeviceModel::synthetic(
        "rack-skew-" + std::to_string(hot_q + churn_q),
        static_cast<std::size_t>(hot_q + churn_q),
        sc.nativeCoupling().edges());
    const auto lib = waveform::PulseLibrary::build(dev);
    // Wider windows than the headline sweep: a skewed-workload miss
    // should cost a real decode (32-point IDCT), the way a slow-path
    // fetch costs real cycles on the ASIC.
    auto clib = std::make_shared<const core::CompressedLibrary>(
        bench::buildCompressed(lib, "int-dct", 32));

    const auto hot = circuits::schedule(sc.circuit, {});
    std::vector<circuits::Schedule> churn_parts;
    const std::size_t n_qubits = dev.numQubits();
    const int n_parts = std::max(hot_replays, 1);
    for (int part = 0; part < n_parts; ++part) {
        circuits::Circuit c(n_qubits, "churn-" + std::to_string(part));
        for (int q = hot_q + part; q < hot_q + churn_q; q += n_parts) {
            c.x(q);
            c.sx(q);
            c.measure(q);
        }
        churn_parts.push_back(circuits::schedule(c, {}));
    }

    SkewWorkload w{std::move(dev), std::move(clib), {}, 0, 0, 1.0};
    w.hotWindows = uniqueWindows(*w.clib, hot);
    for (const auto &part : churn_parts)
        w.churnWindows += uniqueWindows(*w.clib, part);
    {
        std::size_t words = 0, windows = 0;
        for (const auto &[id, e] : w.clib->entries())
            for (const auto *ch : {&e.cw.i, &e.cw.q}) {
                words += ch->totalWords();
                windows += ch->windows.size();
            }
        if (windows > 0)
            w.avgWordsPerWindow = static_cast<double>(words) /
                                  static_cast<double>(windows);
    }
    // Interleave tenants the way a shared rack sees them: a churn
    // slice follows every hot replay, and churn closes the batch, so
    // by the next batch's hot replay the churn tenant has cycled the
    // full budget through a recency-only cache.
    for (int r = 0; r < hot_replays; ++r) {
        w.batch.push_back(hot);
        w.batch.push_back(churn_parts[static_cast<std::size_t>(r)]);
    }
    return w;
}

struct SkewConfig
{
    const char *name;
    std::size_t tier0 = 0;
    std::size_t tier1 = 0;
    runtime::AdmissionPolicy admission =
        runtime::AdmissionPolicy::AdmitAlways;
};

struct SkewResult
{
    runtime::RackStats stats;
    power::PowerBreakdown power;
    /** The model replay's splices per replayed window. */
    double splicesPerWindow = 0.0;
};

SkewResult
runSkew(const SkewWorkload &w, const SkewConfig &cfg, int shards,
        int workers, int reps, std::size_t ws)
{
    runtime::RackConfig rc;
    rc.numShards = shards;
    rc.policy = runtime::ShardPolicy::LocalityAware;
    rc.controller.compressed = true;
    rc.controller.windowSize = static_cast<std::uint32_t>(ws);
    rc.controller.memoryWidth = w.clib->worstCaseWindowWords();
    rc.cacheWindows = cfg.tier0;
    rc.cacheSampleBudget = cfg.tier0 * ws;
    rc.tier1Windows = cfg.tier1;
    rc.tier1SampleBudget = cfg.tier1 * ws;
    rc.admission = cfg.admission;
    const runtime::Rack rack(w.dev, w.clib, rc);
    runtime::RuntimeService svc(rack, {.workers = workers});
    svc.executeBatchCompiledPerJob(w.batch); // warm the model
    // Aggregate counters and wall clock over every measured batch:
    // steady-state rates over the whole run, not a lucky interval.
    SkewResult best;
    runtime::DecodedCacheStats cache_sum;
    double wall = 0.0;
    std::uint64_t gates = 0;
    const std::uint64_t splices = spliceCounter().value();
    for (int rep = 0; rep < reps; ++rep) {
        best.stats = svc.executeBatchCompiledPerJob(w.batch).total;
        wall += best.stats.wallSeconds;
        gates += best.stats.totalGates;
        cache_sum.accumulate(best.stats.cache);
    }
    best.splicesPerWindow = splicesPerWindow(
        spliceCounter().value() - splices, cache_sum,
        prefetchWindows(rack, w.batch) * static_cast<std::uint64_t>(reps));
    best.stats.cache = cache_sum;
    best.stats.cacheHitRate = cache_sum.hitRate();
    best.stats.wallSeconds = wall;
    best.stats.gatesPerSec =
        wall > 0.0 ? static_cast<double>(gates) / wall : 0.0;

    // Model the control path's power with each tier's macro serving
    // its measured share of window fetches (decoded-sample streaming
    // at 2 bytes/sample), the residual misses paying the compressed
    // fetch + IDCT path.
    const auto &c = best.stats.cache;
    const double demand =
        static_cast<double>(c.hits + c.misses);
    power::SystemParams p;
    std::vector<double> fractions;
    p.tiers.push_back({static_cast<double>(cfg.tier0) *
                           static_cast<double>(ws) * 2.0,
                       {}});
    fractions.push_back(
        demand > 0.0 ? static_cast<double>(c.tier[0].hits) / demand
                     : 0.0);
    if (cfg.tier1 > 0) {
        p.tiers.push_back({static_cast<double>(cfg.tier1) *
                               static_cast<double>(ws) * 2.0,
                           {}});
        fractions.push_back(
            demand > 0.0
                ? static_cast<double>(c.tier[1].hits) / demand
                : 0.0);
    }
    best.power =
        power::hierarchicalPower(ws, w.avgWordsPerWindow, fractions, p);
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool tiny =
        argc > 1 && std::strcmp(argv[1], "--tiny") == 0;

    bench::JsonReport report("rack_throughput");

    const std::vector<int> distances = tiny ? std::vector<int>{3}
                                            : std::vector<int>{3, 5};
    const std::vector<int> shard_counts =
        tiny ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
    // 0 = no model; the large size holds a full QEC working set, the
    // small one demonstrates LRU pressure.
    const std::vector<std::size_t> cache_sizes =
        tiny ? std::vector<std::size_t>{0, 1u << 15}
             : std::vector<std::size_t>{0, 4096, 1u << 15};
    const int batch_size = tiny ? 2 : 4;
    const int workers = tiny ? 2 : 4;
    // Modeled/unmodeled batch pairs behind the speedup median.
    constexpr int kSpeedupPairs = 11;
    report.setWorkers(workers);

    Table t("rack throughput: qubits x shards x cache"
            " (locality-aware sharding, steady state)");
    t.header({"qubits", "shards", "model(win)", "gates/s",
              "Msamples/s", "hit rate", "hits", "misses", "evict",
              "fleet banks", "feasible"});

    double cached_samples_per_sec = 0.0, cached_hit_rate = 0.0;
    runtime::DecodedCacheStats cached_counters;
    PairedSpeedup paired;
    for (const int d : distances) {
        const auto w = makeWorkload(d, batch_size);
        for (const int shards : shard_counts) {
            for (const std::size_t cache : cache_sizes) {
                const auto stats = run(w, shards, cache, workers);
                t.row({std::to_string(w.qubits),
                       std::to_string(shards),
                       std::to_string(cache),
                       Table::num(stats.gatesPerSec, 0),
                       Table::num(stats.samplesPerSec / 1e6, 2),
                       Table::num(stats.cacheHitRate, 3),
                       std::to_string(stats.cache.hits),
                       std::to_string(stats.cache.misses),
                       std::to_string(stats.cache.evictions),
                       std::to_string(stats.fleetPeakBanks),
                       stats.feasible ? "yes" : "NO"});
                // Reference point for the speedup ratio: the largest
                // patch at the widest shard sweep value, against the
                // largest model (the whole working set resident).
                if (d == distances.back() &&
                    shards == shard_counts.back() &&
                    cache == cache_sizes.back()) {
                    cached_samples_per_sec = stats.samplesPerSec;
                    cached_hit_rate = stats.cacheHitRate;
                    cached_counters = stats.cache;
                    paired = pairedSpeedup(w, shards, cache, workers,
                                           kSpeedupPairs);
                }
            }
        }
    }
    report.print(t);

    const auto ratio = percentiles(paired.ratios);
    const double speedup = ratio.p50;
    const double ratio_q1 = percentile(paired.ratios, 25.0);
    const double ratio_q3 = percentile(paired.ratios, 75.0);
    std::cout << "\nmodeled vs unmodeled rack (gates/s, median of "
              << kSpeedupPairs
              << " alternating batch pairs; 1.0 = the model is free): "
              << Table::num(speedup, 2) << "x (quartiles "
              << Table::num(ratio_q1, 2) << "-" << Table::num(ratio_q3, 2)
              << ", range " << Table::num(ratio.min, 2) << "-"
              << Table::num(ratio.max, 2) << ")\n";
    report.setEnv("cache_speedup_pairs", kSpeedupPairs);
    // The replay moves each run of tier-0 windows still linked in its
    // last play's order in one splice: fewer splices per window, a
    // cheaper replay.
    std::cout << "model replay: "
              << Table::num(paired.splicesPerWindow, 3)
              << " splices per replayed window\n";
    report.setEnv("replay_splices_per_window", paired.splicesPerWindow);
    report.metric("cache_speedup_gates_per_sec", speedup);
    report.metric("cache_speedup_q1", ratio_q1);
    report.metric("cache_speedup_q3", ratio_q3);
    report.metric("uncached_gates_per_sec",
                  percentile(paired.unmodeled, 50.0));
    report.metric("cached_gates_per_sec",
                  percentile(paired.modeled, 50.0));
    report.metric("cached_samples_per_sec", cached_samples_per_sec);
    report.metric("cached_hit_rate", cached_hit_rate);
    // Per-batch model counters of the reference configuration,
    // tracked alongside throughput.
    report.metric("cached_hits",
                  static_cast<double>(cached_counters.hits));
    report.metric("cached_misses",
                  static_cast<double>(cached_counters.misses));
    report.metric("cached_evictions",
                  static_cast<double>(cached_counters.evictions));
    report.metric("cached_resident_windows",
                  static_cast<double>(cached_counters.entries));
    // Prefetch counters of the same batches (the compiler's default
    // PREFETCH stream; BENCH_istream_compile.json compares it with
    // the same programs without it).
    report.metric("cached_prefetches",
                  static_cast<double>(cached_counters.prefetches));
    report.metric("cached_prefetch_hits",
                  static_cast<double>(cached_counters.prefetchHits));
    report.metric("cached_prefetch_wasted",
                  static_cast<double>(cached_counters.prefetchWasted));

    // ---- Hierarchical-store sweep (skewed multi-tenant mix) ----
    const std::size_t ws = 32;
    // Churn footprint ~2.3x the total budget: enough to fully cycle
    // a recency-only cache between hot replays without drowning the
    // hot tenant's share of the demand stream.
    const auto sw = makeSkewedWorkload(/*hot_replays=*/3,
                                       /*churn_factor=*/8);
    // Tier 0 holds the hot QEC set with a little slack; the total
    // budget is identical for every configuration and well below the
    // churn tenant's footprint.
    const std::size_t t0 = sw.hotWindows + sw.hotWindows / 8;
    const std::size_t t1 = t0;
    const std::vector<SkewConfig> configs = {
        {"flat_lru", t0 + t1, 0, runtime::AdmissionPolicy::AdmitAlways},
        {"tiered_admit_always", t0, t1,
         runtime::AdmissionPolicy::AdmitAlways},
        {"tiered_tinylfu", t0, t1, runtime::AdmissionPolicy::TinyLfu},
    };
    std::cout << "\nskewed workload: hot windows=" << sw.hotWindows
              << " churn windows=" << sw.churnWindows
              << " total budget=" << t0 + t1 << " (tier0=" << t0
              << ", tier1=" << t1 << ")\n";

    Table st("hierarchical memory model: admission policy x tier split"
             " (skewed multi-tenant mix, equal total budget)");
    st.header({"config", "gates/s", "hit rate", "t0 hit", "t1 hit",
               "promote", "demote", "rejected", "penalty cyc",
               "power(mW)"});
    SkewResult flat;
    const SkewResult *best = nullptr;
    std::string best_name;
    std::vector<SkewResult> results;
    results.reserve(configs.size());
    for (const auto &cfg : configs) {
        // One worker keeps the wall clock quiet; the model counters
        // are identical at any worker count (the grid replays cells
        // in (circuit, shard) order).
        results.push_back(runSkew(sw, cfg, /*shards=*/2,
                                  /*workers=*/1,
                                  /*reps=*/tiny ? 3 : 6, ws));
        const auto &r = results.back();
        const auto &c = r.stats.cache;
        const double demand =
            static_cast<double>(c.hits + c.misses);
        st.row({cfg.name, Table::num(r.stats.gatesPerSec, 0),
                Table::num(c.hitRate(), 3),
                Table::num(demand > 0.0
                               ? static_cast<double>(c.tier[0].hits) /
                                     demand
                               : 0.0,
                           3),
                Table::num(demand > 0.0
                               ? static_cast<double>(c.tier[1].hits) /
                                     demand
                               : 0.0,
                           3),
                std::to_string(c.promotions),
                std::to_string(c.demotions),
                std::to_string(c.tier[0].admitRejected +
                               c.tier[1].admitRejected),
                std::to_string(c.penaltyCycles),
                Table::num(r.power.total() * 1e3, 3)});
        const std::string name = cfg.name;
        report.metric("skew_" + name + "_hit_rate", c.hitRate());
        report.metric("skew_" + name + "_gates_per_sec",
                      r.stats.gatesPerSec);
        report.metric("skew_" + name + "_power_mw",
                      r.power.total() * 1e3);
        report.metric("skew_" + name + "_penalty_cycles",
                      static_cast<double>(c.penaltyCycles));
        if (name == "flat_lru") {
            flat = r;
        } else if (!best || c.hitRate() > best->stats.cache.hitRate()) {
            best = &results.back();
            best_name = name;
        }
    }
    report.print(st);

    const double flat_hit = flat.stats.cache.hitRate();
    const double best_hit = best ? best->stats.cache.hitRate() : 0.0;
    const double gates_ratio =
        best && flat.stats.gatesPerSec > 0.0
            ? best->stats.gatesPerSec / flat.stats.gatesPerSec
            : 0.0;
    std::cout << "\nbest admission policy (" << best_name
              << ") vs single-tier LRU: hit rate "
              << Table::num(flat_hit, 3) << " -> "
              << Table::num(best_hit, 3) << ", gates/s ratio "
              << Table::num(gates_ratio, 2) << "x\n";
    report.metric("skew_best_hit_rate", best_hit);
    report.metric("skew_best_gates_ratio", gates_ratio);
    report.metric("skew_best_beats_lru", best_hit > flat_hit ? 1.0 : 0.0);
    report.setEnv("skew_best_policy", best_name);
    report.setEnv("skew_tier0_windows",
                  static_cast<std::int64_t>(t0));
    report.setEnv("skew_tier1_windows",
                  static_cast<std::int64_t>(t1));
    if (best) {
        const auto &c = best->stats.cache;
        for (int tier = 0; tier < 2; ++tier) {
            const auto &tc = c.tier[static_cast<std::size_t>(tier)];
            const std::string pre =
                "skew_tier" + std::to_string(tier) + "_";
            report.setEnv(pre + "hits",
                          static_cast<std::int64_t>(tc.hits));
            report.setEnv(pre + "misses",
                          static_cast<std::int64_t>(tc.misses));
            report.setEnv(
                pre + "admit_rejected",
                static_cast<std::int64_t>(tc.admitRejected));
        }
        report.setEnv("skew_promotions",
                      static_cast<std::int64_t>(c.promotions));
        report.setEnv("skew_demotions",
                      static_cast<std::int64_t>(c.demotions));
        report.setEnv("skew_replay_splices_per_window",
                      best->splicesPerWindow);
    }
    return 0;
}
