/**
 * @file
 * Tests for the sharded control-rack runtime: shard-plan determinism
 * and locality, schedule partitioning, the keys-only waveform-memory
 * model (LRU order, tiers, admission, prefetch accounting), the worker
 * pool, and the headline concurrency contract — N-worker batch
 * execution produces bit-identical per-shard demand and model counters
 * to 1-worker execution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <list>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "circuits/scheduler.hh"
#include "circuits/surface_code.hh"
#include "core/decompressor.hh"
#include "core/pipeline.hh"
#include "dsp/int_dct.hh"
#include "common/executor.hh"
#include "common/rng.hh"
#include "runtime/playback.hh"
#include "runtime/rack.hh"
#include "runtime/service.hh"
#include "runtime/tiered_store.hh"
#include "telemetry/metrics.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"

namespace compaqt::runtime
{
namespace
{

core::CompressedLibrary
buildCompressed(const waveform::PulseLibrary &lib, std::size_t ws = 16)
{
    return core::CompressionPipeline::with("int-dct")
        .window(ws)
        .mseTarget(1e-5)
        .build()
        .compressLibrary(lib);
}

uarch::ControllerConfig
controllerConfig(const core::CompressedLibrary &clib)
{
    uarch::ControllerConfig cc;
    cc.compressed = true;
    cc.windowSize = 16;
    cc.memoryWidth = clib.worstCaseWindowWords();
    return cc;
}

// ----------------------------------------------------------- shard plans

TEST(ShardPlan, RoundRobinAssignment)
{
    const auto dev = waveform::DeviceModel::ibm("guadalupe");
    const auto plan =
        makeShardPlan(dev, 4, ShardPolicy::RoundRobin);
    ASSERT_EQ(plan.owner.size(), 16u);
    for (std::size_t q = 0; q < plan.owner.size(); ++q)
        EXPECT_EQ(plan.owner[q], static_cast<int>(q) % 4);
    for (const auto &qs : plan.shards)
        EXPECT_EQ(qs.size(), 4u);
}

TEST(ShardPlan, PlansAreDeterministic)
{
    const auto dev = waveform::DeviceModel::ibm("guadalupe");
    for (const auto policy :
         {ShardPolicy::RoundRobin, ShardPolicy::LocalityAware}) {
        const auto a = makeShardPlan(dev, 3, policy);
        const auto b = makeShardPlan(dev, 3, policy);
        EXPECT_EQ(a.owner, b.owner) << shardPolicyName(policy);
        EXPECT_EQ(a.shards, b.shards) << shardPolicyName(policy);
    }
}

TEST(ShardPlan, LocalityCoversAndBalances)
{
    const auto dev = waveform::DeviceModel::ibm("toronto"); // 27 q
    const auto plan =
        makeShardPlan(dev, 4, ShardPolicy::LocalityAware);
    std::set<int> seen;
    std::size_t total = 0;
    for (const auto &qs : plan.shards) {
        // 27 over 4: blocks of 7/7/7/6.
        EXPECT_GE(qs.size(), 6u);
        EXPECT_LE(qs.size(), 7u);
        total += qs.size();
        seen.insert(qs.begin(), qs.end());
        for (int q : qs)
            EXPECT_EQ(plan.owner[static_cast<std::size_t>(q)],
                      plan.owner[static_cast<std::size_t>(qs[0])]);
    }
    EXPECT_EQ(total, 27u);
    EXPECT_EQ(seen.size(), 27u);
}

TEST(ShardPlan, LocalityKeepsMoreCouplingsLocal)
{
    const auto dev = waveform::DeviceModel::ibm("brooklyn"); // 65 q
    const auto local =
        makeShardPlan(dev, 4, ShardPolicy::LocalityAware);
    const auto rr = makeShardPlan(dev, 4, ShardPolicy::RoundRobin);
    auto intra = [&](const ShardPlan &p) {
        int n = 0;
        for (const auto &[a, b] : dev.coupling())
            if (p.owner[static_cast<std::size_t>(a)] ==
                p.owner[static_cast<std::size_t>(b)])
                ++n;
        return n;
    };
    EXPECT_GT(intra(local), intra(rr));
}

TEST(ShardPlan, RejectsZeroShards)
{
    const auto dev = waveform::DeviceModel::ibm("bogota");
    EXPECT_THROW(makeShardPlan(dev, 0, ShardPolicy::RoundRobin),
                 std::invalid_argument);
}

// ---------------------------------------------------------- partitioning

TEST(Partition, SplitsByFirstQubitOwner)
{
    circuits::Circuit c(4);
    c.x(0);
    c.cx(1, 2); // owned by qubit 1's shard
    c.x(3);
    c.measureAll();
    const auto sched = circuits::schedule(c, {});
    const std::vector<int> owner = {0, 0, 1, 1};
    const auto parts = circuits::partitionByOwner(sched, owner, 2);
    ASSERT_EQ(parts.size(), 2u);
    std::size_t total = 0;
    for (std::size_t p = 0; p < parts.size(); ++p) {
        for (const auto &e : parts[p].events) {
            EXPECT_EQ(owner[static_cast<std::size_t>(
                          e.gate.qubits[0])],
                      static_cast<int>(p));
            EXPECT_LE(e.start + e.duration, parts[p].makespan);
        }
        total += parts[p].events.size();
    }
    EXPECT_EQ(total, sched.events.size());
    // The CX on (1, 2) crosses the cut and lands on qubit 1's shard.
    EXPECT_EQ(parts[0].events.size(), 4u); // X0, CX(1,2), M0, M1
    EXPECT_EQ(parts[1].events.size(), 3u); // X3, M2, M3
}

TEST(Partition, PreservesGlobalStartTimes)
{
    const auto sc = circuits::surface17();
    const auto sched = circuits::schedule(sc.circuit, {});
    std::vector<int> owner(sc.totalQubits());
    for (std::size_t q = 0; q < owner.size(); ++q)
        owner[q] = static_cast<int>(q) % 3;
    const auto parts = circuits::partitionByOwner(sched, owner, 3);
    for (const auto &part : parts) {
        for (const auto &e : part.events)
            EXPECT_LE(e.start + e.duration, sched.makespan);
        EXPECT_LE(part.makespan, sched.makespan);
    }
}

// ------------------------------------------------- waveform-memory model

/** A demand PLAY of windows [first, first + count) of qubit q's X
 *  pulse: 32 I-channel then 32 Q-channel windows of `ws` samples. */
WindowEvent
play(int q, std::uint32_t first, std::uint32_t count = 1,
     std::uint32_t ws = 8, std::uint64_t version = 0)
{
    return {waveform::GateId{waveform::GateType::X, q, -1},
            false,
            0,
            first,
            count,
            32,
            64,
            ws,
            version};
}

/** A PREFETCH of windows [w, w + count) of the same layout with tier
 *  hint `tier`. */
WindowEvent
prefetch(int q, std::uint32_t w, std::uint8_t tier = 0,
         std::uint32_t count = 1)
{
    WindowEvent e = play(q, w, count);
    e.prefetch = true;
    e.tier = tier;
    return e;
}

/** A single-tier admit-always model of `windows` windows. */
TieredStoreConfig
flat(std::size_t windows)
{
    TieredStoreConfig cfg;
    cfg.tier0 = {windows, 0};
    return cfg;
}

/** Replay one log; returns the replay's own counters and, through
 *  `inserted`, the cold prefetches it made. */
TieredStoreStats
replayLog(TieredWindowStore &model, const WindowEventLog &log,
          std::uint64_t *inserted = nullptr)
{
    const WindowEventLog *logs[] = {&log};
    std::vector<std::uint64_t> cold(1, 0);
    const auto d = model.replay(logs, cold);
    if (inserted)
        *inserted = cold[0];
    return d;
}

TEST(DecodedCache, LruEvictionOrder)
{
    TieredWindowStore model(flat(2));
    replayLog(model, {play(0, 0),   // miss
                      play(1, 0),   // miss
                      play(0, 0),   // hit, qubit 0 becomes MRU
                      play(2, 0),   // miss, evicts qubit 1 (LRU)
                      play(0, 0),   // still resident: hit
                      play(1, 0)}); // evicted above: miss again
    const auto s = model.stats();
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.misses, 4u);
    EXPECT_EQ(s.evictions, 2u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_NEAR(s.hitRate(), 2.0 / 6.0, 1e-12);
}

TEST(DecodedCache, CapacityZeroDisablesCaching)
{
    TieredWindowStore model(flat(0));
    std::uint64_t inserted = 1;
    const auto d = replayLog(
        model, {play(0, 0), play(0, 0), prefetch(0, 1), play(0, 0)},
        &inserted);
    // Nothing is ever resident: every demand window misses and the
    // prefetch has nowhere to go.
    EXPECT_EQ(d.hits, 0u);
    EXPECT_EQ(d.misses, 3u);
    EXPECT_EQ(d.prefetches, 0u);
    EXPECT_EQ(inserted, 0u);
    EXPECT_EQ(model.stats().entries, 0u);
}

TEST(DecodedCache, PrefetchCountersTrackClaims)
{
    TieredWindowStore model(flat(2));
    // Cold prefetch: inserted — and touches neither demand counter.
    std::uint64_t inserted = 0;
    replayLog(model, {prefetch(0, 0)}, &inserted);
    EXPECT_EQ(inserted, 1u);
    auto s = model.stats();
    EXPECT_EQ(s.prefetches, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.hits + s.misses, 0u);

    // The first demand probe claims it: a hit plus exactly one
    // prefetchHit; later probes are plain hits.
    replayLog(model, {play(0, 0), play(0, 0)});
    s = model.stats();
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.prefetchHits, 1u);
    EXPECT_EQ(s.prefetchWasted, 0u);
}

TEST(DecodedCache, UnclaimedPrefetchCountsWasted)
{
    TieredWindowStore model(flat(1));
    // Evicted by demand traffic before any probe touched it.
    replayLog(model, {prefetch(0, 0), play(1, 0)});
    const auto s = model.stats();
    EXPECT_EQ(s.prefetches, 1u);
    EXPECT_EQ(s.prefetchHits, 0u);
    EXPECT_EQ(s.prefetchWasted, 1u);
}

TEST(DecodedCache, PrefetchIsANoOpWhenDisabledOrResident)
{
    // Resident window: recency refresh only — no insert, no counters,
    // but the entry becomes MRU and survives the next eviction.
    TieredWindowStore model(flat(2));
    std::uint64_t inserted = 1;
    replayLog(model,
              {play(0, 0), play(1, 0), // [k1 k0]
               prefetch(0, 0),         // [k0 k1]
               play(2, 0),             // evicts k1, not k0
               play(0, 0)},
              &inserted);
    const auto s = model.stats();
    EXPECT_EQ(inserted, 0u);
    EXPECT_EQ(s.prefetches, 0u);
    EXPECT_EQ(s.misses, 3u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.evictions, 1u);
}

TEST(DecodedCache, DefaultWindowHookMatchesChannelSlice)
{
    // The base-class decompressWindowInto (decode-and-slice) must
    // agree with decompressChannel for codecs that do not override it.
    const auto wf = waveform::drag(144, 36.0, 0.2, 1.2);
    const core::Compressor comp({"dct-w", 16, 1e-3});
    const auto cw = comp.compress(wf);
    const core::Decompressor dec;
    const auto golden = dec.decompressChannel(cw.i, cw.codec);
    std::vector<double> assembled;
    std::vector<double> window(cw.i.windowSize);
    for (std::uint32_t w = 0; w < cw.i.windows.size(); ++w) {
        const std::size_t n =
            dec.decompressWindowInto(cw.i, cw.codec, w, window);
        assembled.insert(assembled.end(), window.begin(),
                         window.begin() + static_cast<std::ptrdiff_t>(n));
    }
    EXPECT_EQ(assembled, golden);

    // DCT-N's single whole-waveform window slices the same way.
    const core::Compressor whole({"dct-n", 0, 1e-3});
    const auto cwn = whole.compress(wf);
    ASSERT_EQ(cwn.i.windows.size(), 1u);
    window.resize(cwn.i.windowSamples(0));
    EXPECT_EQ(dec.decompressWindowInto(cwn.i, cwn.codec, 0, window),
              window.size());
    EXPECT_EQ(window, dec.decompressChannel(cwn.i, cwn.codec));
}

TEST(TieredStore, SampleBudgetBoundsResidency)
{
    TieredStoreConfig cfg;
    cfg.tier0 = {100, 16}; // window cap slack; budget binds at 16
    TieredWindowStore model(cfg);
    replayLog(model, {play(0, 0), play(1, 0)});
    auto s = model.stats();
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.residentSamples, 16u);
    EXPECT_EQ(s.tier[0].residentSamples, 16u);

    // A third window overflows the sample budget: the LRU entry
    // (qubit 0) is evicted even though the window cap has room.
    replayLog(model, {play(2, 0)});
    s = model.stats();
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.residentSamples, 16u);
    EXPECT_EQ(s.evictions, 1u);
    replayLog(model, {play(0, 0)});
    EXPECT_EQ(model.stats().misses, 4u); // qubit 0 really was dropped

    // One oversized window may exceed the whole budget on its own:
    // the budget never evicts the sole resident entry.
    TieredStoreConfig tiny;
    tiny.tier0 = {100, 4};
    TieredWindowStore wide(tiny);
    replayLog(wide, {play(7, 0, 1, 32)});
    s = wide.stats();
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.residentSamples, 32u);
    EXPECT_EQ(s.evictions, 0u);
    replayLog(wide, {play(8, 0, 1, 32)});
    s = wide.stats();
    EXPECT_EQ(s.entries, 1u); // over budget: back down to one
    EXPECT_EQ(s.evictions, 1u);
}

TEST(TieredStore, AdmitAlwaysDemotesAndPromotesAcrossTiers)
{
    TieredStoreConfig cfg;
    cfg.tier0 = {1, 0};
    cfg.tier1 = {2, 0};
    cfg.tier1PenaltyCycles = 8;
    TieredWindowStore model(cfg);
    ASSERT_TRUE(model.tiered());

    replayLog(model, {play(0, 0),   // A -> tier 0
                      play(1, 0)}); // B -> t0, A -> t1
    auto s = model.stats();
    EXPECT_EQ(s.demotions, 1u);
    EXPECT_EQ(s.tier[0].entries, 1u);
    EXPECT_EQ(s.tier[1].entries, 1u);

    // A is served from tier 1 (penalty charged, tier-0 miss + tier-1
    // hit recorded) and — having proven reuse by being demoted —
    // promotes straight back, demoting B.
    replayLog(model, {play(0, 0)});
    s = model.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.tier[1].hits, 1u);
    EXPECT_EQ(s.tier[0].misses, 3u); // 2 cold + 1 tier-1-served
    EXPECT_EQ(s.promotions, 1u);
    EXPECT_EQ(s.demotions, 2u);
    // tier-1 traffic: demote A, hit A, demote B.
    EXPECT_EQ(s.penaltyCycles, 3u * 8u);
    EXPECT_NEAR(s.tier0HitRate(), 0.0, 1e-12);
    EXPECT_NEAR(s.hitRate(), 1.0 / 3.0, 1e-12);
}

TEST(TieredStore, PrefetchTierHintsStageAndPromote)
{
    TieredStoreConfig cfg;
    cfg.tier0 = {4, 0};
    cfg.tier1 = {4, 0};
    TieredWindowStore model(cfg);

    // A slow-tier hint stages the window in tier 1 (a write: one
    // penalty) without disturbing tier 0.
    replayLog(model, {prefetch(0, 0, 1)});
    auto s = model.stats();
    EXPECT_EQ(s.tier[1].entries, 1u);
    EXPECT_EQ(s.tier[1].admitted, 1u);
    EXPECT_EQ(s.penaltyCycles, 8u);

    // A fast-tier hint on the staged window pulls it into tier 0
    // ahead of its PLAY (a second tier-1 access), so the play is a
    // free tier-0 hit that claims the prefetch.
    std::uint64_t inserted = 1;
    replayLog(model, {prefetch(0, 0, 0), play(0, 0)}, &inserted);
    s = model.stats();
    EXPECT_EQ(inserted, 0u);
    EXPECT_EQ(s.promotions, 1u);
    EXPECT_EQ(s.penaltyCycles, 16u);
    EXPECT_EQ(s.tier[0].hits, 1u);
    EXPECT_EQ(s.prefetchHits, 1u);
    EXPECT_EQ(s.tier[0].entries, 1u);
    EXPECT_EQ(s.tier[1].entries, 0u);
}

TEST(TieredStore, TinyLfuChallengesTheVictimFrequency)
{
    TieredStoreConfig cfg;
    cfg.tier0 = {2, 0};
    cfg.admission = AdmissionPolicy::TinyLfu;
    TieredWindowStore model(cfg);

    // Warm A and B to frequency 2 each (every probe feeds the
    // sketch).
    replayLog(model, {play(0, 0), play(1, 0), play(0, 0), play(1, 0)});
    ASSERT_EQ(model.stats().misses, 2u);

    // A cold challenger cannot displace a warmer victim: the first
    // two C touches lose the frequency duel and are kept out.
    replayLog(model, {play(2, 0), play(2, 0)});
    auto s = model.stats();
    EXPECT_EQ(s.tier[0].admitRejected, 2u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.misses, 4u);

    // Third touch: C's estimate (3) now beats the LRU victim's (2),
    // so it is admitted and the victim is dropped.
    replayLog(model, {play(2, 0)});
    s = model.stats();
    EXPECT_EQ(s.tier[0].admitted, 3u);
    EXPECT_EQ(s.evictions, 1u);
    replayLog(model, {play(2, 0)});
    s = model.stats();
    EXPECT_EQ(s.misses, 5u);
    EXPECT_EQ(s.hits, 3u); // warm passes + resident C
}

/** Every counter and point-in-time field of two model snapshots. */
void
expectSameModel(const TieredStoreStats &x, const TieredStoreStats &y,
                const std::string &tag)
{
    EXPECT_EQ(x.hits, y.hits) << tag;
    EXPECT_EQ(x.misses, y.misses) << tag;
    EXPECT_EQ(x.evictions, y.evictions) << tag;
    EXPECT_EQ(x.prefetches, y.prefetches) << tag;
    EXPECT_EQ(x.prefetchHits, y.prefetchHits) << tag;
    EXPECT_EQ(x.prefetchWasted, y.prefetchWasted) << tag;
    EXPECT_EQ(x.promotions, y.promotions) << tag;
    EXPECT_EQ(x.demotions, y.demotions) << tag;
    EXPECT_EQ(x.penaltyCycles, y.penaltyCycles) << tag;
    EXPECT_EQ(x.entries, y.entries) << tag;
    EXPECT_EQ(x.residentSamples, y.residentSamples) << tag;
    for (std::size_t t = 0; t < 2; ++t) {
        EXPECT_EQ(x.tier[t].hits, y.tier[t].hits) << tag;
        EXPECT_EQ(x.tier[t].misses, y.tier[t].misses) << tag;
        EXPECT_EQ(x.tier[t].evictions, y.tier[t].evictions) << tag;
        EXPECT_EQ(x.tier[t].admitted, y.tier[t].admitted) << tag;
        EXPECT_EQ(x.tier[t].admitRejected, y.tier[t].admitRejected)
            << tag;
        EXPECT_EQ(x.tier[t].entries, y.tier[t].entries) << tag;
        EXPECT_EQ(x.tier[t].residentSamples, y.tier[t].residentSamples)
            << tag;
    }
}

/** A seeded log over `gates` gates (window size 8 or 16 by qubit):
 *  play ranges and, one in four, PREFETCH ranges with either hint. */
WindowEventLog
randomLog(Rng &rng, std::uint64_t gates, std::uint64_t version)
{
    WindowEventLog log(2 + rng.uniformInt(10));
    for (WindowEvent &e : log) {
        const auto q = static_cast<int>(rng.uniformInt(gates));
        const auto first = static_cast<std::uint32_t>(rng.uniformInt(64));
        const auto count =
            static_cast<std::uint32_t>(1 + rng.uniformInt(64 - first));
        e = play(q, first, count, q % 2 == 0 ? 8 : 16, version);
        if (rng.uniformInt(4) == 0) {
            e.prefetch = true;
            e.tier = static_cast<std::uint8_t>(rng.uniformInt(2));
        }
    }
    return log;
}

/**
 * What a single-tier admit-always model must count, written as a plain
 * LRU over (qubit, version, window) keys — no node runs, no splices.
 */
struct ReferenceLru
{
    using Key = std::tuple<int, std::uint64_t, std::uint32_t>;
    struct Slot
    {
        std::list<Key>::iterator at;
        std::uint32_t samples = 0;
        bool prefetched = false;
    };

    explicit ReferenceLru(const TierConfig &b) : budget(b) {}

    TierConfig budget;
    std::list<Key> order; //< front = most recent
    std::map<Key, Slot> slots;
    TieredStoreStats stats;
    /** Cold prefetch inserts. */
    std::uint64_t inserted = 0;

    void
    apply(const WindowEventLog &log)
    {
        for (const WindowEvent &e : log)
            for (std::uint32_t w = e.first; w < e.first + e.count; ++w)
                access(e, Key{e.gate.q0, e.libVersion, w});
    }

    void
    access(const WindowEvent &e, const Key &k)
    {
        if (const auto it = slots.find(k); it != slots.end()) {
            order.splice(order.begin(), order, it->second.at);
            if (!e.prefetch) {
                ++stats.hits;
                ++stats.tier[0].hits;
                stats.prefetchHits += it->second.prefetched ? 1 : 0;
                it->second.prefetched = false;
            }
            return;
        }
        if (e.prefetch) {
            ++stats.prefetches;
            ++inserted;
        } else {
            ++stats.misses;
            ++stats.tier[0].misses;
        }
        order.push_front(k);
        slots[k] = {order.begin(), e.windowSize, e.prefetch};
        ++stats.tier[0].admitted;
        stats.residentSamples += e.windowSize;
        while (slots.size() > budget.windows ||
               (budget.sampleBudget > 0 &&
                stats.residentSamples > budget.sampleBudget &&
                slots.size() > 1)) {
            const Slot &victim = slots.at(order.back());
            stats.residentSamples -= victim.samples;
            stats.prefetchWasted += victim.prefetched ? 1 : 0;
            ++stats.evictions;
            ++stats.tier[0].evictions;
            slots.erase(order.back());
            order.pop_back();
        }
        stats.entries = stats.tier[0].entries = slots.size();
        stats.tier[0].residentSamples = stats.residentSamples;
    }
};

TEST(TieredStore, RangeEventsMatchPerWindowEvents)
{
    // One event per PLAY range or PREFETCH streak is a recording
    // format, not a model change, and so is the splice that moves a
    // run of tier-0 windows still linked in their last play's order:
    // a log replayed as ranges must land on exactly the counters and
    // cold-insert tallies of the same windows replayed one event each
    // (where no run is longer than one window). Each trial replays one
    // seeded log many times, so chains form, and now and then swaps in
    // a fresh log or a new library version — across policies, tier
    // splits, sample budgets, eviction pressure, and prefetch ranges
    // with either hint over cold, tier-1 and resident windows. The
    // single-tier admit-always shapes are also checked against a plain
    // LRU, which moves every window on its own.
    struct Shape
    {
        TierConfig tier0, tier1;
        AdmissionPolicy admission;
    };
    const Shape shapes[] = {
        {{256, 0}, {}, AdmissionPolicy::AdmitAlways},
        {{24, 0}, {}, AdmissionPolicy::AdmitAlways},
        {{16, 0}, {24, 0}, AdmissionPolicy::AdmitAlways},
        {{24, 0}, {}, AdmissionPolicy::TinyLfu},
        {{12, 96}, {32, 0}, AdmissionPolicy::TinyLfu},
        {{64, 400}, {}, AdmissionPolicy::AdmitAlways},
        {{48, 300}, {64, 600}, AdmissionPolicy::TinyLfu},
    };
    constexpr std::uint64_t kTrials = 40;
    constexpr int kReplays = 24;
    auto &splices = telemetry::Registry::global().counter(
        "cache.replay.splices");
    for (const Shape &sh : shapes) {
        const TieredStoreConfig cfg{sh.tier0, sh.tier1, sh.admission, 8};
        const std::string shape =
            std::string(admissionPolicyName(sh.admission)) +
            " t0=" + std::to_string(sh.tier0.windows) + "/" +
            std::to_string(sh.tier0.sampleBudget) +
            " t1=" + std::to_string(sh.tier1.windows) + "/" +
            std::to_string(sh.tier1.sampleBudget);
        std::uint64_t rangeSplices = 0, windowSplices = 0, hits = 0;
        for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
            Rng rng(seed);
            const std::uint64_t gates = 1 + rng.uniformInt(6);
            std::uint64_t version = 1;
            WindowEventLog log = randomLog(rng, gates, version);
            TieredWindowStore a(cfg), b(cfg);
            const bool flatLru = sh.tier1.windows == 0 &&
                                 sh.admission == AdmissionPolicy::AdmitAlways;
            ReferenceLru lru(sh.tier0);
            for (int r = 0; r < kReplays; ++r) {
                if (rng.uniformInt(8) == 0)
                    log = randomLog(rng, gates, version);
                if (rng.uniformInt(12) == 0) {
                    ++version;
                    for (WindowEvent &e : log)
                        e.libVersion = version;
                }
                WindowEventLog windows;
                for (const WindowEvent &e : log)
                    for (std::uint32_t w = e.first; w < e.first + e.count;
                         ++w) {
                        WindowEvent one = e;
                        one.first = w;
                        one.count = 1;
                        windows.push_back(one);
                    }
                std::uint64_t ia = 0, ib = 0;
                const std::uint64_t s0 = splices.value();
                const auto x = replayLog(a, log, &ia);
                const std::uint64_t s1 = splices.value();
                const auto y = replayLog(b, windows, &ib);
                rangeSplices += s1 - s0;
                windowSplices += splices.value() - s1;
                hits += x.tier[0].hits;
                const std::string tag = shape + " seed " +
                                        std::to_string(seed) + " replay " +
                                        std::to_string(r);
                EXPECT_EQ(ia, x.prefetches) << tag;
                EXPECT_EQ(ia, ib) << tag;
                expectSameModel(x, y, tag);
                if (flatLru) {
                    const std::uint64_t before = lru.inserted;
                    lru.apply(log);
                    EXPECT_EQ(ia, lru.inserted - before) << tag;
                    expectSameModel(a.stats(), lru.stats, tag + " vs LRU");
                }
            }
            expectSameModel(a.stats(), b.stats(), shape);
        }
        // Chains formed: ranges moved their tier-0 windows in fewer
        // splices than one per window.
        EXPECT_GT(hits, 0u) << shape;
        EXPECT_LT(rangeSplices, windowSplices) << shape;
    }
}

TEST(TieredStore, RetiredVersionsAgeOutUnderChurn)
{
    // Keys carry the library version: windows of a retired version
    // are never hit again and leave by eviction (their node runs are
    // freed as they empty), while the new version fills beside them.
    TieredStoreConfig cfg;
    cfg.tier0 = {32, 0};
    cfg.tier1 = {32, 0};
    TieredWindowStore model(cfg);
    for (std::uint64_t version = 1; version <= 6; ++version) {
        const WindowEventLog log = {play(0, 0, 24, 8, version),
                                    play(1, 0, 24, 8, version)};
        const auto cold = replayLog(model, log);
        EXPECT_EQ(cold.hits, 0u) << "version " << version;
        EXPECT_EQ(cold.misses, 48u) << "version " << version;
        // The 48-window working set fits the 64-window model.
        const auto warm = replayLog(model, log);
        EXPECT_EQ(warm.hits, 48u) << "version " << version;
        EXPECT_EQ(warm.misses, 0u) << "version " << version;
        const auto s = model.stats();
        EXPECT_EQ(s.entries, std::min<std::size_t>(64, 48 * version));
        EXPECT_EQ(s.residentSamples, s.entries * 8u);
    }
}

TEST(TieredStore, RegistryCountersTrackTierTraffic)
{
    auto &reg = telemetry::Registry::global();
    const std::uint64_t hit0 = reg.counter("cache.tier0.hit").value();
    const std::uint64_t hit1 = reg.counter("cache.tier1.hit").value();
    const std::uint64_t miss0 =
        reg.counter("cache.tier0.miss").value();
    const std::uint64_t promote0 =
        reg.counter("cache.tier0.promote").value();
    const std::uint64_t demote0 =
        reg.counter("cache.tier0.demote").value();
    const std::uint64_t rejected0 =
        reg.counter("cache.tier0.admit_rejected").value();

    TieredStoreConfig cfg;
    cfg.tier0 = {1, 0};
    cfg.tier1 = {2, 0};
    TieredWindowStore model(cfg);
    replayLog(model, {play(0, 0),
                      play(1, 0),   // demotes A
                      play(0, 0),   // t1 hit, promotes
                      play(0, 0)}); // t0 hit
    const auto s = model.stats();

    EXPECT_EQ(reg.counter("cache.tier0.hit").value() - hit0,
              s.tier[0].hits);
    EXPECT_EQ(reg.counter("cache.tier1.hit").value() - hit1,
              s.tier[1].hits);
    EXPECT_EQ(reg.counter("cache.tier0.miss").value() - miss0,
              s.tier[0].misses);
    EXPECT_EQ(reg.counter("cache.tier0.promote").value() - promote0,
              s.promotions);
    EXPECT_EQ(reg.counter("cache.tier0.demote").value() - demote0,
              s.demotions);
    EXPECT_EQ(
        reg.counter("cache.tier0.admit_rejected").value() - rejected0,
        s.tier[0].admitRejected);
    EXPECT_GT(s.tier[1].hits, 0u);
    EXPECT_GT(s.promotions, 0u);
}

TEST(TieredStore, StatsAccumulateAndDeltaRoundTrip)
{
    TieredStoreConfig cfg;
    cfg.tier0 = {1, 0};
    cfg.tier1 = {2, 0};
    TieredWindowStore model(cfg);
    const auto before = model.stats();
    const auto replayed =
        replayLog(model, {play(0, 0), play(1, 0), play(0, 0)});
    const auto after = model.stats();

    const auto d = TieredStoreStats::delta(before, after);
    EXPECT_EQ(d.hits, after.hits);
    EXPECT_EQ(d.misses, after.misses);
    EXPECT_EQ(d.entries, after.entries); // latches take the endpoint
    EXPECT_EQ(d.residentSamples, after.residentSamples);
    // A replay returns exactly its own delta.
    EXPECT_EQ(replayed.hits, d.hits);
    EXPECT_EQ(replayed.misses, d.misses);
    EXPECT_EQ(replayed.penaltyCycles, d.penaltyCycles);
    EXPECT_EQ(replayed.entries, d.entries);

    TieredStoreStats sum;
    sum.accumulate(after);
    sum.accumulate(after);
    EXPECT_EQ(sum.hits, 2 * after.hits);
    EXPECT_EQ(sum.tier[1].hits, 2 * after.tier[1].hits);
    EXPECT_EQ(sum.penaltyCycles, 2 * after.penaltyCycles);
    EXPECT_EQ(sum.entries, after.entries);
    EXPECT_EQ(sum.residentSamples, after.residentSamples);
}

// --------------------------------------------------------------- executor

TEST(Executor, RunsEveryJobExactlyOnce)
{
    for (const int workers : {1, 2, 8}) {
        common::Executor exec(workers);
        std::vector<int> counts(257, 0);
        exec.forEach(counts.size(), [&](std::size_t i) {
            // Each index is claimed by exactly one worker, so no
            // synchronization is needed on counts[i].
            counts[i] += 1;
        });
        for (std::size_t i = 0; i < counts.size(); ++i)
            ASSERT_EQ(counts[i], 1)
                << "workers=" << workers << " i=" << i;
    }
}

TEST(Executor, PropagatesFirstException)
{
    for (const int workers : {1, 4}) {
        common::Executor exec(workers);
        EXPECT_THROW(exec.forEach(16,
                                  [](std::size_t i) {
                                      if (i == 5)
                                          throw std::runtime_error(
                                              "job failed");
                                  }),
                     std::runtime_error)
            << "workers=" << workers;
    }
}

TEST(Executor, ReusableAcrossBatches)
{
    common::Executor exec(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> ran{0};
        exec.forEach(32, [&](std::size_t) { ++ran; });
        ASSERT_EQ(ran.load(), 32);
    }
}

// ------------------------------------------- rack + service end to end

/** Shared 49-qubit surface-code fixture (expensive to compress; built
 *  once for the suite). */
class RackSurface49 : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        const auto sc = circuits::makeSurfaceCode(
            5, circuits::SurfaceLayout::Rotated, 1);
        dev_ = new waveform::DeviceModel(
            waveform::DeviceModel::synthetic(
                "surface49-device", sc.totalQubits(),
                sc.nativeCoupling().edges()));
        lib_ = new waveform::PulseLibrary(
            waveform::PulseLibrary::build(*dev_));
        clib_ = std::make_shared<const core::CompressedLibrary>(
            buildCompressed(*lib_));
        sched_ = new circuits::Schedule(
            circuits::schedule(sc.circuit, {}));
    }

    static void
    TearDownTestSuite()
    {
        delete sched_;
        delete lib_;
        delete dev_;
        sched_ = nullptr;
        clib_ = nullptr;
        lib_ = nullptr;
        dev_ = nullptr;
    }

    RackConfig
    rackConfig(int shards, std::size_t cache_windows) const
    {
        RackConfig rc;
        rc.numShards = shards;
        rc.policy = ShardPolicy::LocalityAware;
        rc.controller = controllerConfig(*clib_);
        rc.cacheWindows = cache_windows;
        return rc;
    }

    static waveform::DeviceModel *dev_;
    static waveform::PulseLibrary *lib_;
    static std::shared_ptr<const core::CompressedLibrary> clib_;
    static circuits::Schedule *sched_;
};

waveform::DeviceModel *RackSurface49::dev_ = nullptr;
waveform::PulseLibrary *RackSurface49::lib_ = nullptr;
std::shared_ptr<const core::CompressedLibrary> RackSurface49::clib_;
circuits::Schedule *RackSurface49::sched_ = nullptr;

TEST_F(RackSurface49, StatsRollupIsConsistent)
{
    // Cache sized to the workload's unique-window working set, so
    // the batch's second circuit replays from cache.
    const Rack rack(*dev_, clib_, rackConfig(4, 1 << 15));
    RuntimeService svc(rack, {.workers = 1});
    const auto stats =
        svc.executeBatchCompiledPerJob({*sched_, *sched_}).total;

    ASSERT_EQ(stats.shards.size(), 4u);
    std::uint64_t gates = 0, samples = 0, windows = 0;
    std::size_t banks = 0;
    for (const auto &sh : stats.shards) {
        gates += sh.gatesPlayed;
        samples += sh.samplesDecoded;
        windows += sh.windowsDecoded;
        banks += sh.demand.peakBanks;
        // Every sample the demand model charges is decoded by
        // playback, and vice versa.
        EXPECT_EQ(sh.samplesDecoded, sh.demand.totalSamples);
        EXPECT_EQ(sh.demand.missingGates, 0u);
    }
    EXPECT_EQ(stats.totalGates, gates);
    EXPECT_EQ(stats.totalSamples, samples);
    EXPECT_EQ(stats.totalWindows, windows);
    EXPECT_EQ(stats.fleetPeakBanks, banks);
    EXPECT_GT(stats.totalGates, 0u);
    EXPECT_TRUE(stats.feasible);
    // Same schedule twice through a shared cache: plenty of hits.
    EXPECT_GT(stats.cacheHitRate, 0.4);
    EXPECT_EQ(stats.cache.hits + stats.cache.misses,
              stats.totalWindows);
}

TEST_F(RackSurface49, WorkerCountDoesNotChangeDemand)
{
    // The acceptance contract: 8-worker execution of a 49-qubit
    // surface-code batch is bit-identical, shard by shard, to
    // 1-worker execution.
    const std::vector<circuits::Schedule> batch = {*sched_, *sched_,
                                                   *sched_};
    std::vector<RackStats> runs;
    for (const int workers : {1, 8}) {
        const Rack rack(*dev_, clib_, rackConfig(8, 4096));
        RuntimeService svc(rack, {.workers = workers});
        runs.push_back(svc.executeBatchCompiledPerJob(batch).total);
    }
    const auto &one = runs[0], &many = runs[1];
    ASSERT_EQ(one.shards.size(), many.shards.size());
    for (std::size_t s = 0; s < one.shards.size(); ++s) {
        const auto &a = one.shards[s].demand;
        const auto &b = many.shards[s].demand;
        EXPECT_EQ(a.peakBanks, b.peakBanks) << "shard " << s;
        EXPECT_EQ(a.peakChannels, b.peakChannels) << "shard " << s;
        EXPECT_EQ(a.feasible, b.feasible) << "shard " << s;
        EXPECT_EQ(a.totalSamples, b.totalSamples) << "shard " << s;
        EXPECT_EQ(a.totalWordsRead, b.totalWordsRead)
            << "shard " << s;
        EXPECT_EQ(a.missingGates, b.missingGates) << "shard " << s;
        // Bandwidth is a product of identical ints and doubles.
        EXPECT_EQ(a.peakBandwidthBytesPerSec,
                  b.peakBandwidthBytesPerSec)
            << "shard " << s;
        EXPECT_EQ(one.shards[s].gatesPlayed, many.shards[s].gatesPlayed);
        EXPECT_EQ(one.shards[s].samplesDecoded,
                  many.shards[s].samplesDecoded);
        EXPECT_EQ(one.shards[s].windowsDecoded,
                  many.shards[s].windowsDecoded);
    }
    EXPECT_EQ(one.fleetPeakBanks, many.fleetPeakBanks);
    EXPECT_EQ(one.totalGates, many.totalGates);
    EXPECT_EQ(one.totalSamples, many.totalSamples);
}

TEST_F(RackSurface49, TieredRackDemandMatchesFlatAtAnyWorkerCount)
{
    // The hierarchy is invisible to the playback contract: a tiered
    // rack under every admission policy reproduces the flat rack's
    // per-shard demand and decode totals bit-for-bit, at 1 and 8
    // workers, while windows really do flow through tier 1.
    const std::vector<circuits::Schedule> batch = {*sched_, *sched_};
    const Rack flat(*dev_, clib_, rackConfig(8, 4096));
    RuntimeService ref(flat, {.workers = 1});
    const auto base = ref.executeBatchCompiledPerJob(batch).total;

    for (const auto policy :
         {AdmissionPolicy::AdmitAlways, AdmissionPolicy::TinyLfu}) {
        for (const int workers : {1, 8}) {
            RackConfig rc = rackConfig(8, 256);
            rc.tier1Windows = 4096;
            rc.admission = policy;
            const Rack rack(*dev_, clib_, rc);
            RuntimeService svc(rack, {.workers = workers});
            const auto got = svc.executeBatchCompiledPerJob(batch).total;
            const std::string tag =
                std::string(admissionPolicyName(policy)) +
                " workers " + std::to_string(workers);
            ASSERT_EQ(base.shards.size(), got.shards.size()) << tag;
            for (std::size_t s = 0; s < base.shards.size(); ++s) {
                const auto &a = base.shards[s];
                const auto &b = got.shards[s];
                EXPECT_EQ(a.demand.totalSamples,
                          b.demand.totalSamples)
                    << tag << " shard " << s;
                EXPECT_EQ(a.demand.totalWordsRead,
                          b.demand.totalWordsRead)
                    << tag << " shard " << s;
                EXPECT_EQ(a.demand.peakBanks, b.demand.peakBanks)
                    << tag << " shard " << s;
                EXPECT_EQ(a.gatesPlayed, b.gatesPlayed)
                    << tag << " shard " << s;
                EXPECT_EQ(a.samplesDecoded, b.samplesDecoded)
                    << tag << " shard " << s;
                EXPECT_EQ(a.windowsDecoded, b.windowsDecoded)
                    << tag << " shard " << s;
            }
            EXPECT_EQ(base.totalGates, got.totalGates) << tag;
            EXPECT_EQ(base.totalSamples, got.totalSamples) << tag;
            EXPECT_EQ(base.totalWindows, got.totalWindows) << tag;
            // The tiny fast tier forces real tier-1 traffic.
            EXPECT_GT(got.cache.tier[1].admitted +
                          got.cache.demotions,
                      0u)
                << tag;
        }
    }
}

/** Every counter of two model snapshots, field by field. */
void
expectSameModelCounters(const DecodedCacheStats &a,
                        const DecodedCacheStats &b,
                        const std::string &tag)
{
    EXPECT_EQ(a.hits, b.hits) << tag;
    EXPECT_EQ(a.misses, b.misses) << tag;
    EXPECT_EQ(a.evictions, b.evictions) << tag;
    EXPECT_EQ(a.prefetches, b.prefetches) << tag;
    EXPECT_EQ(a.prefetchHits, b.prefetchHits) << tag;
    EXPECT_EQ(a.prefetchWasted, b.prefetchWasted) << tag;
    EXPECT_EQ(a.entries, b.entries) << tag;
    EXPECT_EQ(a.residentSamples, b.residentSamples) << tag;
    EXPECT_EQ(a.promotions, b.promotions) << tag;
    EXPECT_EQ(a.demotions, b.demotions) << tag;
    EXPECT_EQ(a.penaltyCycles, b.penaltyCycles) << tag;
    for (std::size_t t = 0; t < 2; ++t) {
        const auto &x = a.tier[t];
        const auto &y = b.tier[t];
        EXPECT_EQ(x.hits, y.hits) << tag << " tier " << t;
        EXPECT_EQ(x.misses, y.misses) << tag << " tier " << t;
        EXPECT_EQ(x.evictions, y.evictions) << tag << " tier " << t;
        EXPECT_EQ(x.admitted, y.admitted) << tag << " tier " << t;
        EXPECT_EQ(x.admitRejected, y.admitRejected)
            << tag << " tier " << t;
        EXPECT_EQ(x.entries, y.entries) << tag << " tier " << t;
        EXPECT_EQ(x.residentSamples, y.residentSamples)
            << tag << " tier " << t;
    }
}

TEST_F(RackSurface49, ModelCountersIdenticalAcrossWorkerCounts)
{
    // The model joins the determinism contract: cells record their
    // plays and prefetches in parallel and the grid replays them in
    // (circuit, shard) order, so every RackStats.cache counter (and
    // every shard's prefetchesIssued) is bit-identical at 1 and 4
    // workers, batch after batch — under eviction pressure on a
    // single-tier admit-always rack and a two-tier TinyLfu rack.
    const std::vector<circuits::Schedule> batch = {*sched_, *sched_};
    RackConfig flat = rackConfig(4, 2048);
    RackConfig tiered = rackConfig(4, 256);
    tiered.tier1Windows = 1024;
    tiered.admission = AdmissionPolicy::TinyLfu;
    const std::pair<const char *, RackConfig> racks[] = {
        {"single-tier admit-always", flat},
        {"two-tier tinylfu", tiered}};
    for (const auto &[name, rc] : racks) {
        std::vector<std::vector<RackStats>> runs;
        for (const int workers : {1, 4}) {
            const Rack rack(*dev_, clib_, rc);
            RuntimeService svc(rack, {.workers = workers});
            auto &seq = runs.emplace_back();
            for (int round = 0; round < 3; ++round)
                seq.push_back(svc.executeBatchCompiledPerJob(batch).total);
        }
        for (std::size_t round = 0; round < runs[0].size(); ++round) {
            const std::string tag =
                std::string(name) + " round " + std::to_string(round);
            const auto &one = runs[0][round];
            const auto &four = runs[1][round];
            expectSameModelCounters(one.cache, four.cache, tag);
            EXPECT_EQ(one.prefetchesIssued, four.prefetchesIssued)
                << tag;
            for (std::size_t s = 0; s < one.shards.size(); ++s)
                EXPECT_EQ(one.shards[s].prefetchesIssued,
                          four.shards[s].prefetchesIssued)
                    << tag << " shard " << s;
        }
        // The racks really were under pressure.
        EXPECT_GT(runs[0][0].cache.evictions + runs[0][0].cache.demotions,
                  0u)
            << name;
    }
}

TEST_F(RackSurface49, ThrowingBatchLeavesTheModelUntouched)
{
    // A batch that throws must leave the model as it found it: the
    // server re-runs such a batch one job at a time, and those re-runs
    // must count only their own hits. The short schedule's programs
    // fit an instruction memory sized to them; the surface-code
    // cycle's do not, so compiling its plan throws.
    const Rack rack(*dev_, clib_, rackConfig(4, 1 << 15));
    circuits::Circuit c(8);
    for (int q = 0; q < 8; ++q)
        c.x(q);
    const auto small = circuits::schedule(c, {});
    const isa::Compiler bare(rack, {.emitPrefetch = false});
    std::size_t words = 0;
    for (const auto &part :
         circuits::partitionByOwner(small, rack.plan().owner, 4)) {
        isa::ProgramStats st;
        bare.compileShard(part, &st);
        words = std::max(words, st.memoryWords);
    }
    const isa::CompilerConfig cfg{.instructionMemoryWords = words};

    RuntimeService svc(rack, {.workers = 1});
    EXPECT_GT(svc.executeBatchCompiledPerJob({small}, cfg).total.cache.misses,
              0u);
    const auto before = rack.cache().stats();
    // The small schedule's plan is cached, so the batch fails while
    // compiling the surface-code cycle, before any cell plays or the
    // replay starts.
    EXPECT_THROW(svc.executeBatchCompiledPerJob({small, *sched_}, cfg),
                 std::invalid_argument);
    expectSameModelCounters(before, rack.cache().stats(),
                            "after the throwing batch");
}

TEST_F(RackSurface49, HotBatchRunsAlmostEntirelyFromCache)
{
    const Rack rack(*dev_, clib_, rackConfig(4, 1 << 15));
    RuntimeService svc(rack, {.workers = 2});
    svc.executeBatchCompiledPerJob({*sched_}); // cold pass fills the cache
    const auto warm = svc.executeBatchCompiledPerJob({*sched_}).total;
    EXPECT_GT(warm.cacheHitRate, 0.99);
    EXPECT_EQ(warm.cache.evictions, 0u);
}

TEST(RackUncompressed, BaselineRackSkipsDecodeAndCache)
{
    // An uncompressed-baseline rack never touches the compressed
    // payload, so even a non-windowed codec library executes fine
    // and the cache stays untouched.
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    const auto clib = std::make_shared<const core::CompressedLibrary>(
        core::CompressionPipeline::with("dct-n")
            .mseTarget(1e-5)
            .build()
            .compressLibrary(lib));

    RackConfig rc;
    rc.numShards = 2;
    rc.controller.compressed = false;
    const Rack rack(dev, clib, rc);
    RuntimeService svc(rack, {.workers = 2});

    circuits::Circuit c(5);
    for (int q = 0; q < 5; ++q)
        c.x(q);
    c.measureAll();
    const auto stats =
        svc.executeBatchCompiledPerJob({circuits::schedule(c, {})}).total;
    EXPECT_EQ(stats.totalGates, 10u);
    EXPECT_GT(stats.totalSamples, 0u);
    EXPECT_EQ(stats.totalWindows, 0u);
    EXPECT_EQ(stats.cache.hits + stats.cache.misses, 0u);
    for (const auto &sh : stats.shards)
        EXPECT_EQ(sh.samplesDecoded, sh.demand.totalSamples);
}

TEST(RackMismatch, ReportsEventsNoShardOwns)
{
    // A schedule built for a larger machine than the rack's device:
    // the out-of-range events are dropped by partitioning but
    // reported, not silently lost.
    const auto dev = waveform::DeviceModel::ibm("bogota"); // 5 qubits
    const auto lib = waveform::PulseLibrary::build(dev);
    const auto clib =
        std::make_shared<const core::CompressedLibrary>(buildCompressed(lib));

    RackConfig rc;
    rc.numShards = 2;
    rc.controller = controllerConfig(*clib);
    const Rack rack(dev, clib, rc);
    RuntimeService svc(rack);

    circuits::Circuit c(8);
    for (int q = 0; q < 8; ++q)
        c.x(q); // qubits 5-7 do not exist on the rack's device
    const auto stats =
        svc.executeBatchCompiledPerJob({circuits::schedule(c, {})}).total;
    EXPECT_EQ(stats.unownedEvents, 3u);
    EXPECT_EQ(stats.totalGates, 5u);
}

TEST_F(RackSurface49, PerJobRollupsSumToBatchTotal)
{
    const Rack rack(*dev_, clib_, rackConfig(4, 4096));
    RuntimeService svc(rack, {.workers = 2});
    const auto exec =
        svc.executeBatchCompiledPerJob({*sched_, *sched_, *sched_});
    ASSERT_EQ(exec.jobs.size(), 3u);
    std::uint64_t gates = 0, samples = 0, windows = 0;
    for (const auto &job : exec.jobs) {
        gates += job.totalGates;
        samples += job.totalSamples;
        windows += job.totalWindows;
        // Cache counters and wall-clock attribute to the whole
        // batch, never to a job.
        EXPECT_EQ(job.cache.hits + job.cache.misses, 0u);
        EXPECT_EQ(job.wallSeconds, 0.0);
        ASSERT_EQ(job.shards.size(), exec.total.shards.size());
    }
    EXPECT_EQ(gates, exec.total.totalGates);
    EXPECT_EQ(samples, exec.total.totalSamples);
    EXPECT_EQ(windows, exec.total.totalWindows);
    // The model counters and wall clock live in the batch rollup.
    EXPECT_GT(exec.total.cache.hits + exec.total.cache.misses, 0u);
    EXPECT_GT(exec.total.wallSeconds, 0.0);
}

TEST_F(RackSurface49, PerJobStatsIndependentOfBatchComposition)
{
    // A job's rollup is a pure function of (rack, schedule): the same
    // schedule reports identical per-job numbers alone and riding in
    // a larger coalesced batch — what makes serving-plane attribution
    // deterministic.
    const Rack rack(*dev_, clib_, rackConfig(4, 1 << 15));
    RuntimeService svc(rack, {.workers = 4});
    const auto alone = svc.executeBatchCompiledPerJob({*sched_}).jobs[0];
    const auto mixed = svc.executeBatchCompiledPerJob(
                               {*sched_, *sched_, *sched_})
                           .jobs[1];
    ASSERT_EQ(alone.shards.size(), mixed.shards.size());
    for (std::size_t s = 0; s < alone.shards.size(); ++s) {
        const auto &a = alone.shards[s];
        const auto &b = mixed.shards[s];
        EXPECT_EQ(a.demand.peakBanks, b.demand.peakBanks) << s;
        EXPECT_EQ(a.demand.totalSamples, b.demand.totalSamples) << s;
        EXPECT_EQ(a.demand.totalWordsRead, b.demand.totalWordsRead)
            << s;
        EXPECT_EQ(a.gatesPlayed, b.gatesPlayed) << s;
        EXPECT_EQ(a.windowsDecoded, b.windowsDecoded) << s;
        EXPECT_EQ(a.samplesDecoded, b.samplesDecoded) << s;
    }
    EXPECT_EQ(alone.totalGates, mixed.totalGates);
    EXPECT_EQ(alone.totalSamples, mixed.totalSamples);
    EXPECT_EQ(alone.fleetPeakBanks, mixed.fleetPeakBanks);
    EXPECT_EQ(alone.unownedEvents, mixed.unownedEvents);
}

TEST_F(RackSurface49, ShardCountPreservesFleetWork)
{
    // Total decoded work is invariant under the shard count; only
    // its distribution changes.
    std::vector<std::uint64_t> totals;
    for (const int shards : {1, 2, 8}) {
        const Rack rack(*dev_, clib_, rackConfig(shards, 0));
        RuntimeService svc(rack, {.workers = 1});
        const auto stats = svc.executeBatchCompiledPerJob({*sched_}).total;
        totals.push_back(stats.totalSamples);
        EXPECT_EQ(static_cast<int>(stats.shards.size()), shards);
    }
    EXPECT_EQ(totals[0], totals[1]);
    EXPECT_EQ(totals[1], totals[2]);
}

// ------------------------------- adaptive playback through the rack

/** A bogota rack whose library was compiled with per-channel
 *  planning, plus a CX-heavy schedule that exercises the adaptive
 *  flat-top entries. */
struct AdaptiveRackFixture
{
    waveform::DeviceModel dev = waveform::DeviceModel::ibm("bogota");
    core::LibraryCompileResult compiled;
    circuits::Schedule sched;

    AdaptiveRackFixture()
    {
        const auto lib = waveform::PulseLibrary::build(dev);
        compiled = core::CompressionPipeline::with("int-dct")
                       .window(16)
                       .mseTarget(1e-5)
                       .planAdaptive()
                       .workers(2)
                       .build()
                       .compileLibrary(lib);
        circuits::Circuit c(5);
        for (const auto &[a, b] : dev.coupling())
            c.add(circuits::Op::CX, {a, b});
        for (int q = 0; q < 5; ++q)
            c.add(circuits::Op::X, {q});
        sched = circuits::schedule(c, {});
    }

    Rack
    makeRack(std::size_t cache_windows) const
    {
        RackConfig rc;
        rc.numShards = 2;
        rc.controller = controllerConfig(compiled.library);
        rc.cacheWindows = cache_windows;
        return Rack(dev,
                    std::make_shared<const core::CompressedLibrary>(
                        compiled.library),
                    rc);
    }
};

TEST(RackAdaptive, FlatSegmentsBypassTheIdctDuringPlayback)
{
    const AdaptiveRackFixture fx;
    // The CR flat-tops went adaptive at compile time.
    ASSERT_GT(fx.compiled.stats.adaptiveChannels, 0u);

    const Rack rack = fx.makeRack(4096);
    RuntimeService svc(rack, {.workers = 2});
    const auto stats = svc.executeBatchCompiledPerJob({fx.sched}).total;

    // Expected bypass volume: the flat samples of every played gate.
    std::uint64_t expect_bypass = 0, expect_samples = 0;
    for (const auto &e : fx.sched.events) {
        const auto id = uarch::gateIdFor(e.gate);
        if (!id)
            continue;
        const auto &cw = fx.compiled.library.entry(*id).cw;
        expect_bypass +=
            cw.i.bypassSamples() + cw.q.bypassSamples();
        expect_samples += cw.stats().originalSamples;
    }
    ASSERT_GT(expect_bypass, 0u);
    EXPECT_EQ(stats.totalBypassSamples, expect_bypass);
    EXPECT_EQ(stats.totalSamples, expect_samples);
    // The demand model charges the same bypass the playback served.
    std::uint64_t demand_bypass = 0;
    for (const auto &sh : stats.shards)
        demand_bypass += sh.demand.bypassSamples;
    EXPECT_EQ(demand_bypass, expect_bypass);
    // Flat windows never enter the cache, so cache traffic covers
    // only the ramp windows.
    EXPECT_LT(stats.cache.hits + stats.cache.misses,
              stats.totalWindows);
}

TEST(RackAdaptive, CachedAndUncachedPlaybackAgree)
{
    const AdaptiveRackFixture fx;
    const Rack cachedRack = fx.makeRack(4096);
    const Rack uncachedRack = fx.makeRack(0);
    RuntimeService cached(cachedRack, {.workers = 1});
    RuntimeService uncached(uncachedRack, {.workers = 1});
    const auto a = cached.executeBatchCompiledPerJob({fx.sched}).total;
    const auto b = uncached.executeBatchCompiledPerJob({fx.sched}).total;
    EXPECT_EQ(a.totalSamples, b.totalSamples);
    EXPECT_EQ(a.totalBypassSamples, b.totalBypassSamples);
    EXPECT_EQ(a.totalWindows, b.totalWindows);
}

TEST(RackAdaptive, WorkerCountDoesNotChangeAdaptivePlayback)
{
    const AdaptiveRackFixture fx;
    std::vector<RackStats> runs;
    for (const int workers : {1, 8}) {
        const Rack rack = fx.makeRack(4096);
        RuntimeService svc(rack, {.workers = workers});
        runs.push_back(
            svc.executeBatchCompiledPerJob({fx.sched, fx.sched}).total);
    }
    EXPECT_EQ(runs[0].totalSamples, runs[1].totalSamples);
    EXPECT_EQ(runs[0].totalBypassSamples,
              runs[1].totalBypassSamples);
    EXPECT_EQ(runs[0].totalWindows, runs[1].totalWindows);
    for (std::size_t s = 0; s < runs[0].shards.size(); ++s) {
        EXPECT_EQ(runs[0].shards[s].samplesBypassed,
                  runs[1].shards[s].samplesBypassed);
        EXPECT_EQ(runs[0].shards[s].demand.bypassSamples,
                  runs[1].shards[s].demand.bypassSamples);
    }
}

TEST(RackAdaptive, ControllerPlaybackMatchesGoldenDecoder)
{
    // The acceptance contract: an adaptive entry plays back through
    // the hardware pipeline bit-exact with the software decoder,
    // with the IDCT engine bypassed on the flat segments.
    const AdaptiveRackFixture fx;
    const core::CompressedLibrary &clib = fx.compiled.library;
    const uarch::ControllerConfig cc = controllerConfig(clib);
    uarch::Controller::validateLibrary(cc, clib);
    const uarch::Controller ctrl(cc);
    const core::Decompressor dec;
    std::vector<std::int32_t> played;
    bool sawAdaptive = false;
    for (const auto &[id, e] : clib.entries()) {
        if (!e.cw.i.isAdaptive())
            continue;
        sawAdaptive = true;
        played.assign(e.cw.i.numWindows() * cc.windowSize, 0);
        const auto stats = ctrl.playGateInto(clib, id, played);
        EXPECT_GT(stats.bypassSamples, 0u);
        const auto golden = dec.decompressChannel(e.cw.i, e.cw.codec);
        ASSERT_EQ(stats.samplesOut, golden.size());
        for (std::size_t k = 0; k < golden.size(); ++k)
            ASSERT_EQ(played[k], dsp::IntDct::quantize(golden[k]))
                << waveform::toString(id) << " sample " << k;
    }
    EXPECT_TRUE(sawAdaptive);
}

// ---------------------------------------------------- window player

/** Play every (first, count) sub-range of one channel through one
 *  player, and the same windows one at a time through a second: the
 *  counters must match each other and the segment map, and the range
 *  must tick decode.kernel.* by its batches once. Recording the same
 *  plays through two recorders must leave their counters and
 *  decode.kernel.* alone, and the two event logs must be identical and
 *  replay into fresh models with identical counters. */
void
expectRangesMatchOneWindowPlays(const Rack &rack,
                                const waveform::GateId &id,
                                const core::CompressedEntry &e,
                                std::uint8_t ch)
{
    constexpr std::uint32_t kBatch = WindowPlayer::kBatchWindows;
    const core::CompressedChannel &channel = ch == 0 ? e.cw.i : e.cw.q;
    const auto n = static_cast<std::uint32_t>(channel.numWindows());
    const VersionedLibrary vlib = rack.currentLibrary();
    WindowEventLog ranged, single;
    WindowPlayer a(rack, vlib);
    WindowPlayer b(rack, vlib);
    WindowPlayer ra(rack, vlib, &ranged);
    WindowPlayer rb(rack, vlib, &single);
    auto &batches =
        telemetry::Registry::global().counter("decode.kernel.batches");
    auto &windows =
        telemetry::Registry::global().counter("decode.kernel.windows");
    for (std::uint32_t first = 0; first < n; ++first)
        for (std::uint32_t count = 1; first + count <= n; ++count) {
            const std::string tag = waveform::toString(id) + " ch" +
                                    std::to_string(ch) + " [" +
                                    std::to_string(first) + ", +" +
                                    std::to_string(count) + ")";
            ranged.clear();
            single.clear();
            PlaybackCounters ca, cb, want, recorded;
            std::uint32_t flat = 0;
            const std::uint64_t b0 = batches.value();
            const std::uint64_t w0 = windows.value();
            a.playWindows(id, e, ch, first, count, ca);
            EXPECT_EQ(batches.value() - b0, (count + kBatch - 1) / kBatch)
                << tag;
            EXPECT_EQ(windows.value() - w0, count) << tag;
            const std::uint64_t b1 = batches.value();
            const std::uint64_t w1 = windows.value();
            ra.playWindows(id, e, ch, first, count, recorded);
            for (std::uint32_t w = first; w < first + count; ++w)
                rb.playWindows(id, e, ch, w, 1, recorded);
            EXPECT_EQ(batches.value(), b1) << tag;
            EXPECT_EQ(windows.value(), w1) << tag;
            EXPECT_EQ(recorded.windows + recorded.samples, 0u) << tag;
            for (std::uint32_t w = first; w < first + count; ++w) {
                b.playWindows(id, e, ch, w, 1, cb);
                const std::size_t len = channel.windowSamples(w);
                std::size_t local = 0;
                want.samples += len;
                if (channel.isAdaptive() &&
                    channel.segmentForWindow(w, local).isFlat) {
                    want.bypassed += len;
                    ++flat;
                }
            }
            want.windows = count;
            for (const PlaybackCounters *c : {&ca, &cb}) {
                EXPECT_EQ(c->gates, 0u) << tag;
                EXPECT_EQ(c->windows, want.windows) << tag;
                EXPECT_EQ(c->samples, want.samples) << tag;
                EXPECT_EQ(c->bypassed, want.bypassed) << tag;
            }
            ASSERT_EQ(ranged.size(), single.size()) << tag;
            for (std::size_t i = 0; i < ranged.size(); ++i) {
                const WindowEvent &x = ranged[i], &y = single[i];
                EXPECT_TRUE(x.gate == y.gate && x.prefetch == y.prefetch &&
                            x.first == y.first && x.count == y.count &&
                            x.iWindows == y.iWindows &&
                            x.windows == y.windows &&
                            x.windowSize == y.windowSize &&
                            x.libVersion == y.libVersion)
                    << tag << " event " << i;
            }
            TieredWindowStore ma(rack.cache().config());
            TieredWindowStore mb(rack.cache().config());
            const auto ra = replayLog(ma, ranged);
            const auto rb = replayLog(mb, single);
            EXPECT_EQ(ra.hits, rb.hits) << tag;
            EXPECT_EQ(ra.misses, rb.misses) << tag;
            EXPECT_EQ(ra.evictions, rb.evictions) << tag;
            EXPECT_EQ(ra.entries, rb.entries) << tag;
            // A cold model misses every ramp window once; flat windows
            // never enter it.
            EXPECT_EQ(ra.misses, count - flat) << tag;
        }
}

TEST(WindowPlayer, RangePlaysMatchOneWindowPlays)
{
    // The player's one-pass walk over every sub-range of an adaptive
    // channel (ramp, flat, ramp — each longer than a batch, so ranges
    // start and end inside flat and ramp segments and span several
    // kBatchWindows chunks) and of a long plain channel.
    constexpr std::size_t kBatch = WindowPlayer::kBatchWindows;
    const AdaptiveRackFixture fx;
    const Rack adaptive = fx.makeRack(4096);
    const auto longest = [](const core::CompressedChannel &c,
                            bool flat) {
        std::size_t best = 0;
        for (const auto &seg : c.segments)
            if (seg.isFlat == flat)
                best = std::max(best, (seg.samples() + c.windowSize - 1) /
                                          c.windowSize);
        return best;
    };
    bool played_adaptive = false;
    for (const auto &[id, e] : fx.compiled.library.entries()) {
        if (!e.cw.i.isAdaptive() || longest(e.cw.i, true) <= kBatch ||
            longest(e.cw.i, false) <= kBatch)
            continue;
        expectRangesMatchOneWindowPlays(adaptive, id, e, 0);
        played_adaptive = true;
        break;
    }
    EXPECT_TRUE(played_adaptive);

    const auto plain_lib = std::make_shared<const core::CompressedLibrary>(
        buildCompressed(waveform::PulseLibrary::build(fx.dev)));
    RackConfig rc;
    rc.numShards = 1;
    rc.controller = controllerConfig(*plain_lib);
    rc.cacheWindows = 4096;
    const Rack plain(fx.dev, plain_lib, rc);
    const waveform::GateId *best_id = nullptr;
    const core::CompressedEntry *best = nullptr;
    for (const auto &[id, e] : plain_lib->entries())
        if (!best || e.cw.q.numWindows() > best->cw.q.numWindows()) {
            best_id = &id;
            best = &e;
        }
    ASSERT_NE(best, nullptr);
    ASSERT_FALSE(best->cw.q.isAdaptive());
    ASSERT_GT(best->cw.q.numWindows(), 2 * kBatch);
    expectRangesMatchOneWindowPlays(plain, *best_id, *best, 1);
}

// --------------------------------------------------- library registry

TEST(LibraryRegistry, PublishAssignsMonotonicVersionsAndTracksLives)
{
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    auto a = std::make_shared<core::CompressedLibrary>(
        buildCompressed(lib));
    auto b = std::make_shared<core::CompressedLibrary>(
        buildCompressed(lib, 32));

    LibraryRegistry reg(a);
    const std::uint64_t v1 = reg.currentVersion();
    EXPECT_GT(v1, 0u);
    EXPECT_EQ(reg.swaps(), 0u);
    EXPECT_EQ(reg.current().lib.get(), a.get());
    EXPECT_EQ(reg.current().version, v1);

    const std::uint64_t v2 = reg.publish(b);
    EXPECT_GT(v2, v1);
    EXPECT_EQ(reg.swaps(), 1u);
    EXPECT_EQ(reg.current().lib.get(), b.get());

    // Both epochs are alive: the test still holds `a`.
    EXPECT_EQ(reg.liveVersions(), 2u);
    bool saw_current = false;
    for (const auto &info : reg.versions())
        if (info.current) {
            saw_current = true;
            EXPECT_EQ(info.version, v2);
        }
    EXPECT_TRUE(saw_current);

    // Drop the last external pin on the retired epoch: it leaves the
    // live set (the registry holds retirees only weakly).
    a.reset();
    EXPECT_EQ(reg.liveVersions(), 1u);
}

TEST(LibraryRegistry, NullLibraryThrowsAndPublishesNothing)
{
    EXPECT_THROW(LibraryRegistry{nullptr}, std::invalid_argument);

    const auto dev = waveform::DeviceModel::ibm("bogota");
    LibraryRegistry reg(std::make_shared<const core::CompressedLibrary>(
        buildCompressed(waveform::PulseLibrary::build(dev))));
    const std::uint64_t v1 = reg.currentVersion();
    EXPECT_THROW(reg.publish(nullptr), std::invalid_argument);
    EXPECT_EQ(reg.currentVersion(), v1);
    EXPECT_EQ(reg.swaps(), 0u);
}

TEST(LibraryRegistry, PinnedEpochSurvivesLaterPublishes)
{
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    auto a = std::make_shared<core::CompressedLibrary>(
        buildCompressed(lib));
    LibraryRegistry reg(a);
    a.reset();

    // An in-flight batch pins the epoch it started under; the swap
    // must not invalidate it (RCU grace period by refcount).
    const VersionedLibrary pinned = reg.current();
    reg.publish(std::make_shared<core::CompressedLibrary>(
        buildCompressed(lib, 32)));
    ASSERT_TRUE(pinned);
    EXPECT_GT(pinned->entries().size(), 0u);
    EXPECT_NE(pinned.version, reg.currentVersion());
    EXPECT_EQ(reg.liveVersions(), 2u); // `pinned` keeps it alive
}

TEST(RackSwap, SwapRejectsContractViolationsAndKeepsServing)
{
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    auto good = std::make_shared<core::CompressedLibrary>(
        buildCompressed(lib));
    // Window size 32 violates a windowSize-16 controller contract.
    auto bad = std::make_shared<core::CompressedLibrary>(
        buildCompressed(lib, 32));

    RackConfig rc;
    rc.numShards = 2;
    rc.controller = controllerConfig(*good);
    Rack rack(dev, good, rc);
    // The rack owns its one epoch through the registry.
    EXPECT_EQ(rack.registry()->liveVersions(), 1u);
    const std::uint64_t v1 = rack.currentLibrary().version;
    EXPECT_THROW(rack.swapLibrary(nullptr), std::exception);
    EXPECT_THROW(rack.swapLibrary(bad), std::invalid_argument);
    // Failed swaps leave the current epoch untouched.
    EXPECT_EQ(rack.currentLibrary().version, v1);

    auto good2 = std::make_shared<core::CompressedLibrary>(
        buildCompressed(lib));
    const std::uint64_t v2 = rack.swapLibrary(good2);
    EXPECT_GT(v2, v1);
    EXPECT_EQ(rack.currentLibrary().version, v2);
}

TEST(RackSwap, NullLibraryOrRegistryConstructionThrows)
{
    const auto dev = waveform::DeviceModel::ibm("bogota");
    RackConfig rc;
    rc.numShards = 2;
    EXPECT_THROW(
        Rack(dev, std::shared_ptr<const core::CompressedLibrary>{}, rc),
        std::invalid_argument);
    EXPECT_THROW(Rack(dev, std::shared_ptr<LibraryRegistry>{}, rc),
                 std::invalid_argument);
}

TEST(RackSwap, StaleWindowsAgeOutWithoutAFlush)
{
    // Decoded-window keys carry the library version: after a swap the
    // old epoch's windows are unreachable (never served to the new
    // calibration) but NOT flushed — they age out through normal LRU
    // replacement while the new epoch's windows fill in beside them.
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    auto a = std::make_shared<core::CompressedLibrary>(
        buildCompressed(lib));
    auto b = std::make_shared<core::CompressedLibrary>(
        buildCompressed(lib));
    RackConfig rc;
    rc.numShards = 2;
    rc.controller = controllerConfig(*a);
    rc.cacheWindows = 1 << 14;
    Rack rack(dev, a, rc);
    RuntimeService svc(rack, {.workers = 1});

    circuits::Circuit c(5);
    for (int q = 0; q < 5; ++q)
        c.x(q);
    const auto sched = circuits::schedule(c, {});

    svc.executeBatchCompiledPerJob({sched}); // cold fill, epoch v1
    const auto warm = svc.executeBatchCompiledPerJob({sched}).total;
    EXPECT_EQ(warm.cache.misses, 0u);
    EXPECT_GT(warm.cache.hits, 0u);

    rack.swapLibrary(b);
    // Same schedule, new epoch: the old windows are invisible, so
    // this pass decodes cold again — no flush was needed to keep the
    // calibrations apart.
    const auto fresh = svc.executeBatchCompiledPerJob({sched}).total;
    EXPECT_GT(fresh.cache.misses, 0u);
    // The new epoch is warm now.
    const auto warm2 = svc.executeBatchCompiledPerJob({sched}).total;
    EXPECT_EQ(warm2.cache.misses, 0u);
    EXPECT_GT(warm2.cache.hits, 0u);
}

} // namespace
} // namespace compaqt::runtime
