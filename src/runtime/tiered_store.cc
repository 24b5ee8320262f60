#include "runtime/tiered_store.hh"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "common/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace compaqt::runtime
{

namespace
{

using Stats = TieredStoreStats;

/** The summed counters (all but the point-in-time fields). */
constexpr std::uint64_t Stats::*kCounters[] = {
    &Stats::hits,         &Stats::misses,         &Stats::evictions,
    &Stats::prefetches,   &Stats::prefetchHits,   &Stats::prefetchWasted,
    &Stats::promotions,   &Stats::demotions,      &Stats::penaltyCycles};
constexpr std::uint64_t TierCounters::*kTierCounters[] = {
    &TierCounters::hits, &TierCounters::misses, &TierCounters::evictions,
    &TierCounters::admitted, &TierCounters::admitRejected};

/** Bump the registry's cache.tier{0,1}.* counters (looked up once)
 *  by one replay's deltas. */
void
publish(const Stats &d)
{
    static const char *const kNames[] = {"hit", "miss", "promote",
                                         "demote", "admit_rejected"};
    static const auto counters = [] {
        std::array<std::array<telemetry::Counter *, 5>, 2> c{};
        for (std::size_t t = 0; t < 2; ++t)
            for (std::size_t k = 0; k < 5; ++k)
                c[t][k] = &telemetry::Registry::global().counter(
                    "cache.tier" + std::to_string(t) + "." + kNames[k]);
        return c;
    }();
    for (std::size_t t = 0; t < 2; ++t) {
        const std::uint64_t v[] = {d.tier[t].hits, d.tier[t].misses,
                                   d.promotions, d.demotions,
                                   d.tier[t].admitRejected};
        for (std::size_t k = 0; k < 5; ++k)
            counters[t][k]->add(v[k]);
    }
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::uint64_t
hashGate(const waveform::GateId &g)
{
    const auto bits = [](int v) {
        return static_cast<std::uint64_t>(v) & 0xFFFFFFu;
    };
    return mix64(bits(static_cast<int>(g.type)) << 48 |
                 bits(g.q0) << 24 | bits(g.q1));
}

/** Count-min frequency sketch with periodic halving (TinyLFU aging):
 *  four probes per key into 4-bit counters, a table ~4x the tracked
 *  population, all counters halved every ~8 table sizes of adds. */
struct FrequencySketch
{
    std::vector<std::uint8_t> counters;
    std::uint64_t adds = 0;
    std::uint64_t agingWindow = 0;

    void
    reset(std::size_t entries)
    {
        std::size_t size = 64;
        while (size < entries * 4 && size < (std::size_t{1} << 20))
            size <<= 1;
        counters.assign(size, 0);
        agingWindow = static_cast<std::uint64_t>(size) * 8;
    }

    std::uint8_t &
    at(std::uint64_t hash, std::uint64_t i)
    {
        return counters[(hash + i * (hash >> 32 | 1)) &
                        (counters.size() - 1)];
    }

    void
    add(std::uint64_t hash)
    {
        for (std::uint64_t i = 0; i < 4; ++i)
            if (std::uint8_t &c = at(hash, i); c < 15)
                ++c;
        if (++adds >= agingWindow) {
            for (auto &c : counters)
                c = static_cast<std::uint8_t>(c >> 1);
            adds >>= 1;
        }
    }

    std::uint8_t
    estimate(std::uint64_t hash)
    {
        return std::min({at(hash, 0), at(hash, 1), at(hash, 2), at(hash, 3)});
    }
};

} // namespace

const char *
admissionPolicyName(AdmissionPolicy p)
{
    switch (p) {
      case AdmissionPolicy::AdmitAlways:
        return "admit-always";
      case AdmissionPolicy::TinyLfu:
        return "tinylfu";
    }
    COMPAQT_PANIC("unknown admission policy");
}

void
TieredStoreStats::accumulate(const TieredStoreStats &o)
{
    const auto latch = [](std::size_t &to, std::size_t from) {
        to = from != 0 ? from : to;
    };
    for (const auto f : kCounters)
        this->*f += o.*f;
    latch(entries, o.entries);
    latch(residentSamples, o.residentSamples);
    for (std::size_t t = 0; t < tier.size(); ++t) {
        for (const auto f : kTierCounters)
            tier[t].*f += o.tier[t].*f;
        latch(tier[t].entries, o.tier[t].entries);
        latch(tier[t].residentSamples, o.tier[t].residentSamples);
    }
}

TieredStoreStats
TieredStoreStats::delta(const TieredStoreStats &before,
                        const TieredStoreStats &after)
{
    TieredStoreStats d = after;
    for (const auto f : kCounters)
        d.*f -= before.*f;
    for (std::size_t t = 0; t < d.tier.size(); ++t)
        for (const auto f : kTierCounters)
            d.tier[t].*f -= before.tier[t].*f;
    return d;
}

/**
 * The model's state and algorithms, run under the owner's mutex.
 * (gate, library version) maps to a run of per-window nodes, I channel
 * then Q, so a replayed range costs one hash lookup and then the
 * per-window counter updates. Consecutive tier-0 windows still linked
 * in their last play's order move to the MRU end in one splice rather
 * than one relink each. A run is freed once none of its windows is
 * resident, so retired library versions do not grow memory across
 * hot-swaps.
 */
struct TieredWindowStore::Model
{
    static constexpr std::uint8_t kAbsent = 0xFF;

    struct Run;

    struct Node
    {
        Node *prev = nullptr;
        Node *next = nullptr;
        Run *run = nullptr;
        /** 0, 1, or kAbsent. */
        std::uint8_t tier = kAbsent;
        /** Tier-1 only: reuse proven (a prior tier-1 hit, or a
         *  demotion out of tier 0); the next tier-1 hit promotes. */
        bool touched = false;
        /** Inserted by PREFETCH and not yet claimed by demand. */
        bool prefetched = false;
    };

    struct RunKey
    {
        waveform::GateId gate;
        std::uint64_t libVersion = 0;
        bool operator==(const RunKey &) const = default;
    };
    struct RunHash
    {
        std::uint64_t
        operator()(const RunKey &k) const noexcept
        {
            return hashGate(k.gate) ^ mix64(k.libVersion);
        }
    };

    struct Run
    {
        RunKey key;
        /** RunHash of key, the base of every window's sketch key. */
        std::uint64_t hash = 0;
        std::unique_ptr<Node[]> nodes;
        std::uint32_t windows = 0;
        std::uint32_t iWindows = 0;
        std::uint32_t windowSize = 0;
        /** Resident windows; the run is freed when this drops to 0. */
        std::uint32_t resident = 0;
    };

    explicit Model(const TieredStoreConfig &c) : cfg(c)
    {
        for (Node &h : head)
            h.prev = h.next = &h;
        if (cfg.admission == AdmissionPolicy::TinyLfu)
            sketch.reset(std::max<std::size_t>(cfg.tier0.windows, 1));
    }

    /** Apply one event; returns its cold prefetch inserts. */
    std::uint64_t
    apply(const WindowEvent &e)
    {
        if (cfg.tier0.windows + cfg.tier1.windows == 0) {
            // Disabled: demand misses, prefetches have nowhere to go.
            stats.misses += e.prefetch ? 0 : e.count;
            return 0;
        }
        const RunKey key{e.gate, e.libVersion};
        auto [it, fresh] = runs.try_emplace(key);
        Run &run = it->second;
        if (fresh) {
            run = {key, RunHash{}(key),
                   std::make_unique<Node[]>(e.windows), e.windows,
                   e.iWindows, e.windowSize};
            for (std::uint32_t w = 0; w < run.windows; ++w)
                run.nodes[w].run = &run;
        }
        COMPAQT_REQUIRE(e.count > 0 && e.first + e.count <= e.windows &&
                            run.windows == e.windows &&
                            run.iWindows == e.iWindows,
                        "window event outside its gate's window grid");
        current = &run;
        const bool tinyLfu = cfg.admission == AdmissionPolicy::TinyLfu;
        std::uint64_t inserted = 0, tier0Hits = 0, claimed = 0;
        for (std::uint32_t w = e.first; w < e.first + e.count; ++w) {
            Node &n = run.nodes[w];
            if (n.tier == 0) {
                // A tier-0 hit (or PREFETCH refresh) only moves the
                // window to the MRU end, so it joins the pending
                // splice; its counters are summed for the event.
                if (!e.prefetch) {
                    if (tinyLfu)
                        sketch.add(hashWindow(n));
                    ++tier0Hits;
                    // The first demand touch of a prefetched window
                    // claims it.
                    claimed += n.prefetched ? 1 : 0;
                    n.prefetched = false;
                }
                chain(n);
                continue;
            }
            // Anything else may read or reshape the lists: the pending
            // splice lands first.
            flush();
            if (e.prefetch)
                inserted += prefetch(n, e.tier) ? 1 : 0;
            else
                probe(n);
        }
        flush();
        stats.hits += tier0Hits;
        stats.tier[0].hits += tier0Hits;
        stats.prefetchHits += claimed;
        current = nullptr;
        if (run.resident == 0)
            runs.erase(it);
        return inserted;
    }

    /** Demand probe of a window tier 0 does not hold (apply() serves
     *  tier-0 hits). */
    void
    probe(Node &n)
    {
        if (cfg.admission == AdmissionPolicy::TinyLfu)
            sketch.add(hashWindow(n));
        if (n.tier == kAbsent) {
            ++stats.misses;
            stats.tier[0].misses += cfg.tier0.windows > 0 ? 1 : 0;
            stats.tier[1].misses += cfg.tier1.windows > 0 ? 1 : 0;
            const std::uint8_t tier = admissionTier(n);
            if (tier != kAbsent)
                insert(n, tier);
            return;
        }
        // Tier 0 probed first and could not serve; tier 1 did.
        ++stats.hits;
        ++stats.tier[1].hits;
        ++stats.tier[0].misses;
        stats.prefetchHits += n.prefetched ? 1 : 0;
        n.prefetched = false;
        chargeTier1();
        if (n.touched && cfg.tier0.windows > 0) {
            promote(n);
        } else {
            // First tier-1 touch: mark reuse, promote on the next.
            n.touched = true;
            move(n, 1);
        }
    }

    /** PREFETCH of a window tier 0 does not hold (apply() refreshes
     *  tier-0 windows); true when it inserted a cold one. */
    bool
    prefetch(Node &n, std::uint8_t hint)
    {
        if (n.tier == 1) {
            if (hint == 0 && cfg.tier0.windows > 0) {
                // The compiler saw a short reuse distance: pull the
                // staged window into the fast tier ahead of its PLAY.
                chargeTier1();
                promote(n);
            } else {
                move(n, 1);
            }
            return false;
        }
        // A hint for a disabled tier falls back to the enabled one.
        ++stats.prefetches;
        n.prefetched = true;
        insert(n, cfg.tier1.windows == 0   ? 0
                  : cfg.tier0.windows == 0 ? 1
                                           : hint);
        return true;
    }

    /** Demand placement: 0, 1, or kAbsent (counts admitRejected). */
    std::uint8_t
    admissionTier(const Node &n)
    {
        if (cfg.tier0.windows == 0)
            return 1; // tier-1-only model
        if (cfg.admission == AdmissionPolicy::AdmitAlways)
            return 0;
        const TierCounters &t0 = stats.tier[0];
        const bool full = t0.entries >= cfg.tier0.windows ||
                          (cfg.tier0.sampleBudget > 0 &&
                           t0.residentSamples >= cfg.tier0.sampleBudget);
        // Challenge the LRU victim: the candidate displaces it only
        // when the sketch says it is touched more often.
        if (!full || t0.entries == 0 ||
            sketch.estimate(hashWindow(n)) >
                sketch.estimate(hashWindow(*head[0].prev)))
            return 0;
        ++stats.tier[0].admitRejected;
        return cfg.tier1.windows > 0 ? 1 : kAbsent;
    }

    /** Link `n` at the MRU end of `tier`. */
    void
    link(Node &n, std::uint8_t tier)
    {
        Node &h = head[tier];
        n.next = h.next;
        n.prev = &h;
        h.next->prev = &n;
        h.next = &n;
    }

    void
    insert(Node &n, std::uint8_t tier)
    {
        link(n, tier);
        n.tier = tier;
        n.touched = false;
        ++stats.entries;
        ++stats.tier[tier].entries;
        stats.residentSamples += n.run->windowSize;
        stats.tier[tier].residentSamples += n.run->windowSize;
        ++n.run->resident;
        ++stats.tier[tier].admitted;
        if (tier == 1)
            chargeTier1();
        evict(tier);
    }

    /** Move a resident node to the MRU end of `tier`. */
    void
    move(Node &n, std::uint8_t tier)
    {
        n.prev->next = n.next;
        n.next->prev = n.prev;
        link(n, tier);
        if (n.tier != tier) {
            --stats.tier[n.tier].entries;
            stats.tier[n.tier].residentSamples -= n.run->windowSize;
            ++stats.tier[tier].entries;
            stats.tier[tier].residentSamples += n.run->windowSize;
            n.tier = tier;
        }
    }

    /**
     * Queue a tier-0 node's move to the MRU end. The pending splice is
     * a run of nodes linked newest-first, as consecutive windows of one
     * range are after a play: `n` extends it when it sits right on its
     * MRU side (n.next is the window before it), which moves the same
     * nodes to the same place as one relink per window would. Otherwise
     * the pending splice lands and a new one starts at `n`.
     */
    void
    chain(Node &n)
    {
        if (chainNewest && n.next == chainNewest) {
            chainNewest = &n;
            return;
        }
        flush();
        chainNewest = chainOldest = &n;
    }

    /** Move the pending splice [chainNewest .. chainOldest] to the MRU
     *  end of tier 0 with one unlink and one link. */
    void
    flush()
    {
        if (!chainNewest)
            return;
        chainNewest->prev->next = chainOldest->next;
        chainOldest->next->prev = chainNewest->prev;
        Node &h = head[0];
        chainOldest->next = h.next;
        h.next->prev = chainOldest;
        chainNewest->prev = &h;
        h.next = chainNewest;
        chainNewest = chainOldest = nullptr;
        ++splices;
    }

    void
    promote(Node &n)
    {
        move(n, 0);
        n.touched = false;
        ++stats.promotions;
        evict(0);
    }

    /** Evict `tier` down to its budgets: tier 0 demotes into tier 1
     *  when one exists (dropping otherwise), tier 1 drops. */
    void
    evict(std::uint8_t tier)
    {
        const TierConfig &tc = tier == 0 ? cfg.tier0 : cfg.tier1;
        const TierCounters &t = stats.tier[tier];
        // The sample budget never evicts the just-touched MRU entry:
        // one oversized window may exceed the whole budget on its own
        // and must still be servable while resident.
        while (t.entries > tc.windows ||
               (tc.sampleBudget > 0 && t.residentSamples > tc.sampleBudget &&
                t.entries > 1)) {
            Node &victim = *head[tier].prev;
            if (tier == 1 || cfg.tier1.windows == 0) {
                drop(victim);
                continue;
            }
            move(victim, 1);
            // A demoted window already proved reuse in tier 0; its next
            // tier-1 hit promotes it straight back.
            victim.touched = true;
            ++stats.demotions;
            chargeTier1();
            evict(1);
        }
    }

    void
    drop(Node &n)
    {
        Run &run = *n.run;
        n.prev->next = n.next;
        n.next->prev = n.prev;
        n.prev = n.next = nullptr;
        TierCounters &t = stats.tier[n.tier];
        --stats.entries;
        --t.entries;
        stats.residentSamples -= run.windowSize;
        t.residentSamples -= run.windowSize;
        ++stats.evictions;
        ++t.evictions;
        n.tier = kAbsent;
        stats.prefetchWasted += n.prefetched ? 1 : 0;
        n.prefetched = false;
        if (--run.resident == 0 && &run != current)
            runs.erase(run.key);
    }

    void chargeTier1() { stats.penaltyCycles += cfg.tier1PenaltyCycles; }

    /** The sketch key: the run's hash extended by (channel, window). */
    static std::uint64_t
    hashWindow(const Node &n)
    {
        const Run &run = *n.run;
        const auto index =
            static_cast<std::uint32_t>(&n - run.nodes.get());
        const std::uint64_t q = index >= run.iWindows ? 1 : 0;
        return mix64(run.hash ^ (q << 32 | (index - q * run.iWindows)));
    }

    const TieredStoreConfig &cfg;
    /** Per-tier circular LRU lists through sentinels: next = MRU side,
     *  prev = LRU side. */
    std::array<Node, 2> head;
    std::unordered_map<RunKey, Run, RunHash> runs;
    /** The run the event being applied plays; never freed mid-event. */
    const Run *current = nullptr;
    /** The pending splice's MRU-side and LRU-side ends (null: none).
     *  Only ever pending within one event. */
    Node *chainNewest = nullptr;
    Node *chainOldest = nullptr;
    /** Splices made so far (flushes of a pending chain). */
    std::uint64_t splices = 0;
    FrequencySketch sketch;
    Stats stats;
};

TieredWindowStore::TieredWindowStore(const TieredStoreConfig &cfg)
    : cfg_(cfg), model_(std::make_unique<Model>(cfg_))
{
}

TieredWindowStore::~TieredWindowStore() = default;

TieredStoreStats
TieredWindowStore::replay(std::span<const WindowEventLog *const> logs,
                          std::span<std::uint64_t> prefetches_inserted)
{
    COMPAQT_REQUIRE(prefetches_inserted.size() == logs.size(),
                    "one prefetch tally per replayed log");
    COMPAQT_TRACE_SPAN("cache", "cache.replay", "logs", logs.size());
    static telemetry::Counter &splices =
        telemetry::Registry::global().counter("cache.replay.splices");
    std::lock_guard lock(mu_);
    const Stats before = model_->stats;
    const std::uint64_t splicesBefore = model_->splices;
    for (std::size_t i = 0; i < logs.size(); ++i) {
        std::uint64_t inserted = 0;
        for (const WindowEvent &e : *logs[i])
            inserted += model_->apply(e);
        prefetches_inserted[i] = inserted;
    }
    const Stats d = Stats::delta(before, model_->stats);
    publish(d);
    splices.add(model_->splices - splicesBefore);
    return d;
}

TieredStoreStats
TieredWindowStore::stats() const
{
    std::lock_guard lock(mu_);
    return model_->stats;
}

} // namespace compaqt::runtime
