/**
 * @file
 * The rack's waveform-memory model: a keys-only, two-tier LRU over
 * (gate, channel, window, library version) that counts what a
 * decoded-window memory would do for the rack's plays (hit rates,
 * admission, tier-1 penalty cycles, footprint) without holding a
 * sample; playback always decodes. Tier 0 models the small fast BRAM
 * next to the DACs (free hits), tier 1 a large slow tier behind it
 * (cascaded random-access memories, arXiv:2503.13953) whose every
 * access (hit, fill, demotion) costs `tier1PenaltyCycles`.
 *
 * Only replay feeds the model. Each compiled plan carries its shard
 * programs' events — one WindowEvent per PLAY range and per PREFETCH
 * streak, recorded once at compile time — and RuntimeService's grid
 * replays a batch's plans in (circuit, shard) order as one job beside
 * the cells that decode them. The counters are thus bit-identical at
 * any worker count.
 */

#ifndef COMPAQT_RUNTIME_TIERED_STORE_HH
#define COMPAQT_RUNTIME_TIERED_STORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "waveform/library.hh"

namespace compaqt::runtime
{

/** Which windows the model lets into the fast tier. */
enum class AdmissionPolicy
{
    /** Every fill lands in tier 0 (plain LRU). */
    AdmitAlways,
    /** TinyLFU-style: a count-min frequency sketch over demand
     *  probes; when tier 0 is full, a candidate enters only if its
     *  estimated frequency beats the tier-0 LRU victim's. */
    TinyLfu,
};

/** Printable policy name, e.g. "tinylfu". */
const char *admissionPolicyName(AdmissionPolicy p);

/** Per-tier slice of the model's counters. */
struct TierCounters
{
    /** Demand probes this tier served, and those it could not (for
     *  tier 0 including the probes tier 1 then served). */
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Windows dropped out of this tier (demotions are not drops). */
    std::uint64_t evictions = 0;
    /** Fills placed directly into this tier, and fills the admission
     *  policy kept out of it. */
    std::uint64_t admitted = 0;
    std::uint64_t admitRejected = 0;
    /** Resident windows, and their footprint in samples — the modeled
     *  BRAM size (a short tail window still occupies a full window). */
    std::size_t entries = 0;
    std::size_t residentSamples = 0;
};

/** Counter snapshot of the model. The aggregate fields keep the
 *  single-level cache's names and meanings (a tier-1 hit is still a
 *  hit; only a full drop is an eviction). */
struct TieredStoreStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /** PREFETCH accounting: cold prefetches the model inserted (a
     *  resident window is only refreshed), prefetched windows a demand
     *  probe later claimed (each once), and prefetched windows evicted
     *  unclaimed. */
    std::uint64_t prefetches = 0;
    std::uint64_t prefetchHits = 0;
    std::uint64_t prefetchWasted = 0;
    /** Resident windows and footprint in samples, both tiers. */
    std::size_t entries = 0;
    std::size_t residentSamples = 0;
    /** Windows moved tier 1 -> tier 0 (proven reuse), and tier 0 ->
     *  tier 1 under tier-0 pressure. */
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    /** Modeled stall cycles: tier1PenaltyCycles per tier-1 demand hit
     *  and per write into tier 1 (fills and demotions). */
    std::uint64_t penaltyCycles = 0;
    std::array<TierCounters, 2> tier{};

    /** Fraction of demand probes either tier served. */
    double hitRate() const { return share(hits); }
    /** Fraction of demand probes tier 0 served for free. */
    double tier0HitRate() const { return share(tier[0].hits); }

    /** Fold another snapshot in: counters sum; the point-in-time
     *  entries/residentSamples latch `o`'s values when nonzero. */
    void accumulate(const TieredStoreStats &o);

    /** Counter deltas between two snapshots of one model; the
     *  point-in-time fields take `after`'s values. */
    static TieredStoreStats delta(const TieredStoreStats &before,
                                  const TieredStoreStats &after);

  private:
    double
    share(std::uint64_t n) const
    {
        const auto total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(n) / total;
    }
};

/** The rollup name every RackStats/ServerStats field uses. */
using DecodedCacheStats = TieredStoreStats;

/** Budget of one tier. */
struct TierConfig
{
    /** Maximum resident windows; 0 disables the tier. */
    std::size_t windows = 0;
    /** Maximum resident samples (the BRAM size under mixed window
     *  sizes); 0 = bounded by `windows` alone. */
    std::size_t sampleBudget = 0;
};

/** Static configuration of a TieredWindowStore. */
struct TieredStoreConfig
{
    /** The small fast tier (BRAM): free hits. */
    TierConfig tier0;
    /** The large slow tier; windows == 0 = single-tier model. */
    TierConfig tier1;
    AdmissionPolicy admission = AdmissionPolicy::AdmitAlways;
    /** Modeled cycles charged per tier-1 access (hit or write). */
    std::uint64_t tier1PenaltyCycles = 8;
};

/** One recorded access to windows [first, first + count) of one gate,
 *  numbering the I channel's windows [0, iWindows), then the Q's: a
 *  demand PLAY range, or a PREFETCH range (one folded streak of
 *  PREFETCH ops). Either is applied window by window, in order, so a
 *  range lands on exactly the counters of its one-window events. */
struct WindowEvent
{
    waveform::GateId gate;
    bool prefetch = false;
    /** PREFETCH only: the compiler's tier hint (0 fast, 1 slow). */
    std::uint8_t tier = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    std::uint32_t iWindows = 0;
    /** The gate's window count, both channels. */
    std::uint32_t windows = 0;
    /** Samples one resident window occupies. */
    std::uint32_t windowSize = 0;
    /** Keys of different versions never satisfy each other. */
    std::uint64_t libVersion = 0;
};

/** One shard program's recorded accesses, in play order. */
using WindowEventLog = std::vector<WindowEvent>;

/** Keys-only two-tier LRU model of a rack's decoded-window memory.
 *  Thread-safe: replay() and stats() serialize on one mutex. */
class TieredWindowStore
{
  public:
    /** A model with no window budget is disabled: demand probes count
     *  misses, nothing is ever resident, prefetches do nothing. */
    explicit TieredWindowStore(const TieredStoreConfig &cfg);
    ~TieredWindowStore();

    const TieredStoreConfig &config() const { return cfg_; }

    /** Total window budget across both tiers (0 = disabled). */
    std::size_t
    capacity() const
    {
        return cfg_.tier0.windows + cfg_.tier1.windows;
    }

    /** True when a slow tier is provisioned. */
    bool tiered() const { return cfg_.tier1.windows > 0; }

    /** Apply `*logs[0]`, `*logs[1]`, ... in order, atomically, and
     *  return the counters this replay added (point-in-time fields:
     *  the state after it). A demand window probes tier 0, then tier 1
     *  (a proven-reuse tier-1 hit promotes); a miss fills under the
     *  admission policy. A PREFETCH window is inserted cold into its
     *  hinted tier or refreshed if resident (a tier-0 hint promotes a
     *  tier-1 window); `prefetches_inserted[i]` (one per log) gets log
     *  i's cold inserts. The replay's list splices (one per run of
     *  tier-0 windows still linked in play order) go to the registry
     *  counter `cache.replay.splices`. */
    TieredStoreStats replay(std::span<const WindowEventLog *const> logs,
                            std::span<std::uint64_t> prefetches_inserted);

    TieredStoreStats stats() const;

  private:
    struct Model;

    TieredStoreConfig cfg_;
    mutable std::mutex mu_;
    std::unique_ptr<Model> model_;
};

} // namespace compaqt::runtime

#endif // COMPAQT_RUNTIME_TIERED_STORE_HH
