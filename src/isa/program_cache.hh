/**
 * @file
 * Compiled artifacts as persistent objects: one bounded, thread-safe
 * LRU keyed by what an artifact was compiled from and against which
 * library version. RuntimeService keeps whole-schedule plans in it
 * (isa::PlanCache), so the serving plane dispatches a hot schedule
 * without partitioning, accounting or compiling it again; the
 * per-slice ProgramCache form keys one shard program each. A library
 * hot-swap invalidates transparently — post-swap dispatches miss on
 * the new version key, recompile once, and the stale entries are
 * dropped by dropStale() or age out by LRU. This is the
 * dispatch-by-handle substrate the ROADMAP's feedback plane builds on.
 */

#ifndef COMPAQT_ISA_PROGRAM_CACHE_HH
#define COMPAQT_ISA_PROGRAM_CACHE_HH

#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "isa/isa.hh"

namespace compaqt::isa
{

/** Identity of one compiled per-shard program. */
struct ProgramKey
{
    /** circuits::scheduleFingerprint of the shard's slice, folded
     *  with the compiler-config hash. */
    std::uint64_t fingerprint = 0;
    int shard = 0;
    /** Library version the program was compiled against. */
    std::uint64_t libVersion = 0;

    auto operator<=>(const ProgramKey &) const = default;
};

/** Cache observability counters (monotonic since construction). */
struct ProgramCacheStats
{
    /** Lookups: every get() is one hit or one miss, a disabled
     *  cache's included. */
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    /** Capacity evictions (LRU victim dropped for a new entry). */
    std::uint64_t evictions = 0;
    /** Entries dropped because their library version retired. */
    std::uint64_t staleDropped = 0;
    /** Cached artifacts. */
    std::size_t entries = 0;

    double
    hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0
                   ? 0.0
                   : static_cast<double>(hits) /
                         static_cast<double>(total);
    }
};

/**
 * Bounded thread-safe LRU over shared immutable artifacts. `Key` must
 * be ordered and carry the `libVersion` its artifact was compiled
 * against. Capacity is counted in weight units: each put() charges its
 * artifact a weight (a shard program weighs 1, a whole-schedule plan
 * its shard count), and an artifact heavier than the whole capacity is
 * handed back uncached. Handing out shared_ptr<const Artifact> means a
 * runner can keep executing an artifact that was concurrently evicted
 * — eviction drops the cache's reference, never the artifact under a
 * runner.
 */
template <class Key, class Artifact>
class ArtifactCache
{
  public:
    /** @param capacity maximum cached weight; 0 disables the cache
     *  (get() always misses, put() stores nothing). */
    explicit ArtifactCache(std::size_t capacity = 256)
        : capacity_(capacity)
    {
    }

    std::size_t capacity() const { return capacity_; }
    bool enabled() const { return capacity_ > 0; }

    /** Look up an artifact; null on miss. A hit refreshes LRU order. */
    std::shared_ptr<const Artifact>
    get(const Key &key)
    {
        std::lock_guard lock(mu_);
        const auto it = index_.find(key);
        if (it == index_.end()) {
            ++stats_.misses;
            return nullptr;
        }
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->artifact;
    }

    /**
     * Insert a freshly compiled artifact weighing `weight`, returning
     * the cached one. First-wins on a concurrent-compile race: if
     * `key` is already present, the existing artifact is returned and
     * `artifact` is discarded (both compiles of one key are
     * bit-identical, so either is correct — keeping the first
     * preserves LRU age).
     */
    std::shared_ptr<const Artifact>
    put(const Key &key, Artifact artifact, std::size_t weight = 1)
    {
        auto shared =
            std::make_shared<const Artifact>(std::move(artifact));
        if (weight > capacity_)
            return shared;
        std::lock_guard lock(mu_);
        if (const auto it = index_.find(key); it != index_.end())
            return it->second->artifact; // lost the race; first wins
        lru_.push_front({key, shared, weight});
        index_.emplace(key, lru_.begin());
        weight_ += weight;
        ++stats_.insertions;
        while (weight_ > capacity_) {
            erase(std::prev(lru_.end()));
            ++stats_.evictions;
        }
        return shared;
    }

    /**
     * Drop every entry compiled against a version older than
     * `currentVersion` — the post-swap sweep. Cheap when nothing is
     * stale (one lock, one walk over live entries).
     */
    void
    dropStale(std::uint64_t currentVersion)
    {
        std::lock_guard lock(mu_);
        for (auto it = lru_.begin(); it != lru_.end();) {
            const auto next = std::next(it);
            if (it->key.libVersion < currentVersion) {
                erase(it);
                ++stats_.staleDropped;
            }
            it = next;
        }
    }

    ProgramCacheStats
    stats() const
    {
        std::lock_guard lock(mu_);
        ProgramCacheStats s = stats_;
        s.entries = lru_.size();
        return s;
    }

  private:
    struct Entry
    {
        Key key;
        std::shared_ptr<const Artifact> artifact;
        std::size_t weight = 1;
    };
    using LruList = std::list<Entry>;

    void
    erase(typename LruList::iterator it)
    {
        weight_ -= it->weight;
        index_.erase(it->key);
        lru_.erase(it);
    }

    const std::size_t capacity_;
    mutable std::mutex mu_;
    LruList lru_; //< front = most recent
    std::map<Key, typename LruList::iterator> index_;
    /** Summed weight of the cached entries; <= capacity_. */
    std::size_t weight_ = 0;
    ProgramCacheStats stats_;
};

/** Per-shard programs keyed by (slice fingerprint, shard, version). */
using ProgramCache = ArtifactCache<ProgramKey, InstructionProgram>;

} // namespace compaqt::isa

#endif // COMPAQT_ISA_PROGRAM_CACHE_HH
