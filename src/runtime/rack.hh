/**
 * @file
 * A control rack: one large device sharded across many
 * uarch::Controller instances (one per RFSoC), the way 1000-qubit
 * machines are actually driven — a fleet of per-channel engines
 * behind a shared scheduler (Khammassi et al., arXiv:2205.06851;
 * Hornibrook et al., arXiv:1409.2202). The rack owns the qubit->shard
 * plan, the per-shard controllers, the registry that owns the
 * shared compressed library, and the rack's waveform-memory model.
 */

#ifndef COMPAQT_RUNTIME_RACK_HH
#define COMPAQT_RUNTIME_RACK_HH

#include <memory>
#include <vector>

#include "core/compressed_library.hh"
#include "runtime/library_registry.hh"
#include "runtime/tiered_store.hh"
#include "uarch/controller.hh"
#include "waveform/device.hh"

namespace compaqt::runtime
{

/** How qubits are assigned to shards. */
enum class ShardPolicy
{
    /** Qubit q -> shard q mod N; spreads neighbors apart. */
    RoundRobin,
    /** BFS over the device coupling map, filling one shard with a
     *  connected block before starting the next, so coupled qubits
     *  (and their CX pulses) land on the same controller. */
    LocalityAware,
};

/** Printable policy name. */
const char *shardPolicyName(ShardPolicy p);

/** A qubit->shard assignment and its inverse. */
struct ShardPlan
{
    int numShards = 1;
    /** qubit -> owning shard. */
    std::vector<int> owner;
    /** shard -> qubits, each list ascending. */
    std::vector<std::vector<int>> shards;
};

/**
 * Deterministically assign a device's qubits to `num_shards` shards.
 * Both policies depend only on (device, num_shards, policy), never on
 * execution order, so a plan is reproducible across runs and worker
 * counts.
 */
ShardPlan makeShardPlan(const waveform::DeviceModel &dev,
                        int num_shards, ShardPolicy policy);

/** Static configuration of a rack. */
struct RackConfig
{
    int numShards = 4;
    ShardPolicy policy = ShardPolicy::LocalityAware;
    /** Per-shard controller configuration (every RFSoC identical). */
    uarch::ControllerConfig controller;
    /** Modeled fast-tier (BRAM) capacity in windows, a rack total;
     *  0 = no memory model (playback decodes either way). */
    std::size_t cacheWindows = 4096;
    /** Fast-tier sample budget; 0 = bounded by cacheWindows alone
     *  (see TierConfig::sampleBudget). */
    std::size_t cacheSampleBudget = 0;
    /** Modeled slow-tier window capacity; 0 = single-tier model. */
    std::size_t tier1Windows = 0;
    /** Slow-tier sample budget; 0 = bounded by tier1Windows alone. */
    std::size_t tier1SampleBudget = 0;
    /** Fast-tier admission policy. */
    AdmissionPolicy admission = AdmissionPolicy::AdmitAlways;
    /** Modeled cycles per slow-tier access, charged into
     *  RackStats::cache.penaltyCycles. */
    std::uint64_t tier1PenaltyCycles = 8;

    /** The waveform-memory model these knobs describe. */
    TieredStoreConfig
    storeConfig() const
    {
        return {{cacheWindows, cacheSampleBudget},
                {tier1Windows, tier1SampleBudget},
                admission,
                tier1PenaltyCycles};
    }
};

/**
 * The sharded fleet: N identical controllers over one epoch-managed
 * compressed library, plus the rack's waveform-memory model. Immutable
 * after construction except for the model and the library registry
 * (hot-swap), so shards can execute concurrently.
 *
 * Library ownership is epoch-managed: the rack holds a
 * LibraryRegistry (possibly shared with other racks of a fleet) and
 * execution paths pin the current VersionedLibrary per batch — the
 * controllers themselves are library-less, so a retired calibration
 * is released the moment its last in-flight batch finishes, never
 * held for the rack's lifetime.
 */
class Rack
{
  public:
    /**
     * Own `lib` through a registry of this rack's own.
     * @throws std::invalid_argument when `lib` is null, violates the
     *         controller contract, or num_shards < 1
     */
    Rack(const waveform::DeviceModel &dev,
         std::shared_ptr<const core::CompressedLibrary> lib,
         const RackConfig &cfg);

    /**
     * Fleet form: attach to an existing registry (shared by every
     * rack of the fleet, so one publish recalibrates all of them).
     * @throws std::invalid_argument when the registry is null, holds
     *         no current library, or its current library violates
     *         the controller contract
     */
    Rack(const waveform::DeviceModel &dev,
         std::shared_ptr<LibraryRegistry> registry,
         const RackConfig &cfg);

    const RackConfig &config() const { return cfg_; }
    const ShardPlan &plan() const { return plan_; }
    int numShards() const { return plan_.numShards; }

    /** Pin the current library epoch for one batch of work. */
    VersionedLibrary
    currentLibrary() const
    {
        return registry_->current();
    }

    /** The (possibly fleet-shared) library registry. */
    const std::shared_ptr<LibraryRegistry> &
    registry() const
    {
        return registry_;
    }

    /**
     * Validate-and-publish a recalibrated library: the hot-swap admin
     * path. Never drains — in-flight batches finish on the epoch they
     * pinned. Returns the version assigned to `lib`.
     * @throws std::invalid_argument when `lib` violates the
     *         controller contract (the current library stays live)
     */
    std::uint64_t
    swapLibrary(std::shared_ptr<const core::CompressedLibrary> lib);

    /** The controller-contract check swapLibrary() applies. */
    void validateLibrary(const core::CompressedLibrary &lib) const;

    /** The shard's controller (library-less; pass the pinned epoch
     *  to execute()). */
    const uarch::Controller &controller(int shard) const;

    /** The rack's waveform-memory model (keys only; fed by the
     *  execution grid's replay). */
    TieredWindowStore &cache() const { return cache_; }

    /** Fleet capacity: sum of per-shard concurrent-qubit capacity. */
    std::size_t maxConcurrentQubits() const;

  private:
    RackConfig cfg_;
    std::shared_ptr<LibraryRegistry> registry_;
    ShardPlan plan_;
    std::vector<uarch::Controller> controllers_;
    mutable TieredWindowStore cache_;
};

} // namespace compaqt::runtime

#endif // COMPAQT_RUNTIME_RACK_HH
