#include "runtime/rack.hh"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "common/logging.hh"

namespace compaqt::runtime
{

const char *
shardPolicyName(ShardPolicy p)
{
    switch (p) {
      case ShardPolicy::RoundRobin:
        return "round-robin";
      case ShardPolicy::LocalityAware:
        return "locality-aware";
    }
    COMPAQT_PANIC("unknown shard policy");
}

namespace
{

ShardPlan
roundRobinPlan(std::size_t n_qubits, int num_shards)
{
    ShardPlan plan;
    plan.numShards = num_shards;
    plan.owner.resize(n_qubits);
    plan.shards.resize(static_cast<std::size_t>(num_shards));
    for (std::size_t q = 0; q < n_qubits; ++q) {
        const int s = static_cast<int>(q) % num_shards;
        plan.owner[q] = s;
        plan.shards[static_cast<std::size_t>(s)].push_back(
            static_cast<int>(q));
    }
    return plan;
}

ShardPlan
localityPlan(const waveform::DeviceModel &dev, int num_shards)
{
    const std::size_t n = dev.numQubits();
    ShardPlan plan;
    plan.numShards = num_shards;
    plan.owner.assign(n, -1);
    plan.shards.resize(static_cast<std::size_t>(num_shards));

    // Even block size; the first (n mod N) shards take one extra.
    const std::size_t base = n / static_cast<std::size_t>(num_shards);
    const std::size_t extra = n % static_cast<std::size_t>(num_shards);
    auto target = [&](int s) {
        return base +
               (static_cast<std::size_t>(s) < extra ? 1u : 0u);
    };

    // BFS from the lowest unassigned qubit, filling one shard with a
    // connected block before moving to the next. Sorted neighbor
    // order keeps the plan deterministic.
    int shard = 0;
    std::deque<int> frontier;
    for (std::size_t seed = 0; seed < n; ++seed) {
        if (plan.owner[seed] != -1)
            continue;
        frontier.push_back(static_cast<int>(seed));
        while (!frontier.empty()) {
            const int q = frontier.front();
            frontier.pop_front();
            if (plan.owner[static_cast<std::size_t>(q)] != -1)
                continue;
            while (shard < num_shards - 1 &&
                   plan.shards[static_cast<std::size_t>(shard)]
                           .size() >= target(shard))
                ++shard;
            plan.owner[static_cast<std::size_t>(q)] = shard;
            plan.shards[static_cast<std::size_t>(shard)].push_back(q);
            auto neigh = dev.neighbors(q);
            std::sort(neigh.begin(), neigh.end());
            for (int v : neigh)
                if (plan.owner[static_cast<std::size_t>(v)] == -1)
                    frontier.push_back(v);
        }
    }
    for (auto &qs : plan.shards)
        std::sort(qs.begin(), qs.end());
    return plan;
}

} // namespace

ShardPlan
makeShardPlan(const waveform::DeviceModel &dev, int num_shards,
              ShardPolicy policy)
{
    if (num_shards < 1)
        throw std::invalid_argument(
            "runtime::Rack: numShards must be >= 1");
    switch (policy) {
      case ShardPolicy::RoundRobin:
        return roundRobinPlan(dev.numQubits(), num_shards);
      case ShardPolicy::LocalityAware:
        return localityPlan(dev, num_shards);
    }
    COMPAQT_PANIC("unknown shard policy");
}

Rack::Rack(const waveform::DeviceModel &dev,
           std::shared_ptr<const core::CompressedLibrary> lib,
           const RackConfig &cfg)
    : Rack(dev, std::make_shared<LibraryRegistry>(std::move(lib)),
           cfg)
{
}

Rack::Rack(const waveform::DeviceModel &dev,
           std::shared_ptr<LibraryRegistry> registry,
           const RackConfig &cfg)
    : cfg_(cfg), registry_(std::move(registry)),
      plan_(makeShardPlan(dev, cfg.numShards, cfg.policy)),
      cache_(cfg.storeConfig())
{
    if (!registry_)
        throw std::invalid_argument(
            "runtime::Rack: registry must not be null");
    const VersionedLibrary vlib = registry_->current();
    if (!vlib)
        throw std::invalid_argument(
            "runtime::Rack: registry holds no current library");
    // One contract validation covers every shard (the controllers
    // are identical, library-less copies) and re-runs per hot-swap
    // publish in swapLibrary().
    uarch::Controller::validateLibrary(cfg_.controller, *vlib);
    controllers_.reserve(static_cast<std::size_t>(plan_.numShards));
    for (int s = 0; s < plan_.numShards; ++s)
        controllers_.emplace_back(cfg_.controller);
}

void
Rack::validateLibrary(const core::CompressedLibrary &lib) const
{
    uarch::Controller::validateLibrary(cfg_.controller, lib);
}

std::uint64_t
Rack::swapLibrary(std::shared_ptr<const core::CompressedLibrary> lib)
{
    if (!lib)
        throw std::invalid_argument(
            "Rack::swapLibrary: library must not be null");
    validateLibrary(*lib);
    return registry_->publish(std::move(lib));
}

const uarch::Controller &
Rack::controller(int shard) const
{
    COMPAQT_REQUIRE(shard >= 0 && shard < plan_.numShards,
                    "shard index out of range");
    return controllers_[static_cast<std::size_t>(shard)];
}

std::size_t
Rack::maxConcurrentQubits() const
{
    std::size_t total = 0;
    for (const auto &c : controllers_)
        total += c.maxConcurrentQubits();
    return total;
}

} // namespace compaqt::runtime
