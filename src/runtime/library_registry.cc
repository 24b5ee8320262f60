#include "runtime/library_registry.hh"

#include <stdexcept>

#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace compaqt::runtime
{

namespace
{

/** Registry-wide swap telemetry; registered once per process. */
struct RegistryMetrics
{
    telemetry::Counter &published;
    telemetry::Gauge &currentVersion;
    telemetry::Gauge &liveVersions;

    static RegistryMetrics &
    instance()
    {
        static RegistryMetrics m = [] {
            auto &reg = telemetry::Registry::global();
            return RegistryMetrics{
                reg.counter("fleet.library.published"),
                reg.gauge("fleet.library.current_version"),
                reg.gauge("fleet.library.live_versions"),
            };
        }();
        return m;
    }
};

} // namespace

LibraryRegistry::LibraryRegistry(
    std::shared_ptr<const core::CompressedLibrary> initial)
{
    publish(std::move(initial));
}

std::uint64_t
LibraryRegistry::publish(
    std::shared_ptr<const core::CompressedLibrary> lib)
{
    if (!lib)
        throw std::invalid_argument(
            "LibraryRegistry: cannot publish a null library");
    auto &metrics = RegistryMetrics::instance();
    std::uint64_t version = 0;
    std::size_t live = 0;
    {
        std::lock_guard lock(mu_);
        version = lib->version();
        if (version <= current_.version)
            version = current_.version + 1;
        current_ = VersionedLibrary{std::move(lib), version};
        history_[version] = current_.lib;
        ++published_;
        // Prune fully-released retirees while we hold the lock; the
        // map stays bounded by the number of pinned epochs.
        for (auto it = history_.begin(); it != history_.end();)
            it = it->second.expired() ? history_.erase(it)
                                      : std::next(it);
        live = history_.size();
    }
    metrics.published.add();
    metrics.currentVersion.set(static_cast<double>(version));
    metrics.liveVersions.set(static_cast<double>(live));
    COMPAQT_TRACE_INSTANT("fleet", "library.publish", "version",
                          version);
    return version;
}

VersionedLibrary
LibraryRegistry::current() const
{
    std::lock_guard lock(mu_);
    return current_;
}

std::uint64_t
LibraryRegistry::currentVersion() const
{
    std::lock_guard lock(mu_);
    return current_.version;
}

std::uint64_t
LibraryRegistry::swaps() const
{
    std::lock_guard lock(mu_);
    return published_ > 0 ? published_ - 1 : 0;
}

std::vector<LibraryVersionInfo>
LibraryRegistry::versions() const
{
    std::vector<LibraryVersionInfo> out;
    {
        std::lock_guard lock(mu_);
        for (auto it = history_.begin(); it != history_.end();) {
            const long pins = it->second.use_count();
            if (pins == 0) {
                it = history_.erase(it);
                continue;
            }
            out.push_back({it->first, pins,
                           it->first == current_.version});
            ++it;
        }
    }
    RegistryMetrics::instance().liveVersions.set(
        static_cast<double>(out.size()));
    return out;
}

std::size_t
LibraryRegistry::liveVersions() const
{
    return versions().size();
}

} // namespace compaqt::runtime
