/**
 * @file
 * Epoch-managed shared ownership of the compressed pulse library —
 * the unlock for live recalibration: the compile plane periodically
 * re-emits a library, and the serving plane must pick it up without
 * draining in-flight work (Hornibrook et al., arXiv:1409.2202 argue
 * the controller keeps serving while calibration state changes).
 *
 * The scheme is RCU-by-refcount. `LibraryRegistry::publish()` installs
 * a new current version and returns immediately — no lock is held
 * while any job executes, and nothing is drained. Every batch pins the
 * version it starts on by copying the current `VersionedLibrary` (a
 * `shared_ptr` bump); in-flight work keeps its pinned epoch alive
 * until the last holder drops it, at which point the retired
 * library's memory is released by the `shared_ptr` itself. The
 * registry keeps only `weak_ptr`s to retired versions, so observation
 * (per-version pin gauges, the retirement test's release assertion)
 * never extends a lifetime.
 */

#ifndef COMPAQT_RUNTIME_LIBRARY_REGISTRY_HH
#define COMPAQT_RUNTIME_LIBRARY_REGISTRY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/compressed_library.hh"

namespace compaqt::runtime
{

/**
 * One pinned epoch of the library: the payload plus the monotonic
 * version the registry assigned at publish. Copying it is the pin —
 * hold a copy for as long as results must be computed against this
 * exact library.
 */
struct VersionedLibrary
{
    std::shared_ptr<const core::CompressedLibrary> lib;
    std::uint64_t version = 0;

    explicit operator bool() const { return static_cast<bool>(lib); }
    const core::CompressedLibrary &operator*() const { return *lib; }
    const core::CompressedLibrary *operator->() const
    {
        return lib.get();
    }

    /** Entry lookup on the pinned epoch (the hot-loop shape). */
    const core::CompressedEntry *
    find(const waveform::GateId &id) const
    {
        return lib->find(id);
    }
};

/** Observation snapshot of one published version. */
struct LibraryVersionInfo
{
    std::uint64_t version = 0;
    /** Outstanding strong holders (the registry's own reference to
     *  the current version included). Approximate under concurrency,
     *  like any use_count. */
    long pins = 0;
    /** False once a newer version was published over it. */
    bool current = false;
};

/**
 * The shared, mutable home of "which library is live". Thread-safe;
 * publish() and current() may race freely from any number of
 * threads. One registry is typically shared by every rack of a fleet
 * so a single publish recalibrates all of them atomically.
 */
class LibraryRegistry
{
  public:
    LibraryRegistry() = default;

    /** Construct with an initial version already published.
     *  @throws std::invalid_argument when `initial` is null */
    explicit LibraryRegistry(
        std::shared_ptr<const core::CompressedLibrary> initial);

    /**
     * Install `lib` as the new current version and return the version
     * assigned to it. Monotonic: a library carrying its own nonzero
     * compile-plane stamp (CompressedLibrary::version()) keeps it when
     * it is newer than everything published so far; otherwise the
     * registry assigns last + 1. Never blocks on in-flight work — the
     * previous version retires to weak observation and releases when
     * its last pin drops.
     * @throws std::invalid_argument when `lib` is null (nothing is
     *         published)
     */
    std::uint64_t
    publish(std::shared_ptr<const core::CompressedLibrary> lib);

    /** Pin the current version (shared_ptr copy). */
    VersionedLibrary current() const;

    /** Version of the current epoch (0 when nothing published). */
    std::uint64_t currentVersion() const;

    /** Number of publish() calls beyond the first (swap count). */
    std::uint64_t swaps() const;

    /**
     * Snapshot every published version that is still reachable:
     * the current one plus retired versions some holder still pins.
     * Fully-released versions are pruned from the history as a side
     * effect, and the `fleet.library.*` gauges are refreshed.
     */
    std::vector<LibraryVersionInfo> versions() const;

    /** Count of versions still alive (current + pinned retirees). */
    std::size_t liveVersions() const;

  private:
    mutable std::mutex mu_;
    VersionedLibrary current_;
    std::uint64_t published_ = 0;
    /** version -> weak payload, for observation only. Pruned lazily
     *  by versions(); bounded by the number of concurrently pinned
     *  epochs plus reclaim lag. */
    mutable std::map<std::uint64_t,
                     std::weak_ptr<const core::CompressedLibrary>>
        history_;
};

} // namespace compaqt::runtime

#endif // COMPAQT_RUNTIME_LIBRARY_REGISTRY_HH
