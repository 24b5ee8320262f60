#include "workload.hh"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>

#include "circuits/surface_code.hh"
#include "core/library_compiler.hh"
#include "waveform/library.hh"

namespace fleetbench
{

namespace
{

using Clock = std::chrono::steady_clock;

constexpr int kDistance = 5;
/** QEC tenants of the open-loop mixes: 24 names spread over three
 *  racks within 1% of even on the consistent-hash ring. */
constexpr int kQecTenants = 24;
/** Total offered rate of the open-loop mixes, jobs/s: about half of
 *  the highest rate three racks sustain on this traffic without a
 *  growing backlog (about 1,300 jobs/s on a 4-vCPU host; fleetbench
 *  --rate measures it). */
constexpr double kOfferedRate = 600.0;
/** calib_churn: patches in the device, jobs in flight, and distinct
 *  calibration schedules in the closed-loop pool. The pool is cycled;
 *  it is large enough that a schedule's windows and programs are long
 *  gone from every cache when it comes round again. */
constexpr int kChurnPatches = 8;
constexpr int kChurnInFlight = 12;
constexpr std::size_t kChurnPool = 2048;
constexpr int kChurnTenants = 24;
/** Per calibration sequence: coupled pairs, extra single qubits, and
 *  the X/SX train length range. */
constexpr int kCalPairs = 4;
constexpr int kCalSingles = 12;
constexpr std::uint64_t kCalTrainMin = 1;
constexpr std::uint64_t kCalTrainSpan = 4;

circuits::SurfaceCode
patch()
{
    return circuits::makeSurfaceCode(kDistance,
                                     circuits::SurfaceLayout::Rotated, 1);
}

/**
 * One seeded calibration sequence: a few coupled pairs and single
 * qubits, each driven through a random X/SX train, the pairs
 * entangled by CX, then everything measured.
 */
circuits::Schedule
calibrationSchedule(Rng &rng, const waveform::DeviceModel &dev)
{
    const auto &edges = dev.coupling();
    circuits::Circuit c(dev.numQubits());
    std::vector<int> qubits;
    std::vector<std::pair<int, int>> pairs;
    for (int p = 0; p < kCalPairs; ++p) {
        auto [a, b] = edges[rng.below(edges.size())];
        if (rng.below(2))
            std::swap(a, b);
        pairs.emplace_back(a, b);
        qubits.push_back(a);
        qubits.push_back(b);
    }
    for (int s = 0; s < kCalSingles; ++s)
        qubits.push_back(static_cast<int>(rng.below(dev.numQubits())));
    std::sort(qubits.begin(), qubits.end());
    qubits.erase(std::unique(qubits.begin(), qubits.end()), qubits.end());

    const auto train = [&](int q) {
        const auto len = kCalTrainMin + rng.below(kCalTrainSpan);
        for (std::uint64_t k = 0; k < len; ++k) {
            if (rng.below(2))
                c.x(q);
            else
                c.sx(q);
        }
    };
    for (int q : qubits)
        train(q);
    for (const auto &[a, b] : pairs) {
        const auto reps = 1 + rng.below(2);
        for (std::uint64_t r = 0; r < reps; ++r)
            c.cx(a, b);
        train(a);
    }
    for (int q : qubits)
        c.measure(q);
    return circuits::schedule(c, {});
}

std::string
tenantName(const char *prefix, std::uint64_t i)
{
    return std::string(prefix) + "-" + std::to_string(i);
}

/** Open-loop QEC stream: every tenant resubmits the cycle at a fixed
 *  period. The period is cut into one slot per tenant, and each
 *  submission lands at a seeded offset within its tenant's slot, so
 *  arrivals stay evenly spread while how they collide on a rack
 *  changes from cycle to cycle. */
std::vector<Job>
qecStream(Rng &rng, double seconds, double rate)
{
    const double period = static_cast<double>(kQecTenants) / rate;
    const double slot = period / kQecTenants;
    std::vector<Job> jobs;
    for (double cycle = 0.0; cycle < seconds; cycle += period)
        for (int t = 0; t < kQecTenants; ++t) {
            const double due = cycle + (t + rng.uniform()) * slot;
            if (due < seconds)
                jobs.push_back(
                    {tenantName("qec", static_cast<std::uint64_t>(t)), 0,
                     due});
        }
    return jobs;
}

/** The per-rack configuration of a workload for its calibrations. */
runtime::RackConfig
rackConfig(const Inputs &in,
           const std::vector<std::shared_ptr<const core::CompressedLibrary>>
               &calibrations)
{
    runtime::RackConfig rc;
    rc.numShards = 4;
    rc.policy = runtime::ShardPolicy::LocalityAware;
    rc.controller.compressed = true;
    rc.controller.windowSize = 16;
    rc.controller.memoryWidth = 0;
    std::size_t windows = 0;
    for (const auto &lib : calibrations) {
        rc.controller.memoryWidth = std::max(
            rc.controller.memoryWidth, lib->worstCaseWindowWords());
        std::size_t w = 0;
        for (const auto &[id, e] : lib->entries())
            w += e.cw.i.numWindows() + e.cw.q.numWindows();
        windows = std::max(windows, w);
    }
    if (in.churnStore) {
        // Two-tier store about a tenth of the library: calibration
        // traffic touches the whole library, so its footprint is
        // several times the store.
        rc.cacheWindows = windows / 32;
        rc.tier1Windows = windows / 16;
        rc.admission = runtime::AdmissionPolicy::TinyLfu;
    } else {
        // Single tier holding every window of one calibration: the QEC
        // working set always fits, and after a swap the retired
        // version's windows age out by LRU.
        rc.cacheWindows = windows;
    }
    return rc;
}

} // namespace

waveform::DeviceModel
makeDevice(int patches)
{
    const auto sc = patch();
    const auto n = static_cast<int>(sc.totalQubits());
    const auto coupling = sc.nativeCoupling();
    std::vector<std::pair<int, int>> edges;
    for (int p = 0; p < patches; ++p)
        for (const auto &[a, b] : coupling.edges())
            edges.emplace_back(a + p * n, b + p * n);
    return waveform::DeviceModel::synthetic(
        "fleetbench-d5x" + std::to_string(patches),
        static_cast<std::size_t>(n * patches), std::move(edges));
}

int
devicePatches(const std::string &workload)
{
    return workload == "calib_churn" ? kChurnPatches : 1;
}

Inputs
makeInputs(const std::string &workload, std::uint64_t seed,
           double seconds, const waveform::DeviceModel &dev, double rate)
{
    Inputs in;
    in.workload = workload;
    Rng rng{seed};
    in.schedules.push_back(circuits::schedule(patch().circuit, {}));

    if (workload == "qec_steady" || workload == "recal_swap") {
        in.loop = Loop::Open;
        in.offeredRate = rate > 0.0 ? rate : kOfferedRate;
        for (int t = 0; t < kQecTenants; ++t)
            for (int k = 0; k < 4; ++k)
                in.warmup.push_back(
                    {tenantName("qec", static_cast<std::uint64_t>(t)),
                     0, 0.0});
        in.jobs = qecStream(rng, seconds, in.offeredRate);
        if (workload == "recal_swap") {
            in.calibrations = 2;
            // One swap in the middle half of every window.
            const double window = seconds / kWindows;
            for (int w = 0; w < kWindows; ++w)
                in.swaps.push_back(
                    {(w + 0.25 + 0.5 * rng.uniform()) * window,
                     static_cast<std::size_t>(1 - w % 2)});
        }
        return in;
    }

    if (workload != "calib_churn")
        throw std::invalid_argument("unknown workload '" + workload +
                                    "'");
    in.loop = Loop::Closed;
    in.inFlight = kChurnInFlight;
    in.churnStore = true;
    // Every calibration schedule is distinct: duplicates (by content
    // fingerprint) are redrawn.
    std::set<std::uint64_t> seen{
        circuits::scheduleFingerprint(in.schedules[0])};
    const auto fresh = [&] {
        for (;;) {
            auto s = calibrationSchedule(rng, dev);
            if (seen.insert(circuits::scheduleFingerprint(s)).second) {
                in.schedules.push_back(std::move(s));
                return in.schedules.size() - 1;
            }
        }
    };
    const auto interleave = [&](std::vector<Job> &out, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            out.push_back({tenantName("qec", i % kQecTenants), 0, 0.0});
            out.push_back({tenantName("cal", i % kChurnTenants), fresh(),
                           0.0});
        }
    };
    interleave(in.warmup, 128);
    interleave(in.jobs, kChurnPool);
    return in;
}

ThreadBudget
planThreads()
{
    ThreadBudget b;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    b.nproc = sched_getaffinity(0, sizeof mask, &mask) == 0
                  ? CPU_COUNT(&mask)
                  : static_cast<int>(std::max(
                        1u, std::thread::hardware_concurrency()));
    // One generator thread; every remaining core drives one rack whose
    // dispatcher is its only worker (the executor counts the
    // dispatcher as worker 0). At least one rack, at most three.
    b.racks = std::clamp(b.nproc - 1, 1, 3);
    b.workersPerRack = 1;
    return b;
}

std::size_t
Fleet::calibrationOf(std::uint64_t version) const
{
    for (const auto &[v, c] : versions)
        if (v == version)
            return c;
    return calibrations.size();
}

Fleet
setUp(const Inputs &in, const waveform::DeviceModel &dev,
      const ThreadBudget &budget)
{
    Fleet f;
    const auto t0 = Clock::now();

    const auto pulses = waveform::PulseLibrary::build(dev);
    for (int c = 0; c < in.calibrations; ++c) {
        core::LibraryCompilerConfig cc;
        cc.fidelity.base.codec = "int-dct";
        cc.fidelity.base.windowSize = 16;
        // The second calibration stands in for fresh calibration data:
        // same gates, different windows.
        cc.fidelity.targetMse = c == 0 ? 1e-5 : 1e-3;
        cc.workers = budget.nproc;
        const auto tc = Clock::now();
        auto compiled = core::LibraryCompiler(cc).compile(pulses);
        f.libraryCompileSeconds +=
            std::chrono::duration<double>(Clock::now() - tc).count();
        f.calibrations.push_back(
            std::make_shared<const core::CompressedLibrary>(
                std::move(compiled.library)));
    }

    const auto copyOf = [&](std::size_t c) {
        return std::make_shared<const core::CompressedLibrary>(
            *f.calibrations[c]);
    };
    for (const Swap &sw : in.swaps)
        f.swapCopies.push_back(copyOf(sw.calibration));

    f.config.racks = budget.racks;
    f.config.workers = budget.workersPerRack;
    f.config.rack = rackConfig(in, f.calibrations);
    f.config.queueDepth = 1u << 14;
    f.config.maxBatch = 16;
    f.config.virtualNodes = 128;
    f.config.backend = runtime::DispatchBackend::Compiled;
    f.server = std::make_unique<runtime::Server>(dev, copyOf(0), f.config);
    f.versions.emplace_back(f.server->registry()->currentVersion(), 0);

    // One quiescent publish of the same calibration, so every workload
    // reports the swap path's cost; the warm-up refills what it
    // staled.
    const auto ts = Clock::now();
    f.versions.emplace_back(f.server->swapLibrary(copyOf(0)), 0);
    f.quiescentSwapSeconds =
        std::chrono::duration<double>(Clock::now() - ts).count();

    std::vector<std::future<runtime::JobResult>> warm;
    warm.reserve(in.warmup.size());
    for (const Job &j : in.warmup)
        warm.push_back(
            f.server->submit({j.tenant, in.schedules[j.schedule]}));
    for (auto &w : warm) {
        const auto r = w.get();
        if (r.status != runtime::JobStatus::Completed)
            throw std::runtime_error("warm-up job did not complete: " +
                                     r.error);
    }
    f.setupSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return f;
}

} // namespace fleetbench
