/**
 * @file
 * Seeded inputs and fleet set-up for the fleet serving benchmark.
 *
 * Three traffic mixes drive runtime::Server on the compiled back end:
 *
 *   qec_steady   open loop: QEC tenants resubmit one d=5 rotated
 *                surface-code syndrome cycle at a fixed period; the
 *                store holds the whole decoded working set.
 *   calib_churn  closed loop: QEC cycles interleaved 1:1 with seeded
 *                random calibration sequences on an 8-patch device;
 *                the two-tier TinyLfu store is several times smaller
 *                than the window footprint.
 *   recal_swap   qec_steady traffic plus Server::swapLibrary() at fixed
 *                intervals, alternating two calibrations.
 *
 * Everything the program receives — schedules, due times, swap times —
 * is generated here from the seed before any timing starts.
 */

#ifndef FLEETBENCH_WORKLOAD_HH
#define FLEETBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuits/scheduler.hh"
#include "core/compressed_library.hh"
#include "runtime/server.hh"
#include "waveform/device.hh"

namespace fleetbench
{

using namespace compaqt;

/** SplitMix64: a tiny, platform-independent seeded generator. */
struct Rng
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Uniform in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }
};

enum class Loop
{
    /** Jobs are submitted at their due times, whatever the fleet does. */
    Open,
    /** A fixed number of jobs is kept in flight. */
    Closed,
};

/** One job of the seeded stream. */
struct Job
{
    std::string tenant;
    /** Index into Inputs::schedules. */
    std::size_t schedule = 0;
    /** Open loop: due time in seconds from the start of the phase. */
    double due = 0.0;
};

/** One library hot-swap of the seeded stream (recal_swap). */
struct Swap
{
    double due = 0.0;
    /** Index into Fleet::calibrations. */
    std::size_t calibration = 0;
};

/** The seeded inputs of one run. */
struct Inputs
{
    std::string workload;
    Loop loop = Loop::Open;
    /** Distinct schedules; [0] is the QEC syndrome cycle. */
    std::vector<circuits::Schedule> schedules;
    /** Warm-up jobs run at set-up (not measured). */
    std::vector<Job> warmup;
    /** Measured jobs: due-ordered (open loop) or in submission order
     *  (closed loop). */
    std::vector<Job> jobs;
    std::vector<Swap> swaps;
    /** Closed loop: jobs kept in flight. */
    int inFlight = 0;
    /** Open loop: total offered rate, jobs/s. */
    double offeredRate = 0.0;
    /** Two-tier TinyLfu store sized below the footprint (true) or a
     *  single-tier store holding every window of the library. */
    bool churnStore = false;
    /** Calibrations compiled at set-up (1, or 2 for recal_swap). */
    int calibrations = 1;
};

/**
 * The measured phase is cut into this many equal windows. Latency
 * percentiles are medians over the windows, so a burst of contention
 * from outside the benchmark moves one window and not the result;
 * recal_swap swaps once per window.
 */
constexpr int kWindows = 8;

/** A device made of `patches` disjoint d=5 rotated patches. */
waveform::DeviceModel makeDevice(int patches);

/** Patches in a workload's device (calib_churn's is 8x the patch). */
int devicePatches(const std::string &workload);

/**
 * Generate every input of one run from the seed. `seconds` bounds the
 * open-loop stream and sizes the closed-loop pool; `rate` (jobs/s)
 * replaces the open-loop mixes' offered rate when it is not 0.
 * @throws std::invalid_argument on an unknown workload name
 */
Inputs makeInputs(const std::string &workload, std::uint64_t seed,
                  double seconds, const waveform::DeviceModel &dev,
                  double rate = 0.0);

/** Thread budget of the fleet: racks x workers per rack. */
struct ThreadBudget
{
    int nproc = 1;
    int racks = 1;
    int workersPerRack = 1;
    /** generator + racks x workers. */
    int threads() const { return 1 + racks * workersPerRack; }
};

/** Fit one generator thread plus the fleet into the CPUs this process
 *  may run on (its affinity mask, as `nproc` counts them). */
ThreadBudget planThreads();

/** What one set-up built, plus its timings. */
struct Fleet
{
    /** Calibration libraries: [0] is served first; recal_swap swaps
     *  between [0] and [1]. */
    std::vector<std::shared_ptr<const core::CompressedLibrary>>
        calibrations;
    /** One private copy of its calibration per measured swap: the
     *  fleet becomes the only owner on publish, so a retired epoch is
     *  released as soon as nothing pins it. */
    std::vector<std::shared_ptr<const core::CompressedLibrary>>
        swapCopies;
    runtime::FleetConfig config;
    std::unique_ptr<runtime::Server> server;
    /** Library version -> index into calibrations. */
    std::vector<std::pair<std::uint64_t, std::size_t>> versions;
    double setupSeconds = 0.0;
    double libraryCompileSeconds = 0.0;
    /** Quiescent swapLibrary() wall at set-up. */
    double quiescentSwapSeconds = 0.0;

    /** Calibration index a library version was published from;
     *  returns calibrations.size() for an unknown version. */
    std::size_t calibrationOf(std::uint64_t version) const;
};

/**
 * Compile the calibrations, build the fleet, publish one quiescent
 * swap and run the warm-up jobs. Throws when a warm-up job does not
 * complete.
 */
Fleet setUp(const Inputs &in, const waveform::DeviceModel &dev,
            const ThreadBudget &budget);

} // namespace fleetbench

#endif // FLEETBENCH_WORKLOAD_HH
