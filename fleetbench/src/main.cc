/**
 * @file
 * Fleet serving benchmark.
 *
 *   fleetbench --workload <qec_steady|calib_churn|recal_swap>
 *              --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
 *              [--rate <jobs/s>]
 *
 * Generates the workload's inputs from the seed, sets the fleet up
 * (several times; set-up time is the median), drives runtime::Server
 * on the compiled back end for `seconds` from one generator thread,
 * checks every completed job against a 1-worker reference execution,
 * and prints the end-to-end metrics (--trace 0) or the per-layer
 * metrics of a traced replay (--trace 1) as the last line of stdout:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * Exits non-zero when any job's output mismatches its reference, any
 * job fails, an open-loop run ends with a backlog, or the traced
 * replay's shares do not add up. --rate replaces the open-loop offered
 * rate, to find the highest rate the fleet sustains.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "power/system.hh"
#include "replay.hh"
#include "runtime/service.hh"
#include "uarch/controller.hh"
#include "workload.hh"

using namespace fleetbench;

namespace
{

using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 5;
/** An open-loop run fails when more than this many seconds of offered
 *  load is still unfinished at the end of the phase. */
constexpr double kBacklogSeconds = 0.5;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string out = ".bench_out";
    /** Open-loop offered rate, jobs/s; 0 keeps the workload's own. */
    double rate = 0.0;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::stoull(v);
        } else if (k == "--seconds") {
            a.seconds = std::stod(v);
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--out") {
            a.out = v;
        } else if (k == "--rate") {
            a.rate = std::stod(v);
        } else {
            throw std::invalid_argument("unknown argument " + k);
        }
    }
    if (!have_workload || a.seconds <= 0.0 || a.rate < 0.0)
        throw std::invalid_argument(
            "usage: fleetbench --workload <name> --seed <n> "
            "--seconds <s> --trace <0|1> [--out <dir>] [--rate <jobs/s>]");
    return a;
}

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** Nearest-rank percentile, q in [0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The deterministic fields of a job's RackStats that must match the
 *  reference exactly. */
struct Expect
{
    std::uint64_t gates = 0;
    std::uint64_t windows = 0;
    std::uint64_t samples = 0;
    std::uint64_t bypass = 0;
    std::size_t peakBanks = 0;
    double peakBandwidth = 0.0;
    std::uint64_t missing = 0;
    std::uint64_t unowned = 0;

    static Expect
    of(const runtime::RackStats &s)
    {
        return {s.totalGates,
                s.totalWindows,
                s.totalSamples,
                s.totalBypassSamples,
                s.fleetPeakBanks,
                s.fleetPeakBandwidthBytesPerSec,
                s.missingGates,
                s.unownedEvents};
    }

    bool operator==(const Expect &) const = default;
};

/** One measured job's outcome. */
struct Record
{
    std::size_t job = 0;
    /** Due (open loop) or submit (closed loop) time, seconds from the
     *  start of the phase. */
    double start = 0.0;
    runtime::JobStatus status = runtime::JobStatus::Rejected;
    std::uint64_t version = 0;
    /** From due time (open loop) or submit (closed loop). */
    double latency = 0.0;
    double queue = 0.0;
    double execute = 0.0;
    std::uint64_t samples = 0;
    std::uint64_t prefetches = 0;
    Expect got;
};

/** Aggregate CPU ticks from /proc/stat: {steal, total}. Steal is time
 *  the host ran something else on this machine's virtual CPUs; a
 *  large share during the measured phase marks its timings as
 *  disturbed from outside. */
std::pair<double, double>
cpuTicks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    double total = 0.0, steal = 0.0, v = 0.0;
    for (int i = 0; i < 8 && stat >> v; ++i) {
        total += v;
        if (i == 7)
            steal = v;
    }
    return {steal, total};
}

/** What the measured phase observed. */
struct Measured
{
    std::vector<Record> records;
    std::size_t attempted = 0;
    double wallSeconds = 0.0;
    std::vector<double> generatorLag;
    std::vector<double> submitSeconds;
    std::vector<double> swapSeconds;
    /** Due time of each measured swap, seconds from phase start. */
    std::vector<double> swapDue;
    std::size_t versionsLiveMax = 1;
    /** CPU ticks at the start and the end of the phase. */
    std::pair<double, double> ticksBefore, ticksAfter;
    runtime::ServerStats before;
    runtime::ServerStats after;
};

Record
recordOf(std::size_t job, double start, const runtime::JobResult &r,
         double latency)
{
    Record rec;
    rec.job = job;
    rec.start = start;
    rec.status = r.status;
    rec.version = r.libraryVersion;
    rec.latency = latency;
    rec.queue = r.timing.queueSeconds;
    rec.execute = r.timing.executeSeconds;
    rec.samples = r.stats.totalSamples;
    rec.prefetches = r.stats.prefetchesIssued;
    rec.got = Expect::of(r.stats);
    return rec;
}

/** Open loop: submit each job (and publish each swap) at its due
 *  time; latency counts from the due time. */
Measured
runOpenLoop(const Inputs &in, Fleet &fleet, double run_seconds)
{
    Measured m;
    runtime::Server &server = *fleet.server;
    m.before = server.stats();
    struct Pending
    {
        std::size_t job;
        Clock::time_point due;
        Clock::time_point submitted;
        std::future<runtime::JobResult> fut;
    };
    std::vector<Pending> pending;
    pending.reserve(in.jobs.size());

    const auto start = Clock::now() + std::chrono::milliseconds(20);
    m.ticksBefore = cpuTicks();
    const auto at = [&](double s) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(s));
    };
    std::size_t next_swap = 0;
    for (std::size_t j = 0; j <= in.jobs.size(); ++j) {
        // Swaps due before this job go first.
        const double job_due =
            j < in.jobs.size() ? in.jobs[j].due : run_seconds;
        while (next_swap < in.swaps.size() &&
               in.swaps[next_swap].due <= job_due) {
            const std::size_t k = next_swap++;
            const Swap &sw = in.swaps[k];
            const auto due = at(sw.due);
            std::this_thread::sleep_until(due);
            const auto t0 = Clock::now();
            m.generatorLag.push_back(seconds(t0 - due));
            const auto v =
                server.swapLibrary(std::move(fleet.swapCopies[k]));
            m.swapSeconds.push_back(seconds(Clock::now() - t0));
            m.swapDue.push_back(sw.due);
            fleet.versions.emplace_back(v, sw.calibration);
            m.versionsLiveMax = std::max(
                m.versionsLiveMax, server.registry()->liveVersions());
        }
        if (j == in.jobs.size())
            break;
        const Job &job = in.jobs[j];
        runtime::ScheduledCircuit sc{job.tenant, in.schedules[job.schedule]};
        const auto due = at(job.due);
        std::this_thread::sleep_until(due);
        const auto t0 = Clock::now();
        auto fut = server.submit(std::move(sc));
        const auto t1 = Clock::now();
        m.generatorLag.push_back(seconds(t0 - due));
        m.submitSeconds.push_back(seconds(t1 - t0));
        pending.push_back({j, due, t0, std::move(fut)});
    }
    std::this_thread::sleep_until(at(run_seconds));
    m.ticksAfter = cpuTicks();
    for (auto &p : pending) {
        const auto r = p.fut.get();
        const double latency =
            seconds(p.submitted - p.due) + r.timing.totalSeconds;
        m.records.push_back(
            recordOf(p.job, in.jobs[p.job].due, r, latency));
    }
    server.drain();
    m.wallSeconds = seconds(Clock::now() - start);
    m.attempted = pending.size();
    m.versionsLiveMax =
        std::max(m.versionsLiveMax, server.registry()->liveVersions());
    m.after = server.stats();
    return m;
}

/** Closed loop: keep inFlight jobs outstanding until run_seconds has
 *  passed; latency counts from submit. */
Measured
runClosedLoop(const Inputs &in, Fleet &fleet, double run_seconds)
{
    Measured m;
    runtime::Server &server = *fleet.server;
    m.before = server.stats();
    struct Pending
    {
        std::size_t job;
        Clock::time_point submitted;
        std::future<runtime::JobResult> fut;
    };
    std::deque<Pending> window;
    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(run_seconds));
    m.ticksBefore = cpuTicks();
    // The pool is cycled: job n of the run is pool job n mod size.
    std::size_t next = 0;
    const auto submit = [&] {
        const std::size_t j = next++ % in.jobs.size();
        const Job &job = in.jobs[j];
        runtime::ScheduledCircuit sc{job.tenant, in.schedules[job.schedule]};
        const auto t0 = Clock::now();
        auto fut = server.submit(std::move(sc));
        m.submitSeconds.push_back(seconds(Clock::now() - t0));
        window.push_back({j, t0, std::move(fut)});
    };
    while (Clock::now() < stop) {
        while (window.size() < static_cast<std::size_t>(in.inFlight))
            submit();
        Pending p = std::move(window.front());
        window.pop_front();
        const auto r = p.fut.get();
        // How late the generator noticed this completion: it waits on
        // the oldest job, so a younger one finishing first waits here.
        const auto done = p.submitted +
                          std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  r.timing.totalSeconds));
        m.generatorLag.push_back(
            std::max(0.0, seconds(Clock::now() - done)));
        m.records.push_back(recordOf(p.job, seconds(p.submitted - start),
                                     r, r.timing.totalSeconds));
    }
    m.ticksAfter = cpuTicks();
    for (auto &p : window) {
        const auto r = p.fut.get();
        m.records.push_back(recordOf(p.job, seconds(p.submitted - start),
                                     r, r.timing.totalSeconds));
    }
    server.drain();
    m.wallSeconds = seconds(Clock::now() - start);
    m.attempted = next;
    m.after = server.stats();
    return m;
}

/**
 * Reference deterministic stats per (schedule, calibration) pair the
 * measured jobs used: a fresh uncached rack built like the fleet's,
 * executed by a 1-worker RuntimeService on the compiled back end.
 */
std::map<std::pair<std::size_t, std::size_t>, Expect>
references(const Inputs &in, const waveform::DeviceModel &dev,
           const Fleet &fleet, const std::vector<Record> &records)
{
    std::map<std::pair<std::size_t, std::size_t>, Expect> ref;
    std::vector<std::vector<std::size_t>> todo(fleet.calibrations.size());
    for (const Record &r : records) {
        if (r.status != runtime::JobStatus::Completed)
            continue;
        const std::size_t cal = fleet.calibrationOf(r.version);
        if (cal >= fleet.calibrations.size())
            continue; // unknown version: counted as a mismatch
        const std::size_t s = in.jobs[r.job].schedule;
        if (ref.emplace(std::make_pair(s, cal), Expect{}).second)
            todo[cal].push_back(s);
    }
    runtime::RackConfig rc = fleet.config.rack;
    rc.cacheWindows = 0;
    rc.tier1Windows = 0;
    for (std::size_t cal = 0; cal < todo.size(); ++cal) {
        if (todo[cal].empty())
            continue;
        const runtime::Rack rack(dev, fleet.calibrations[cal], rc);
        runtime::RuntimeService svc(rack, {1, 0});
        constexpr std::size_t kBatch = 64;
        for (std::size_t i = 0; i < todo[cal].size(); i += kBatch) {
            std::vector<circuits::Schedule> batch;
            const std::size_t end = std::min(todo[cal].size(), i + kBatch);
            for (std::size_t k = i; k < end; ++k)
                batch.push_back(in.schedules[todo[cal][k]]);
            const auto exec = svc.executeBatchCompiledPerJob(batch);
            for (std::size_t k = i; k < end; ++k)
                ref[{todo[cal][k], cal}] = Expect::of(exec.jobs[k - i]);
        }
    }
    return ref;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

double
avgWordsPerWindow(const core::CompressedLibrary &lib)
{
    std::size_t words = 0, windows = 0;
    for (const auto &[id, e] : lib.entries())
        for (const auto *ch : {&e.cw.i, &e.cw.q}) {
            words += ch->totalWords();
            windows += ch->windows.size();
        }
    return windows ? static_cast<double>(words) /
                         static_cast<double>(windows)
                   : 1.0;
}

/** Modeled decoded-memory power per qubit, mW, from the measured tier
 *  serve fractions. */
double
memoryMw(const runtime::RackConfig &rc, const core::CompressedLibrary &lib,
         const runtime::DecodedCacheStats &c)
{
    const double ws = static_cast<double>(rc.controller.windowSize);
    const double demand = static_cast<double>(c.hits + c.misses);
    power::SystemParams p;
    std::vector<double> fractions;
    p.tiers.push_back(
        {static_cast<double>(rc.cacheWindows) * ws * 2.0, {}});
    fractions.push_back(ratio(static_cast<double>(c.tier[0].hits), demand));
    if (rc.tier1Windows > 0) {
        p.tiers.push_back(
            {static_cast<double>(rc.tier1Windows) * ws * 2.0, {}});
        fractions.push_back(
            ratio(static_cast<double>(c.tier[1].hits), demand));
    }
    return power::hierarchicalPower(rc.controller.windowSize,
                                    avgWordsPerWindow(lib), fractions, p)
               .memoryW *
           1e3;
}

/** `[a, b, ..]` of values times `scale`. */
std::string
jsonList(const std::vector<double> &v, double scale)
{
    std::ostringstream os;
    os.precision(6);
    os << '[';
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << v[i] * scale;
    os << ']';
    return os.str();
}

/** Ordered metric list printed as {"name": {"value": v, "unit": u}}. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os.precision(17);
        os << '{';
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const auto &e = entries_[i];
            os << (i ? ", " : "") << '"' << e.name << "\": {\"value\": "
               << e.value << ", \"unit\": \"" << e.unit << "\"}";
        }
        os << '}';
        return os.str();
    }

    void
    print(std::ostream &os) const
    {
        for (const auto &e : entries_) {
            char buf[160];
            std::snprintf(buf, sizeof buf, "  %-34s %14.6g %s\n",
                          e.name.c_str(), e.value, e.unit.c_str());
            os << buf;
        }
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

int
run(const Args &args)
{
    const ThreadBudget budget = planThreads();
    const bool budget_ok = budget.threads() <= budget.nproc;
    if (!budget_ok) {
        std::cerr << "thread budget exceeded: generator + "
                  << budget.racks << " racks x " << budget.workersPerRack
                  << " workers > nproc " << budget.nproc << '\n';
        return 2;
    }

    const auto dev = makeDevice(devicePatches(args.workload));
    const Inputs in =
        makeInputs(args.workload, args.seed, args.seconds, dev, args.rate);

    // Set up several times; the last fleet is the one measured.
    std::vector<double> setup_s, compile_s, quiescent_swap_s;
    Fleet fleet;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        fleet = Fleet{};
        fleet = setUp(in, dev, budget);
        setup_s.push_back(fleet.setupSeconds);
        compile_s.push_back(fleet.libraryCompileSeconds);
        quiescent_swap_s.push_back(fleet.quiescentSwapSeconds);
    }

    Measured m = in.loop == Loop::Open
                     ? runOpenLoop(in, fleet, args.seconds)
                     : runClosedLoop(in, fleet, args.seconds);
    fleet.server->shutdown();
    const double rss_mb = peakRssMb();

    // Output check against the 1-worker reference.
    const auto ref = references(in, dev, fleet, m.records);
    std::uint64_t completed = 0, not_completed = 0, mismatched = 0;
    std::uint64_t prefetches = 0;
    std::vector<double> latency, queue, execute;
    std::vector<double> post_swap;
    const double swap_window = 0.25;
    // Latency by the window a job started in. Jobs started in the phase
    // but not finished by its end are the backlog it left.
    const double window_s = args.seconds / kWindows;
    std::vector<std::vector<double>> win_latency(kWindows);
    const auto windowOf = [&](double t) {
        const auto w = static_cast<int>(std::floor(t / window_s));
        return w >= 0 && w < kWindows ? static_cast<std::size_t>(w)
                                      : win_latency.size();
    };
    std::size_t backlog = 0;
    double samples = 0.0, last_done = 0.0;
    for (const Record &r : m.records) {
        if (r.status != runtime::JobStatus::Completed) {
            ++not_completed;
            continue;
        }
        if (r.start < args.seconds && r.start + r.latency > args.seconds)
            ++backlog;
        const auto it = ref.find(
            {in.jobs[r.job].schedule, fleet.calibrationOf(r.version)});
        if (it == ref.end() || !(it->second == r.got)) {
            ++mismatched;
            continue;
        }
        ++completed;
        prefetches += r.prefetches;
        latency.push_back(r.latency);
        queue.push_back(r.queue);
        execute.push_back(r.execute);
        if (const auto w = windowOf(r.start); w < win_latency.size())
            win_latency[w].push_back(r.latency);
        samples += static_cast<double>(r.samples);
        last_done = std::max(last_done, r.start + r.latency);
        for (double sw : m.swapDue)
            if (r.start >= sw && r.start < sw + swap_window) {
                post_swap.push_back(r.latency);
                break;
            }
    }
    if (m.swapDue.empty())
        post_swap = latency;
    const std::uint64_t failed = not_completed + mismatched;
    const double attempted = static_cast<double>(m.attempted);
    // An open-loop rate the fleet sustains leaves a few jobs behind; a
    // rate above its capacity leaves a backlog that grows with the run.
    const double backlog_limit = in.offeredRate * kBacklogSeconds;
    const bool backlog_ok = in.loop == Loop::Closed ||
                            static_cast<double>(backlog) <= backlog_limit;
    // Latency percentiles are medians over the windows, so a burst of
    // contention from outside the program moves one window and not the
    // result. Rates count every verified job up to the last completion.
    std::vector<double> w_p50, w_p90;
    std::size_t w_min_samples = latency.size();
    for (std::size_t w = 0; w < static_cast<std::size_t>(kWindows); ++w) {
        w_p50.push_back(percentile(win_latency[w], 0.50));
        w_p90.push_back(percentile(win_latency[w], 0.90));
        w_min_samples = std::min(w_min_samples, win_latency[w].size());
    }
    const double jobs_per_s = ratio(static_cast<double>(completed), last_done);
    const double msamples_per_s = ratio(samples, last_done) / 1e6;
    const double steal_share =
        ratio(m.ticksAfter.first - m.ticksBefore.first,
              m.ticksAfter.second - m.ticksBefore.second);
    const auto &lib0 = *fleet.calibrations[0];
    const auto &rc = fleet.config.rack;
    const uarch::Controller controller(rc.controller);

    std::ostringstream env;
    env.precision(10);
    env << "{\"env\": {\"workload\": \"" << in.workload
        << "\", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"nproc\": " << budget.nproc << ", \"racks\": " << budget.racks
        << ", \"workers_per_rack\": " << budget.workersPerRack
        << ", \"generator_threads\": 1, \"threads\": " << budget.threads()
        << ", \"thread_budget_ok\": " << (budget_ok ? "true" : "false")
        << ", \"loop\": \""
        << (in.loop == Loop::Open ? "open" : "closed") << "\""
        << ", \"offered_rate_per_s\": " << in.offeredRate
        << ", \"in_flight\": " << in.inFlight
        << ", \"device_qubits\": " << dev.numQubits()
        << ", \"shards_per_rack\": " << rc.numShards
        << ", \"store_tier0_windows\": " << rc.cacheWindows
        << ", \"store_tier1_windows\": " << rc.tier1Windows
        << ", \"swaps\": " << m.swapDue.size()
        << ", \"attempted\": " << m.attempted
        << ", \"completed_ok\": " << completed
        << ", \"not_completed\": " << not_completed
        << ", \"mismatched\": " << mismatched
        << ", \"failed_share\": "
        << ratio(static_cast<double>(failed), attempted)
        << ", \"latency_samples\": " << latency.size()
        << ", \"windows\": " << kWindows
        << ", \"latency_samples_min_window\": " << w_min_samples
        << ", \"measured_wall_s\": " << m.wallSeconds
        << ", \"latency_p90_ms\": " << median(w_p90) * 1e3
        << ", \"latency_p99_ms\": " << percentile(latency, 0.99) * 1e3
        << ", \"steal_share\": " << steal_share
        << ", \"backlog_end\": " << backlog
        << ", \"backlog_limit\": " << backlog_limit
        << ", \"backlog_ok\": " << (backlog_ok ? "true" : "false")
        << ", \"window_p50_ms\": " << jsonList(w_p50, 1e3)
        << ", \"window_p90_ms\": " << jsonList(w_p90, 1e3)
        << ", \"last_completion_s\": " << last_done
        << ", \"post_swap_samples\": " << post_swap.size()
        << ", \"pool_jobs\": " << in.jobs.size()
        << ", \"reference_pairs\": " << ref.size();

    Metrics metrics;
    bool correct = failed == 0 && m.attempted > 0 && backlog_ok;
    if (!args.trace) {
        metrics.add("jobs_per_s", jobs_per_s, "1/s");
        metrics.add("msamples_per_s", msamples_per_s, "Msamples/s");
        metrics.add("latency_p50_ms", median(w_p50) * 1e3, "ms");
        metrics.add("completed_share",
                    ratio(static_cast<double>(completed), attempted),
                    "share");
        metrics.add("setup_s", median(setup_s), "s");
        metrics.add("peak_rss_mb", rss_mb, "MB");
        metrics.add("compression_ratio", lib0.ratio(), "x");
        metrics.add("qubits_per_controller",
                    static_cast<double>(controller.maxConcurrentQubits()),
                    "count");
    } else {
        const std::string trace_path =
            args.out + "/trace_" + in.workload + ".json";
        std::filesystem::create_directories(args.out);
        const ReplayResult rp = replay(in, dev, fleet, budget, trace_path);

        const auto cache = runtime::DecodedCacheStats::delta(
            m.before.cache, m.after.cache);
        const double done = static_cast<double>(
            m.after.completed - m.before.completed);
        const double batches = static_cast<double>(
            m.after.batchesDispatched - m.before.batchesDispatched);
        double rack_max = 0.0, rack_sum = 0.0;
        for (std::size_t i = 0; i < m.after.racks.size(); ++i) {
            const double c = static_cast<double>(
                m.after.racks[i].completed - m.before.racks[i].completed);
            rack_max = std::max(rack_max, c);
            rack_sum += c;
        }
        const double rack_mean =
            rack_sum / static_cast<double>(m.after.racks.size());
        const double demand = static_cast<double>(cache.hits + cache.misses);
        std::size_t peak_banks = 0;
        double peak_bw = 0.0;
        for (const auto &[key, e] : ref) {
            peak_banks = std::max(peak_banks, e.peakBanks);
            peak_bw = std::max(peak_bw, e.peakBandwidth);
        }

        const double jobs = static_cast<double>(rp.jobs);
        const double wall = rp.wallNs;
        const double kernel_ns_per_window =
            ratio(rp.decodeNs, static_cast<double>(rp.decodeWindows));
        const double decode_in_playback =
            kernel_ns_per_window * static_cast<double>(rp.playbackMisses);
        const double store_self = rp.playbackNs - decode_in_playback;
        const double interpret_self = rp.interpretNs - rp.playbackNs;
        const double kernel_msps =
            ratio(static_cast<double>(rp.decodeSamples), rp.decodeNs) * 1e3;
        const double shares_sum =
            ratio(rp.partitionNs + rp.demandNs + rp.programNs +
                      rp.interpretNs,
                  wall);
        const bool shares_ok = std::abs(shares_sum - 1.0) <= 0.10;
        const bool trace_ok = rp.traceWritten && rp.droppedEvents == 0;
        correct = correct && shares_ok && trace_ok;
        env << ", \"replay_threads\": " << rp.threads
            << ", \"replay_timed_jobs\": " << rp.jobs
            << ", \"replay_shares_sum\": " << shares_sum
            << ", \"replay_shares_ok\": " << (shares_ok ? "true" : "false")
            << ", \"trace_file\": \"" << trace_path << "\""
            << ", \"trace_events\": " << rp.traceEvents
            << ", \"trace_dropped\": " << rp.droppedEvents
            << ", \"replay_compiles\": " << rp.compilesAll;

        metrics.add("server.queue_wait_p50_ms", percentile(queue, 0.5) * 1e3,
                    "ms");
        metrics.add("server.queue_wait_p99_ms",
                    percentile(queue, 0.99) * 1e3, "ms");
        metrics.add("server.execute_p50_ms", percentile(execute, 0.5) * 1e3,
                    "ms");
        metrics.add("server.batch_fill", ratio(done, batches), "jobs");
        metrics.add("server.submit_us",
                    ratio(std::accumulate(m.submitSeconds.begin(),
                                          m.submitSeconds.end(), 0.0),
                          static_cast<double>(m.submitSeconds.size())) *
                        1e6,
                    "us");
        metrics.add("server.rack_imbalance", ratio(rack_max, rack_mean),
                    "ratio");
        metrics.add("circuits.partition_us", rp.partitionNs / jobs / 1e3,
                    "us");
        metrics.add("circuits.partition_share", rp.partitionNs / wall,
                    "share");
        metrics.add("uarch.demand_us", rp.demandNs / jobs / 1e3, "us");
        metrics.add("uarch.demand_share", rp.demandNs / wall, "share");
        metrics.add("uarch.peak_banks", static_cast<double>(peak_banks),
                    "count");
        metrics.add("uarch.peak_bw_gbps", peak_bw / 1e9, "GB/s");
        metrics.add("isa.program_hit_rate", rp.programCache.hitRate(),
                    "share");
        metrics.add("isa.compile_us",
                    ratio(rp.compileAllNs,
                          static_cast<double>(rp.compilesAll)) /
                        1e3,
                    "us");
        metrics.add("isa.compile_share", rp.programNs / wall, "share");
        metrics.add("isa.interpret_us", rp.interpretNs / jobs / 1e3, "us");
        metrics.add("isa.interpret_share", interpret_self / wall, "share");
        metrics.add("isa.prefetch_issued_per_job",
                    ratio(static_cast<double>(prefetches),
                          static_cast<double>(completed)),
                    "count");
        metrics.add("playback.us", rp.playbackNs / jobs / 1e3, "us");
        metrics.add("playback.share", rp.playbackNs / wall, "share");
        metrics.add("store.self_us", store_self / jobs / 1e3, "us");
        metrics.add("store.share", store_self / wall, "share");
        metrics.add("store.hit_rate", cache.hitRate(), "share");
        metrics.add("store.tier0_hit_rate", cache.tier0HitRate(), "share");
        metrics.add("store.tier1_hit_rate",
                    ratio(static_cast<double>(cache.tier[1].hits), demand),
                    "share");
        metrics.add("store.evictions_per_job",
                    ratio(static_cast<double>(cache.evictions), done),
                    "count");
        metrics.add("store.admit_rejected_per_job",
                    ratio(static_cast<double>(cache.tier[0].admitRejected +
                                              cache.tier[1].admitRejected),
                          done),
                    "count");
        metrics.add("store.penalty_cycles_per_job",
                    ratio(static_cast<double>(cache.penaltyCycles), done),
                    "cycles");
        metrics.add("store.memory_mw", memoryMw(rc, lib0, cache), "mW");
        metrics.add("decode.msamples_per_s", kernel_msps, "Msamples/s");
        metrics.add("decode.share", decode_in_playback / wall, "share");
        metrics.add("decode.roofline",
                    ratio(msamples_per_s,
                          kernel_msps * budget.racks * budget.workersPerRack),
                    "ratio");
        metrics.add("compile.library_s", median(compile_s), "s");
        metrics.add("registry.swap_ms",
                    median(m.swapSeconds.empty() ? quiescent_swap_s
                                                 : m.swapSeconds) *
                        1e3,
                    "ms");
        metrics.add("registry.post_swap_latency_p90_ms",
                    percentile(post_swap, 0.90) * 1e3, "ms");
        metrics.add("registry.versions_live_max",
                    static_cast<double>(m.versionsLiveMax), "count");
        metrics.add("bench.generator_lag_p99_ms",
                    percentile(m.generatorLag, 0.99) * 1e3, "ms");
        metrics.add("bench.trace_overhead", rp.traceOverhead, "ratio");
    }
    env << "}}";

    std::cout << "fleetbench " << in.workload << " seed " << args.seed
              << ": " << completed << "/" << m.attempted
              << " jobs verified, " << not_completed << " not completed, "
              << mismatched << " mismatched, " << backlog
              << " left queued at the end"
              << (backlog_ok ? "" : " (backlog over its limit)") << '\n';
    metrics.print(std::cout);
    std::cout << env.str() << '\n';
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << m.attempted
              << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "fleetbench: " << e.what() << '\n';
        return 2;
    }
}
