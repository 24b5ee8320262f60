#include "replay.hh"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstring>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>

#include "core/decompressor.hh"
#include "isa/compiler.hh"
#include "isa/interpreter.hh"
#include "runtime/playback.hh"
#include "runtime/rack.hh"
#include "telemetry/trace.hh"
#include "uarch/controller.hh"

namespace fleetbench
{

namespace
{

using Clock = std::chrono::steady_clock;
using telemetry::SpanScope;

/** Fresh racks built like the fleet's, over one private registry,
 *  each with its own program cache (as each fleet rack's service
 *  has). */
struct RackSet
{
    std::shared_ptr<runtime::LibraryRegistry> registry;
    std::vector<std::unique_ptr<runtime::Rack>> racks;
    std::vector<std::unique_ptr<isa::ProgramCache>> programs;

    RackSet(const waveform::DeviceModel &dev, const Fleet &fleet)
        : registry(std::make_shared<runtime::LibraryRegistry>(
              fleet.calibrations[0]))
    {
        for (int r = 0; r < fleet.config.racks; ++r) {
            racks.push_back(std::make_unique<runtime::Rack>(
                dev, registry, fleet.config.rack));
            programs.push_back(std::make_unique<isa::ProgramCache>(
                fleet.config.programCacheEntries));
        }
    }

    /** Program-cache hits and misses summed over the racks. */
    isa::ProgramCacheStats
    programStats() const
    {
        isa::ProgramCacheStats s;
        for (const auto &p : programs) {
            const auto o = p->stats();
            s.hits += o.hits;
            s.misses += o.misses;
        }
        return s;
    }
};

/**
 * Run one pass on `threads` threads: thread t takes jobs j with
 * j % threads == t, first the warm prefix [0, warm), then — after a
 * barrier whose completion runs `atTimedStart` — the timed segment
 * [warm, warm + timed). Returns the trace time the timed segment
 * started at. Rethrows the first exception a thread threw.
 */
template <typename JobFn>
std::uint64_t
runPass(telemetry::Trace &trace, int threads, std::size_t warm,
        std::size_t timed, const std::function<void()> &atTimedStart,
        JobFn &&fn)
{
    std::uint64_t timed_start_ns = 0;
    auto on_complete = [&]() noexcept {
        atTimedStart();
        timed_start_ns = trace.nowNs();
    };
    std::barrier sync(threads, on_complete);
    std::exception_ptr failure;
    std::mutex failure_mu;
    const auto guarded = [&](auto &&body) {
        try {
            body();
        } catch (...) {
            std::lock_guard lock(failure_mu);
            if (!failure)
                failure = std::current_exception();
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            const auto step = static_cast<std::size_t>(threads);
            // The timed segment keeps the warm prefix's job-to-thread
            // assignment.
            const std::size_t first = static_cast<std::size_t>(t);
            guarded([&] {
                for (std::size_t j = first; j < warm; j += step)
                    fn(t, j);
            });
            sync.arrive_and_wait();
            guarded([&] {
                std::size_t j = warm + (first + step - warm % step) % step;
                for (; j < warm + timed; j += step)
                    fn(t, j);
            });
        });
    for (auto &th : pool)
        th.join();
    if (failure)
        std::rethrow_exception(failure);
    return timed_start_ns;
}

/** Play one shard slice's windows the way the direct back end walks a
 *  schedule. */
std::uint64_t
playCell(runtime::WindowPlayer &player, const runtime::VersionedLibrary &vlib,
         const circuits::Schedule &part)
{
    runtime::PlaybackCounters c;
    for (const auto &e : part.events) {
        const auto id = uarch::gateIdFor(e.gate);
        if (!id)
            continue;
        const core::CompressedEntry *entry = vlib.find(*id);
        if (!entry)
            continue;
        for (std::uint8_t ch = 0; ch < 2; ++ch) {
            const auto &channel = ch == 0 ? entry->cw.i : entry->cw.q;
            const auto n = static_cast<std::uint32_t>(channel.numWindows());
            if (n > 0)
                player.playWindows(*id, *entry, ch, 0, n, c);
        }
    }
    return c.samples;
}

} // namespace

ReplayResult
replay(const Inputs &in, const waveform::DeviceModel &dev,
       const Fleet &fleet, const ThreadBudget &budget,
       const std::string &trace_path)
{
    ReplayResult res;
    const int threads = budget.racks * budget.workersPerRack;
    res.threads = threads;
    // Sample sizes: an untimed prefix that warms the fresh racks (the
    // churn store needs a longer one), then the timed jobs.
    const auto per_thread = static_cast<std::size_t>(threads);
    const bool churn = in.loop == Loop::Closed;
    const std::size_t warm = (churn ? 64 : 2) * per_thread;
    if (in.jobs.size() <= warm)
        throw std::invalid_argument("too few jobs to replay");
    const std::size_t timed =
        std::min((churn ? 256 : 400) * per_thread, in.jobs.size() - warm);
    const std::size_t swap_at =
        in.swaps.empty() ? warm + timed : warm + timed / 2;

    // Spans of traced jobs go to `trace`; untraced jobs record into a
    // collector that stays disabled.
    telemetry::TraceConfig tc;
    tc.eventsPerThread = 1u << 16;
    telemetry::Trace trace(tc);
    telemetry::Trace quiet(telemetry::TraceConfig{1});
    trace.setEnabled(true);
    const auto traced = [](std::size_t j) { return (j / 2) % 2 == 0; };
    const auto rackOf = [&](int t) {
        return static_cast<std::size_t>(t / budget.workersPerRack);
    };

    // The service's call order for one job on one rack: partition,
    // then per shard demand, program-cache lookup or compile, and
    // interpret. Returns the epoch the job pinned.
    const auto serviceOrder = [&](telemetry::Trace &tr, RackSet &set, int t,
                                  std::size_t j) {
        const std::size_t r = rackOf(t);
        const runtime::Rack &rack = *set.racks[r];
        isa::ProgramCache &programs = *set.programs[r];
        if (j == swap_at)
            set.registry->publish(fleet.calibrations[1]);
        SpanScope job(tr, "job", "job", "job", j);
        const runtime::VersionedLibrary vlib = rack.currentLibrary();
        const circuits::Schedule &sched =
            in.schedules[in.jobs[j].schedule];
        std::vector<circuits::Schedule> parts;
        {
            SpanScope s(tr, "circuits", "partition", "job", j);
            parts = circuits::partitionByOwner(sched, rack.plan().owner,
                                               rack.numShards());
        }
        {
            SpanScope s(tr, "isa", "program", "job", j);
            programs.dropStale(vlib.version);
        }
        for (int s = 0; s < rack.numShards(); ++s) {
            const circuits::Schedule &part =
                parts[static_cast<std::size_t>(s)];
            const auto su = static_cast<std::uint64_t>(s);
            {
                SpanScope d(tr, "uarch", "demand", "job", j, "shard", su);
                const auto demand = rack.controller(s).execute(part, *vlib);
                (void)demand;
            }
            std::shared_ptr<const isa::InstructionProgram> prog;
            {
                SpanScope p(tr, "isa", "program", "job", j, "shard", su);
                const isa::ProgramKey key{
                    circuits::scheduleFingerprint(part), s, vlib.version};
                prog = programs.get(key);
                if (!prog) {
                    SpanScope c(tr, "isa", "compile", "job", j, "shard",
                                su);
                    prog = programs.put(
                        key, isa::Compiler(rack, vlib).compileShard(part));
                }
            }
            {
                SpanScope i(tr, "isa", "interpret", "job", j, "shard", su);
                isa::Interpreter interp(rack, vlib);
                const auto run = interp.run(*prog);
                (void)run;
            }
        }
        return vlib;
    };

    // The same cells' windows through the playback loop, on a second
    // set of racks whose stores see the same key stream. Returns the
    // store misses it caused (each rack has one replay thread).
    const auto playback = [&](telemetry::Trace &tr, RackSet &set, int t,
                              std::size_t j,
                              const runtime::VersionedLibrary &vlib) {
        const runtime::Rack &rack = *set.racks[rackOf(t)];
        const auto parts = circuits::partitionByOwner(
            in.schedules[in.jobs[j].schedule], rack.plan().owner,
            rack.numShards());
        const auto before = rack.cache().stats().misses;
        for (int s = 0; s < rack.numShards(); ++s) {
            SpanScope p(tr, "runtime", "playback", "job", j, "shard",
                        static_cast<std::uint64_t>(s));
            runtime::WindowPlayer player(rack, vlib);
            playCell(player, vlib, parts[static_cast<std::size_t>(s)]);
        }
        return rack.cache().stats().misses - before;
    };

    // Per-thread tallies of the timed segment.
    struct Tally
    {
        std::vector<double> tracedNs;
        std::vector<double> quietNs;
        std::uint64_t misses = 0;
        std::uint64_t windows = 0;
        std::uint64_t samples = 0;
    };
    std::vector<Tally> tallies(static_cast<std::size_t>(threads));

    // The same windows through the batch decode kernel into scratch.
    const auto decode = [&](telemetry::Trace &tr, std::size_t j,
                            const runtime::VersionedLibrary &vlib,
                            Tally &tally) {
        constexpr std::size_t kBatch = runtime::WindowPlayer::kBatchWindows;
        const core::Decompressor dec;
        std::vector<double> scratch(
            fleet.config.rack.controller.windowSize * kBatch);
        std::uint64_t windows = 0, samples = 0;
        {
            SpanScope span(tr, "core", "decode", "job", j);
            for (const auto &e : in.schedules[in.jobs[j].schedule].events) {
                const auto id = uarch::gateIdFor(e.gate);
                if (!id)
                    continue;
                const core::CompressedEntry *entry = vlib.find(*id);
                if (!entry)
                    continue;
                for (const core::CompressedChannel *ch :
                     {&entry->cw.i, &entry->cw.q}) {
                    const std::size_t n = ch->numWindows();
                    for (std::size_t w = 0; w < n; w += kBatch) {
                        const std::size_t run = std::min(kBatch, n - w);
                        samples += dec.decodeWindowsInto(
                            *ch, entry->cw.codec, w, run,
                            SampleSpan(scratch.data(), scratch.size()));
                        windows += run;
                    }
                }
            }
        }
        if (&tr == &trace) {
            tally.windows += windows;
            tally.samples += samples;
        }
    };

    // Every job runs the service order, then the playback and decode
    // replays of its cells. Traced and untraced jobs alternate in pairs
    // (calib_churn's stream alternates QEC and calibration jobs), so
    // both halves see the same mix and the same machine conditions.
    RackSet a(dev, fleet);
    RackSet b(dev, fleet);
    isa::ProgramCacheStats program_before;
    const std::uint64_t timed_start_ns = runPass(
        trace, threads, warm, timed,
        [&] {
            for (Tally &tally : tallies)
                tally = Tally{};
            program_before = a.programStats();
        },
        [&](int t, std::size_t j) {
            Tally &tally = tallies[static_cast<std::size_t>(t)];
            telemetry::Trace &tr = traced(j) ? trace : quiet;
            const auto t0 = Clock::now();
            const auto vlib = serviceOrder(tr, a, t, j);
            const double ns =
                std::chrono::duration<double, std::nano>(Clock::now() - t0)
                    .count();
            (traced(j) ? tally.tracedNs : tally.quietNs).push_back(ns);
            const auto misses = playback(tr, b, t, j, vlib);
            if (traced(j))
                tally.misses += misses;
            decode(tr, j, vlib, tally);
        });
    trace.setEnabled(false);

    const auto after = a.programStats();
    res.programCache.hits = after.hits - program_before.hits;
    res.programCache.misses = after.misses - program_before.misses;
    std::vector<double> traced_ns, quiet_ns;
    for (const Tally &tally : tallies) {
        traced_ns.insert(traced_ns.end(), tally.tracedNs.begin(),
                         tally.tracedNs.end());
        quiet_ns.insert(quiet_ns.end(), tally.quietNs.begin(),
                        tally.quietNs.end());
        res.playbackMisses += tally.misses;
        res.decodeWindows += tally.windows;
        res.decodeSamples += tally.samples;
    }
    res.jobs = traced_ns.size();
    for (double ns : traced_ns)
        res.wallNs += ns;
    const auto median = [](std::vector<double> &v) {
        std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
        return v[v.size() / 2];
    };
    if (!traced_ns.empty() && !quiet_ns.empty())
        res.traceOverhead = median(traced_ns) / median(quiet_ns) - 1.0;

    // Fold the spans into per-layer totals: compiles over the whole
    // replay, everything else over the timed segment.
    const auto is = [](const telemetry::TraceEvent &e, const char *name) {
        return std::strcmp(e.name, name) == 0;
    };
    const auto events = trace.snapshot();
    res.traceEvents = events.size();
    for (const auto &e : events) {
        if (e.kind != telemetry::EventKind::Complete)
            continue;
        const auto dur = static_cast<double>(e.durNs);
        if (is(e, "compile")) {
            res.compileAllNs += dur;
            ++res.compilesAll;
        }
        if (e.startNs < timed_start_ns)
            continue;
        if (is(e, "partition"))
            res.partitionNs += dur;
        else if (is(e, "demand"))
            res.demandNs += dur;
        else if (is(e, "program"))
            res.programNs += dur;
        else if (is(e, "interpret"))
            res.interpretNs += dur;
        else if (is(e, "playback"))
            res.playbackNs += dur;
        else if (is(e, "decode"))
            res.decodeNs += dur;
    }
    res.droppedEvents = trace.droppedEvents();
    res.traceWritten = trace.writeChromeTrace(trace_path);
    return res;
}

} // namespace fleetbench
