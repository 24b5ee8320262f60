/**
 * @file
 * Measures what the telemetry plane costs the hot path, in both of
 * its states:
 *
 *  - disabled (the default): every instrumentation site pays one
 *    relaxed atomic load for the trace gate plus a handful of
 *    striped counter adds at job/batch grain. Measured as the
 *    run-to-run spread between two interleaved disabled passes —
 *    the noise floor the enabled overhead is judged against.
 *  - enabled: spans pay two steady_clock reads plus a ring push;
 *    the per-op ISA dwell trace is the worst case.
 *
 * Passes are interleaved (disabled, enabled, disabled, enabled, ...)
 * so thermal drift and scheduler mood land on both sides equally;
 * each mode reports its median batch wall time.
 *
 * The run ends with a mixed-tenant serving pass (runtime::Server)
 * under an enabled trace, exported as TRACE_serving.json — the
 * artifact CI strict-parses and uploads, and the file to drop into
 * chrome://tracing or Perfetto.
 *
 * Emits BENCH_telemetry_overhead.json (bench::JsonReport). CI
 * asserts enabled_overhead_fraction stays within bounds.
 *
 * Usage: bench_telemetry_overhead [--tiny]
 *   --tiny  CI smoke mode: smallest workload that exercises every
 *           instrumented path and emits the full JSON schema.
 */

#include <algorithm>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "circuits/scheduler.hh"
#include "circuits/surface_code.hh"
#include "common/table.hh"
#include "runtime/rack.hh"
#include "runtime/server.hh"
#include "runtime/service.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"

using namespace compaqt;

namespace
{

struct Workload
{
    waveform::DeviceModel dev;
    std::shared_ptr<const core::CompressedLibrary> clib;
    std::vector<circuits::Schedule> batch;
};

Workload
makeWorkload(int distance, int batch_size)
{
    const auto sc = circuits::makeSurfaceCode(
        distance, circuits::SurfaceLayout::Rotated, 1);
    auto dev = waveform::DeviceModel::synthetic(
        "telem-surface-" + std::to_string(sc.totalQubits()),
        sc.totalQubits(), sc.nativeCoupling().edges());
    const auto lib = waveform::PulseLibrary::build(dev);
    auto clib = std::make_shared<const core::CompressedLibrary>(
        bench::buildCompressed(lib, "int-dct", 16));
    const auto sched = circuits::schedule(sc.circuit, {});
    return Workload{std::move(dev), std::move(clib),
                    std::vector<circuits::Schedule>(
                        static_cast<std::size_t>(batch_size), sched)};
}

runtime::RackConfig
rackConfig(const Workload &w)
{
    runtime::RackConfig rc;
    rc.numShards = 2;
    rc.policy = runtime::ShardPolicy::LocalityAware;
    rc.controller.compressed = true;
    rc.controller.windowSize = 16;
    rc.controller.memoryWidth = w.clib->worstCaseWindowWords();
    rc.cacheWindows = 1u << 15;
    return rc;
}

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/**
 * Median batch wall time of `reps` service batches with tracing set
 * to `traced`. Tracing adds the per-instruction ISA dwell events on
 * top of the shard/cache/batch spans. The service (and its warmed
 * cache) is shared across calls; the interleaved caller alternates
 * the trace state so both states see the same steady-state cache.
 */
std::vector<double>
timedRuns(runtime::RuntimeService &svc, const Workload &w, int reps,
          bool traced)
{
    auto &trace = telemetry::Trace::global();
    trace.setEnabled(traced);
    std::vector<double> wall;
    wall.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
        // Keep the enabled side honest: a full ring would make later
        // reps cheaper (overwrite, no growth), so start each rep
        // from an empty ring like a fresh capture would.
        if (traced)
            trace.clear();
        wall.push_back(
            svc.executeBatchCompiledPerJob(w.batch).total.wallSeconds);
    }
    trace.setEnabled(false);
    return wall;
}

/** Mixed-tenant serving pass under an enabled trace; returns the
 *  number of jobs completed. */
std::size_t
tracedServingRun(const Workload &w, int jobs_per_tenant)
{
    runtime::Server server(
        w.dev, w.clib,
        {.rack = rackConfig(w), .workers = 2, .maxBatch = 4});

    auto &trace = telemetry::Trace::global();
    trace.clear();
    trace.setEnabled(true);
    std::vector<std::future<runtime::JobResult>> futures;
    for (int j = 0; j < jobs_per_tenant; ++j)
        for (const char *tenant : {"alice", "bob", "carol"})
            futures.push_back(server.submit(
                {tenant, w.batch[static_cast<std::size_t>(j) %
                                 w.batch.size()]}));
    server.drain();
    std::size_t completed = 0;
    for (auto &f : futures)
        completed +=
            f.get().status == runtime::JobStatus::Completed ? 1 : 0;
    trace.setEnabled(false);
    return completed;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool tiny =
        argc > 1 && std::strcmp(argv[1], "--tiny") == 0;

    bench::JsonReport report("telemetry_overhead");

    const int distance = tiny ? 3 : 5;
    const int batch_size = tiny ? 2 : 4;
    const int workers = tiny ? 2 : 4;
    const int reps = tiny ? 5 : 9;
    report.setWorkers(workers);

    const Workload w = makeWorkload(distance, batch_size);
    const runtime::Rack rack(w.dev, w.clib, rackConfig(w));
    runtime::RuntimeService svc(rack, {.workers = workers});

    // Warm the decoded-window cache so every measured pass replays
    // the same steady state.
    svc.executeBatchCompiledPerJob(w.batch);

    // Interleave disabled/enabled passes; split the disabled ones
    // into two alternating halves whose spread is the noise floor.
    std::vector<double> off_a, off_b, on;
    for (int r = 0; r < reps; ++r) {
        auto x = timedRuns(svc, w, 1, false);
        (r % 2 ? off_b : off_a)
            .insert((r % 2 ? off_b : off_a).end(), x.begin(),
                    x.end());
        auto y = timedRuns(svc, w, 1, true);
        on.insert(on.end(), y.begin(), y.end());
    }
    const double t_off_a = median(off_a);
    const double t_off_b = median(off_b);
    const double t_off = median([&] {
        std::vector<double> all = off_a;
        all.insert(all.end(), off_b.begin(), off_b.end());
        return all;
    }());
    const double t_on = median(on);

    const double noise_floor =
        std::abs(t_off_a - t_off_b) / std::max(t_off_a, t_off_b);
    const double enabled_overhead = t_on / t_off - 1.0;

    const auto &trace = telemetry::Trace::global();
    const std::uint64_t events_buffered = trace.bufferedEvents();
    const std::uint64_t events_dropped = trace.droppedEvents();

    Table t("telemetry overhead (service batches, median of " +
            std::to_string(reps) + " interleaved passes)");
    t.header({"mode", "batch wall (ms)", "overhead vs off"});
    t.row({"telemetry off", Table::num(t_off * 1e3, 3), "-"});
    t.row({"telemetry off (alt half)",
           Table::num(std::max(t_off_a, t_off_b) * 1e3, 3),
           Table::num(noise_floor * 100.0, 2) + "% (noise)"});
    t.row({"trace enabled", Table::num(t_on * 1e3, 3),
           Table::num(enabled_overhead * 100.0, 2) + "%"});
    report.print(t);

    report.metric("batch_wall_seconds_disabled", t_off);
    report.metric("batch_wall_seconds_enabled", t_on);
    report.metric("disabled_noise_fraction", noise_floor);
    report.metric("enabled_overhead_fraction", enabled_overhead);
    report.metric("trace_events_buffered",
                  static_cast<double>(events_buffered));
    report.metric("trace_events_dropped",
                  static_cast<double>(events_dropped));

    // Mixed-tenant serving run under trace -> the Perfetto artifact.
    const std::size_t completed =
        tracedServingRun(w, tiny ? 2 : 4);
    const std::string trace_path = "TRACE_serving.json";
    const bool wrote =
        telemetry::Trace::global().writeChromeTrace(trace_path);
    if (!wrote)
        std::cerr << "warning: could not write " << trace_path
                  << '\n';
    report.metric("serving_jobs_completed",
                  static_cast<double>(completed));
    report.metric("serving_trace_written", wrote ? 1.0 : 0.0);

    std::cout << "\nserving trace: " << trace_path << " ("
              << telemetry::Trace::global().bufferedEvents()
              << " events, " << completed
              << " jobs completed across 3 tenants)\n";

    // The metrics half of the plane, for eyeballing counter health.
    std::cout << "\nmetrics registry snapshot:\n";
    telemetry::Registry::global().writeJson(std::cout);
    std::cout << '\n';
    return 0;
}
