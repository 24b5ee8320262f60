/**
 * @file
 * Serving-plane latency and throughput: drive a sharded rack through
 * the asynchronous multi-tenant front end (runtime::Server), sweeping
 * tenant count x queue depth x worker count on a surface-code
 * syndrome workload, and report job throughput, queue/total latency
 * percentiles, batch coalescing fill, and decoded-window cache
 * behavior under genuinely concurrent mixed-tenant traffic.
 *
 * The headline metric is queued-vs-synchronous throughput at equal
 * worker count: the server coalesces jobs from many tenants into rack
 * batches (fewer executor barriers, better cell-level load balance)
 * and must beat a synchronous per-submission RuntimeService
 * loop. A deterministic pause/fill/overflow segment also measures the
 * admission-control contract (reject-with-status at queueDepth).
 *
 * Emits BENCH_serving_latency.json so the serving trajectory is
 * tracked across PRs.
 *
 * Usage: bench_serving_latency [--tiny]
 *   --tiny  CI smoke mode: smallest sweep that still exercises every
 *           code path and emits the full JSON schema.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <cstdint>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "circuits/scheduler.hh"
#include "circuits/surface_code.hh"
#include "common/table.hh"
#include "runtime/rack.hh"
#include "runtime/server.hh"
#include "runtime/service.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"

using namespace compaqt;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Workload
{
    std::size_t qubits;
    waveform::DeviceModel dev;
    std::shared_ptr<const core::CompressedLibrary> clib;
    /** Heavy job: one full syndrome-extraction round. */
    circuits::Schedule syndrome;
    /** Light job: a short calibration ping (a handful of 1q
     *  pulses) — the small-request tail real serving traffic is
     *  mostly made of. */
    circuits::Schedule ping;

    /** Tenant streams interleave 3 pings per syndrome round. */
    const circuits::Schedule &
    job(int j) const
    {
        return j % 4 == 0 ? syndrome : ping;
    }
};

Workload
makeWorkload(int distance)
{
    const auto sc = circuits::makeSurfaceCode(
        distance, circuits::SurfaceLayout::Rotated, 1);
    auto dev = waveform::DeviceModel::synthetic(
        "serving-surface-" + std::to_string(sc.totalQubits()),
        sc.totalQubits(), sc.nativeCoupling().edges());
    const auto lib = waveform::PulseLibrary::build(dev);
    auto clib = std::make_shared<const core::CompressedLibrary>(
        bench::buildCompressed(lib, "int-dct", 16));
    const int n = static_cast<int>(sc.totalQubits());
    circuits::Circuit ping(n);
    for (int q = 0; q < std::min(n, 8); ++q)
        ping.x(q);
    return Workload{sc.totalQubits(),
                    std::move(dev),
                    std::move(clib),
                    circuits::schedule(sc.circuit, {}),
                    circuits::schedule(ping, {})};
}

runtime::RackConfig
rackConfig(const Workload &w, int shards)
{
    runtime::RackConfig rc;
    rc.numShards = shards;
    rc.policy = runtime::ShardPolicy::LocalityAware;
    rc.controller.compressed = true;
    rc.controller.windowSize = 16;
    rc.controller.memoryWidth = w.clib->worstCaseWindowWords();
    rc.cacheWindows = 1u << 15;
    return rc;
}

/** A one-rack server over the workload's library (shared copy). */
runtime::FleetConfig
serverConfig(const Workload &w, int shards, int workers,
             std::size_t queue_depth)
{
    return {.rack = rackConfig(w, shards),
            .workers = workers,
            .queueDepth = queue_depth,
            .maxBatch = 16};
}

struct QueuedRun
{
    double wallSeconds = 0.0;
    double jobsPerSec = 0.0;
    double gatesPerSec = 0.0;
    runtime::ServerStats stats;
};

/**
 * One measured submission wave against a persistent server: every
 * tenant thread submits its job stream and waits for all futures;
 * throughput comes from deltas of the server's lifetime counters so
 * waves compose (shared by the sweep and the head-to-head
 * comparison). Returns gates/s; jobs/s via out-param.
 */
double
servingPass(runtime::Server &server, const Workload &w,
            const std::vector<std::string> &tenant_names,
            int jobs_per_tenant, std::uint64_t &gates_before,
            std::uint64_t &completed_before, double &jobs_per_sec)
{
    const int tenants = static_cast<int>(tenant_names.size());
    const auto t0 = Clock::now();
    std::vector<std::thread> submitters;
    submitters.reserve(static_cast<std::size_t>(tenants));
    for (int t = 0; t < tenants; ++t)
        submitters.emplace_back([&, t] {
            std::vector<std::future<runtime::JobResult>> futs;
            futs.reserve(static_cast<std::size_t>(jobs_per_tenant));
            for (int j = 0; j < jobs_per_tenant; ++j)
                futs.push_back(server.submit(
                    {tenant_names[static_cast<std::size_t>(t)],
                     w.job(j)}));
            for (auto &f : futs)
                f.get();
        });
    for (auto &t : submitters)
        t.join();
    const double wall = secondsSince(t0);
    const auto stats = server.stats();
    const auto gates = stats.gatesPlayed - gates_before;
    const auto done = stats.completed - completed_before;
    gates_before = stats.gatesPlayed;
    completed_before = stats.completed;
    jobs_per_sec =
        wall > 0.0 ? static_cast<double>(done) / wall : 0.0;
    return wall > 0.0 ? static_cast<double>(gates) / wall : 0.0;
}

std::vector<std::string>
tenantNames(int tenants)
{
    std::vector<std::string> names;
    names.reserve(static_cast<std::size_t>(tenants));
    for (int t = 0; t < tenants; ++t)
        names.push_back("tenant-" + std::to_string(t));
    return names;
}

/**
 * One serving configuration: `tenants` submitter threads each stream
 * `jobs_per_tenant` jobs at the server, `reps` times against one
 * rack (first rep warms the decoded-window cache; best rep reports
 * the machine's steady-state capability, not its stalls — the same
 * protocol as bench_rack_throughput).
 */
QueuedRun
runQueued(const Workload &w, int shards, int tenants,
          int jobs_per_tenant, std::size_t queue_depth, int workers,
          int reps)
{
    runtime::Server server(
        w.dev, w.clib,
        serverConfig(w, shards, workers, queue_depth));
    const auto tenant_names = tenantNames(tenants);

    QueuedRun best;
    std::uint64_t gates_before = 0, completed_before = 0;
    for (int rep = 0; rep < reps; ++rep) {
        double jps = 0.0;
        const double gps =
            servingPass(server, w, tenant_names, jobs_per_tenant,
                        gates_before, completed_before, jps);
        if (gps > best.gatesPerSec) {
            best.gatesPerSec = gps;
            best.jobsPerSec = jps;
        }
    }
    // Counters and latency rollups cover all reps (steady state
    // dominates: only the first rep decodes cold).
    best.stats = server.stats();
    return best;
}

/** Head-to-head result at equal worker count. */
struct Comparison
{
    double queuedGatesPerSec = 0.0;
    double queuedJobsPerSec = 0.0;
    double syncGatesPerSec = 0.0;
    /** Server stats over all comparison passes (latency rollups). */
    runtime::ServerStats queuedStats;
};

/**
 * The acceptance comparison: the queued multi-tenant front end vs
 * a synchronous per-submission service, equal worker count, same
 * offered load. The synchronous side runs the same tenant threads
 * but must serialize them with a caller-side mutex — a
 * RuntimeService cannot be entered concurrently — which is exactly
 * the handoff overhead the server's queue-and-coalesce replaces.
 *
 * Both worlds persist across passes (shared cache warmup) and the
 * measured passes alternate queued/sync so scheduler drift lands on
 * both sides equally instead of biasing whichever ran last.
 */
Comparison
compareFrontEnds(const Workload &w, int shards, int tenants,
                 int jobs_per_tenant, int workers, int passes)
{
    runtime::Server server(w.dev, w.clib,
                           serverConfig(w, shards, workers, 1024));
    const runtime::Rack srack(w.dev, w.clib, rackConfig(w, shards));
    runtime::RuntimeService svc(srack, {.workers = workers});
    const auto tenant_names = tenantNames(tenants);

    std::uint64_t gates_before = 0, completed_before = 0;
    auto queuedPass = [&](double &jobs_per_sec) {
        return servingPass(server, w, tenant_names, jobs_per_tenant,
                           gates_before, completed_before,
                           jobs_per_sec);
    };
    auto syncPass = [&] {
        std::mutex mu;
        std::atomic<std::uint64_t> gates{0};
        const auto t0 = Clock::now();
        std::vector<std::thread> threads;
        for (int t = 0; t < tenants; ++t)
            threads.emplace_back([&] {
                for (int j = 0; j < jobs_per_tenant; ++j) {
                    std::lock_guard lock(mu);
                    gates += svc.executeBatchCompiledPerJob({w.job(j)})
                                 .total.totalGates;
                }
            });
        for (auto &t : threads)
            t.join();
        const double wall = secondsSince(t0);
        return wall > 0.0
                   ? static_cast<double>(gates.load()) / wall
                   : 0.0;
    };

    // Shared warmup: both caches hot before anything is measured.
    double ignored = 0.0;
    queuedPass(ignored);
    syncPass();

    Comparison c;
    for (int p = 0; p < passes; ++p) {
        double jps = 0.0;
        const double q = queuedPass(jps);
        if (q > c.queuedGatesPerSec) {
            c.queuedGatesPerSec = q;
            c.queuedJobsPerSec = jps;
        }
        c.syncGatesPerSec = std::max(c.syncGatesPerSec, syncPass());
    }
    c.queuedStats = server.stats();
    return c;
}

/** Upper reference: the whole job set as one synchronous batch. */
double
runSyncBigBatch(const Workload &w, int shards, int total_jobs,
                int workers, int reps)
{
    const runtime::Rack rack(w.dev, w.clib, rackConfig(w, shards));
    runtime::RuntimeService svc(rack, {.workers = workers});
    std::vector<circuits::Schedule> batch;
    batch.reserve(static_cast<std::size_t>(total_jobs));
    for (int j = 0; j < total_jobs; ++j)
        batch.push_back(w.job(j));
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = Clock::now();
        const auto stats = svc.executeBatchCompiledPerJob(batch).total;
        const double wall = secondsSince(t0);
        if (wall > 0.0)
            best = std::max(
                best,
                static_cast<double>(stats.totalGates) / wall);
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool tiny =
        argc > 1 && std::strcmp(argv[1], "--tiny") == 0;

    bench::JsonReport report("serving_latency");

    const int distance = 3;
    const int shards = tiny ? 2 : 4;
    const int jobs_per_tenant = tiny ? 8 : 16;
    const int reps = 3;
    const std::vector<int> tenant_counts =
        tiny ? std::vector<int>{8} : std::vector<int>{1, 4, 8};
    // Depth 8 shows admission control rejecting under overload,
    // depth 256 admits the whole job set (both modes keep both: the
    // backpressure row is part of the schema CI checks).
    const std::vector<std::size_t> queue_depths = {8, 256};
    const std::vector<int> worker_counts =
        tiny ? std::vector<int>{2, 4} : std::vector<int>{1, 2, 4};
    const int compare_workers = 8;
    const int compare_tenants = tenant_counts.back();
    report.setWorkers(compare_workers);

    const auto w = makeWorkload(distance);

    Table t("serving latency: tenants x queue depth x workers"
            " (d=3 syndrome jobs, maxBatch=16)");
    t.header({"tenants", "depth", "workers", "jobs", "done", "rej",
              "jobs/s", "gates/s", "p50 ms", "p95 ms", "p99 ms",
              "fill", "hit rate"});

    for (const int tenants : tenant_counts) {
        for (const std::size_t depth : queue_depths) {
            for (const int workers : worker_counts) {
                const QueuedRun best =
                    runQueued(w, shards, tenants, jobs_per_tenant,
                              depth, workers, reps);
                const auto &s = best.stats;
                t.row({std::to_string(tenants),
                       std::to_string(depth),
                       std::to_string(workers),
                       std::to_string(s.submitted),
                       std::to_string(s.completed),
                       std::to_string(s.rejected),
                       Table::num(best.jobsPerSec, 0),
                       Table::num(best.gatesPerSec, 0),
                       Table::num(s.totalLatency.p50 * 1e3, 3),
                       Table::num(s.totalLatency.p95 * 1e3, 3),
                       Table::num(s.totalLatency.p99 * 1e3, 3),
                       Table::num(s.meanBatchFill, 1),
                       Table::num(s.cacheHitRate, 3)});
            }
        }
    }
    report.print(t);

    // The acceptance comparison: queued multi-tenant serving vs the
    // synchronous per-submission loop, equal worker count, same
    // offered load, interleaved measurement passes.
    const int total_jobs = compare_tenants * jobs_per_tenant;
    const int passes = tiny ? 4 : 5;
    const Comparison cmp =
        compareFrontEnds(w, shards, compare_tenants, jobs_per_tenant,
                         compare_workers, passes);
    const double sync_big = runSyncBigBatch(
        w, shards, total_jobs, compare_workers, reps);
    const double ratio =
        cmp.syncGatesPerSec > 0.0
            ? cmp.queuedGatesPerSec / cmp.syncGatesPerSec
            : 0.0;
    std::cout << "\nqueued vs synchronous per-job front end (gates/s,"
              << " " << compare_tenants << " tenants, "
              << compare_workers << " workers): "
              << Table::num(ratio, 2) << "x\n";

    report.metric("queued_gates_per_sec", cmp.queuedGatesPerSec);
    report.metric("queued_jobs_per_sec", cmp.queuedJobsPerSec);
    report.metric("sync_per_job_gates_per_sec",
                  cmp.syncGatesPerSec);
    report.metric("sync_big_batch_gates_per_sec", sync_big);
    report.metric("queued_vs_sync_ratio", ratio);
    report.metric("latency_p50_ms",
                  cmp.queuedStats.totalLatency.p50 * 1e3);
    report.metric("latency_p95_ms",
                  cmp.queuedStats.totalLatency.p95 * 1e3);
    report.metric("latency_p99_ms",
                  cmp.queuedStats.totalLatency.p99 * 1e3);
    report.metric("queue_latency_p95_ms",
                  cmp.queuedStats.queueLatency.p95 * 1e3);
    report.metric("mean_batch_fill", cmp.queuedStats.meanBatchFill);
    report.metric("cache_hit_rate_mixed_tenants",
                  cmp.queuedStats.cacheHitRate);
    report.metric("cache_hits_mixed_tenants",
                  static_cast<double>(cmp.queuedStats.cache.hits));
    report.metric(
        "cache_prefetches_mixed_tenants",
        static_cast<double>(cmp.queuedStats.cache.prefetches));
    report.metric(
        "cache_prefetch_hits_mixed_tenants",
        static_cast<double>(cmp.queuedStats.cache.prefetchHits));

    // Deterministic backpressure segment: hold dispatch, fill the
    // queue to depth, and verify the overflow submissions are
    // rejected-with-status instead of blocking.
    {
        const std::size_t depth = 8;
        const int overflow = 3;
        runtime::Server server(
            w.dev, w.clib,
            serverConfig(w, shards, compare_workers, depth));
        server.pause();
        std::vector<std::future<runtime::JobResult>> futs;
        for (std::size_t i = 0;
             i < depth + static_cast<std::size_t>(overflow); ++i)
            futs.push_back(server.submit({"overload", w.ping}));
        server.resume();
        server.drain();
        std::size_t rejected = 0, completed = 0;
        for (auto &f : futs) {
            const auto r = f.get();
            rejected += r.status == runtime::JobStatus::Rejected;
            completed += r.status == runtime::JobStatus::Completed;
        }
        std::cout << "backpressure at depth " << depth << ": "
                  << completed << " completed, " << rejected
                  << " rejected of " << futs.size()
                  << " submissions\n";
        report.metric("backpressure_rejected",
                      static_cast<double>(rejected));
        report.metric("backpressure_completed",
                      static_cast<double>(completed));
        report.metric("backpressure_expected_rejected",
                      static_cast<double>(overflow));
    }
    return 0;
}
