/**
 * @file
 * A production-shaped serving loop: several tenants stream
 * surface-code syndrome jobs at one shared control rack through the
 * asynchronous front end (runtime::Server). The server admits jobs
 * into a bounded queue, coalesces them across tenants into rack
 * batches on the shared worker pool, and accounts per-tenant latency
 * — while the fleet-shared decoded-window cache keeps every tenant's
 * hot pulses decoded-once.
 *
 * Act two is the recalibration: a calibrator recompiles the pulse
 * library on the compile plane and publishes it with swapLibrary()
 * while the tenants keep streaming. Nothing drains — jobs already
 * dispatched finish on the epoch their batch pinned, later jobs pin
 * the new epoch — and the per-version job counts show the cutover.
 *
 * Build & run:  ./build/serving_loop
 */

#include <atomic>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuits/scheduler.hh"
#include "circuits/surface_code.hh"
#include "common/table.hh"
#include "compaqt.hh"

using namespace compaqt;

int
main()
{
    // One rack: a 17-qubit (d=3) patch sharded across 2 RFSoCs.
    const auto sc = circuits::makeSurfaceCode(
        3, circuits::SurfaceLayout::Rotated, 1);
    const auto dev = waveform::DeviceModel::synthetic(
        "serving-surface-" + std::to_string(sc.totalQubits()),
        sc.totalQubits(), sc.nativeCoupling().edges());
    const auto lib = PulseLibrary::build(dev);
    auto clib = std::make_shared<const CompressedLibrary>(
        Pipeline::with("int-dct")
            .window(16)
            .mseTarget(1e-5)
            .build()
            .compressLibrary(lib));

    runtime::RackConfig rc;
    rc.numShards = 2;
    rc.policy = runtime::ShardPolicy::LocalityAware;
    rc.controller.compressed = true;
    rc.controller.windowSize = 16;
    // Provision word-budget headroom so a future recalibration
    // (possibly fatter windows) still satisfies the swap contract.
    rc.controller.memoryWidth = clib->worstCaseWindowWords() * 2;
    rc.cacheWindows = 1u << 15;

    // The serving front end over a fleet of one rack: bounded queue,
    // batch coalescing, and per-tenant accounting. workers = 0 picks
    // the hardware default. The server's registry becomes the
    // library's only owner, so a later swap can release it.
    Server server(dev, std::move(clib),
                  FleetConfig{.rack = rc,
                              .workers = 0,
                              .queueDepth = 64,
                              .maxBatch = 8});

    // Four tenants, each streaming 12 syndrome-cycle jobs.
    const auto sched = circuits::schedule(sc.circuit, {});
    constexpr int kTenants = 4;
    constexpr int kJobs = 12;
    std::vector<std::thread> tenants;
    for (int t = 0; t < kTenants; ++t)
        tenants.emplace_back([&, t] {
            std::vector<std::future<JobResult>> futs;
            for (int j = 0; j < kJobs; ++j)
                futs.push_back(server.submit(
                    {"tenant-" + std::to_string(t), sched}));
            for (auto &f : futs) {
                const auto r = f.get();
                if (r.status != JobStatus::Completed)
                    std::cerr << "job " << jobStatusName(r.status)
                              << ": " << r.error << '\n';
            }
        });
    for (auto &t : tenants)
        t.join();
    server.drain();

    const auto s = server.stats();
    Table t("multi-tenant serving loop (" +
            std::to_string(server.workers()) + " workers, queue " +
            std::to_string(server.queueDepth()) + ")");
    t.header({"tenant", "done", "rej", "gates", "p50 ms", "p99 ms"});
    for (const auto &[name, ts] : s.tenants)
        t.row({name, std::to_string(ts.completed),
               std::to_string(ts.rejected),
               std::to_string(ts.gatesPlayed),
               Table::num(ts.totalLatency.p50 * 1e3, 3),
               Table::num(ts.totalLatency.p99 * 1e3, 3)});
    t.print(std::cout);

    std::cout << "\nbatches dispatched: " << s.batchesDispatched
              << " (mean fill " << Table::num(s.meanBatchFill, 1)
              << " jobs)\ncache hit rate across tenants: "
              << Table::num(s.cacheHitRate, 3)
              << "\nfleet p99 latency: "
              << Table::num(s.totalLatency.p99 * 1e3, 3) << " ms\n";

    // ------------------------------------------------------------
    // Act two: recalibration under live traffic. The calibrator
    // recompiles the pulse library on the compile plane (a coarser
    // MSE target stands in for fresh calibration data) and hot-swaps
    // it mid-stream. Submission never blocks and no queue drains.
    // ------------------------------------------------------------
    core::LibraryCompilerConfig cc;
    cc.fidelity.base.codec = "int-dct";
    cc.fidelity.base.windowSize = 16;
    cc.fidelity.targetMse = 1e-3;
    cc.workers = 2;
    const auto recal =
        std::make_shared<const CompressedLibrary>(
            core::LibraryCompiler(cc).compile(lib).library);

    std::atomic<int> done{0};
    std::vector<std::thread> streams;
    for (int t = 0; t < kTenants; ++t)
        streams.emplace_back([&, t] {
            for (int j = 0; j < kJobs; ++j) {
                server
                    .submit({"tenant-" + std::to_string(t), sched})
                    .get();
                done.fetch_add(1, std::memory_order_release);
            }
        });

    // Publish once the fleet is demonstrably mid-stream.
    while (done.load(std::memory_order_acquire) <
           kTenants * kJobs / 3)
        std::this_thread::yield();
    const auto v2 = server.swapLibrary(recal);
    std::cout << "\ncalibrator published library v" << v2
              << " mid-stream\n";
    for (auto &st : streams)
        st.join();
    // One tail job per tenant, submitted after the publish returned,
    // so the cutover always shows both epochs.
    for (int t = 0; t < kTenants; ++t)
        server.submit({"tenant-" + std::to_string(t), sched}).get();
    server.drain();

    const auto s2 = server.stats();
    std::cout << "jobs per library epoch:";
    for (const auto &[version, count] : s2.jobsByLibraryVersion)
        std::cout << "  v" << version << ": " << count;
    std::cout << "\nlibrary swaps: " << s2.librarySwaps
              << ", epochs still live: " << s2.libraryVersionsLive
              << ", rejected: " << s2.rejected << ", failed: "
              << s2.failed << '\n';

    // Graceful shutdown: in-flight work completes, nothing is
    // silently dropped (the destructor would do the same).
    server.shutdown();
    const std::uint64_t expected =
        static_cast<std::uint64_t>(kTenants) * (2 * kJobs + 1);
    return s2.completed == expected && s2.failed == 0 ? 0 : 1;
}
