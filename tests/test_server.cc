/**
 * @file
 * Tests for the serving plane (runtime::Server): submission and
 * completion, admission control / backpressure, graceful shutdown
 * semantics, per-tenant accounting, and the headline determinism
 * contract — a job's RackStats is a pure function of (rack, schedule),
 * identical for 1 vs N workers and for any submission interleaving or
 * batch coalescing of the same job set.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuits/scheduler.hh"
#include "core/pipeline.hh"
#include "runtime/rack.hh"
#include "runtime/server.hh"
#include "runtime/service.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"

namespace compaqt::runtime
{
namespace
{

/** Small bogota workload: two distinct schedules and a compressed
 *  library shared by every test. */
struct ServerFixture
{
    waveform::DeviceModel dev = waveform::DeviceModel::ibm("bogota");
    /** The compressed library, shared, as Rack and Server take it. */
    std::shared_ptr<const core::CompressedLibrary> lib;
    circuits::Schedule schedA;
    circuits::Schedule schedB;

    ServerFixture()
    {
        const auto pulses = waveform::PulseLibrary::build(dev);
        lib = std::make_shared<const core::CompressedLibrary>(
            core::CompressionPipeline::with("int-dct")
                .window(16)
                .mseTarget(1e-5)
                .build()
                .compressLibrary(pulses));

        circuits::Circuit a(5);
        for (int q = 0; q < 5; ++q)
            a.x(q);
        a.measureAll();
        schedA = circuits::schedule(a, {});

        circuits::Circuit b(5);
        for (const auto &[x, y] : dev.coupling())
            b.cx(x, y);
        schedB = circuits::schedule(b, {});
    }

    RackConfig
    rackConfig(std::size_t cache_windows = 4096) const
    {
        RackConfig rc;
        rc.numShards = 2;
        rc.controller.compressed = true;
        rc.controller.windowSize = 16;
        rc.controller.memoryWidth = lib->worstCaseWindowWords();
        rc.cacheWindows = cache_windows;
        return rc;
    }
};

/** Every deterministic field of a job rollup (everything except the
 *  batch-scoped cache counters and wall-clock throughput). */
void
expectSameDemand(const RackStats &a, const RackStats &b)
{
    ASSERT_EQ(a.shards.size(), b.shards.size());
    for (std::size_t s = 0; s < a.shards.size(); ++s) {
        const auto &x = a.shards[s];
        const auto &y = b.shards[s];
        EXPECT_EQ(x.demand.peakBanks, y.demand.peakBanks) << s;
        EXPECT_EQ(x.demand.peakChannels, y.demand.peakChannels) << s;
        EXPECT_EQ(x.demand.peakBandwidthBytesPerSec,
                  y.demand.peakBandwidthBytesPerSec)
            << s;
        EXPECT_EQ(x.demand.feasible, y.demand.feasible) << s;
        EXPECT_EQ(x.demand.totalSamples, y.demand.totalSamples) << s;
        EXPECT_EQ(x.demand.totalWordsRead, y.demand.totalWordsRead)
            << s;
        EXPECT_EQ(x.demand.missingGates, y.demand.missingGates) << s;
        EXPECT_EQ(x.demand.bypassSamples, y.demand.bypassSamples)
            << s;
        EXPECT_EQ(x.gatesPlayed, y.gatesPlayed) << s;
        EXPECT_EQ(x.windowsDecoded, y.windowsDecoded) << s;
        EXPECT_EQ(x.samplesDecoded, y.samplesDecoded) << s;
        EXPECT_EQ(x.samplesBypassed, y.samplesBypassed) << s;
    }
    EXPECT_EQ(a.fleetPeakBanks, b.fleetPeakBanks);
    EXPECT_EQ(a.fleetPeakChannels, b.fleetPeakChannels);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.totalGates, b.totalGates);
    EXPECT_EQ(a.totalSamples, b.totalSamples);
    EXPECT_EQ(a.totalBypassSamples, b.totalBypassSamples);
    EXPECT_EQ(a.totalWindows, b.totalWindows);
    EXPECT_EQ(a.missingGates, b.missingGates);
    EXPECT_EQ(a.unownedEvents, b.unownedEvents);
}

TEST(Server, CompletesSubmittedJobsWithTimingAndTenantStats)
{
    const ServerFixture fx;
    Server server(fx.dev, fx.lib,
                  {.rack = fx.rackConfig(), .workers = 2, .queueDepth = 64,
                   .maxBatch = 8});

    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 10; ++i)
        futs.push_back(server.submit(
            {i % 2 ? "alice" : "bob", i % 2 ? fx.schedA : fx.schedB}));
    for (auto &f : futs) {
        const auto r = f.get();
        EXPECT_EQ(r.status, JobStatus::Completed)
            << jobStatusName(r.status) << " " << r.error;
        EXPECT_GT(r.stats.totalGates, 0u);
        EXPECT_GE(r.timing.queueSeconds, 0.0);
        EXPECT_GE(r.timing.executeSeconds, 0.0);
        EXPECT_GE(r.timing.totalSeconds, r.timing.executeSeconds);
    }
    server.drain();

    const auto s = server.stats();
    EXPECT_EQ(s.submitted, 10u);
    EXPECT_EQ(s.completed, 10u);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.cancelled, 0u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.queuedNow, 0u);
    EXPECT_GE(s.batchesDispatched, 1u);
    EXPECT_GE(s.meanBatchFill, 1.0);
    EXPECT_EQ(s.totalLatency.count, 10u);
    EXPECT_GE(s.totalLatency.p95, s.totalLatency.p50);
    EXPECT_GE(s.totalLatency.p99, s.totalLatency.p95);
    EXPECT_GE(s.totalLatency.max, s.totalLatency.p99);
    // Mixed tenants share the rack cache; traffic was recorded.
    EXPECT_GT(s.cache.hits + s.cache.misses, 0u);
    ASSERT_EQ(s.tenants.size(), 2u);
    EXPECT_EQ(s.tenants.at("alice").completed, 5u);
    EXPECT_EQ(s.tenants.at("bob").completed, 5u);
    EXPECT_EQ(s.tenants.at("alice").totalLatency.count, 5u);
    EXPECT_GT(s.tenants.at("bob").gatesPlayed, 0u);
    EXPECT_EQ(s.gatesPlayed,
              s.tenants.at("alice").gatesPlayed +
                  s.tenants.at("bob").gatesPlayed);
}

TEST(Server, RejectsWhenQueueFullAndRecovers)
{
    const ServerFixture fx;
    Server server(fx.dev, fx.lib,
                  {.rack = fx.rackConfig(), .workers = 1, .queueDepth = 3,
                   .maxBatch = 2});

    // Hold dispatch so the queue fills deterministically.
    server.pause();
    std::vector<std::future<JobResult>> accepted;
    for (int i = 0; i < 3; ++i)
        accepted.push_back(server.submit({"t", fx.schedA}));
    EXPECT_EQ(server.queued(), 3u);

    // The queue is at depth: the next submit is rejected with a
    // status, immediately — the caller is never blocked.
    auto over = server.submit({"t", fx.schedA});
    ASSERT_EQ(over.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const auto r = over.get();
    EXPECT_EQ(r.status, JobStatus::Rejected);
    EXPECT_FALSE(r.error.empty());

    // Backpressure clears once the dispatcher catches up.
    server.resume();
    server.drain();
    for (auto &f : accepted)
        EXPECT_EQ(f.get().status, JobStatus::Completed);
    auto retry = server.submit({"t", fx.schedA});
    EXPECT_EQ(retry.get().status, JobStatus::Completed);

    const auto s = server.stats();
    EXPECT_EQ(s.submitted, 5u);
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.completed, 4u);
    EXPECT_EQ(s.tenants.at("t").rejected, 1u);
}

TEST(Server, ShutdownCancelsQueuedJobsDeterministically)
{
    const ServerFixture fx;
    Server server(fx.dev, fx.lib,
                  {.rack = fx.rackConfig(), .workers = 1, .queueDepth = 8,
                   .maxBatch = 4});

    server.pause(); // nothing dispatches: all 5 jobs are queued
    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 5; ++i)
        futs.push_back(server.submit({"t", fx.schedA}));
    server.shutdown();

    for (auto &f : futs) {
        const auto r = f.get();
        EXPECT_EQ(r.status, JobStatus::Cancelled);
        EXPECT_GE(r.timing.queueSeconds, 0.0);
        EXPECT_FALSE(r.error.empty());
    }
    EXPECT_TRUE(server.stopped());

    // Admission after shutdown rejects immediately.
    auto late = server.submit({"t", fx.schedA});
    ASSERT_EQ(late.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(late.get().status, JobStatus::Rejected);

    const auto s = server.stats();
    EXPECT_EQ(s.cancelled, 5u);
    EXPECT_EQ(s.completed, 0u);
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.tenants.at("t").cancelled, 5u);
}

TEST(Server, ShutdownCompletesInFlightJobs)
{
    const ServerFixture fx;
    std::vector<std::future<JobResult>> futs;
    {
        Server server(fx.dev, fx.lib,
                      {.rack = fx.rackConfig(), .workers = 2, .queueDepth = 16,
                       .maxBatch = 4});
        for (int i = 0; i < 8; ++i)
            futs.push_back(server.submit({"t", fx.schedB}));
        // Destructor shutdown: whatever was dispatched completes,
        // the rest is cancelled — never dropped, never blocked.
    }
    std::size_t completed = 0, cancelled = 0;
    for (auto &f : futs) {
        const auto r = f.get();
        ASSERT_TRUE(r.status == JobStatus::Completed ||
                    r.status == JobStatus::Cancelled)
            << jobStatusName(r.status);
        completed += r.status == JobStatus::Completed;
        cancelled += r.status == JobStatus::Cancelled;
    }
    EXPECT_EQ(completed + cancelled, 8u);
}

TEST(Server, ConfigDefaultsAreClamped)
{
    const ServerFixture fx;
    // workers <= 0 resolves to the clamped hardware default;
    // queueDepth/maxBatch 0 clamp to 1 instead of wedging the queue.
    Server server(fx.dev, fx.lib,
                  {.rack = fx.rackConfig(), .workers = 0, .queueDepth = 0,
                   .maxBatch = 0});
    EXPECT_GE(server.workers(), 1);
    EXPECT_EQ(server.queueDepth(), 1u);
    EXPECT_EQ(server.maxBatch(), 1u);
    auto f = server.submit({"t", fx.schedA});
    EXPECT_EQ(f.get().status, JobStatus::Completed);
}

TEST(Server, NullLibraryConstructionThrows)
{
    const ServerFixture fx;
    FleetConfig cfg;
    cfg.rack = fx.rackConfig();
    cfg.workers = 1;
    EXPECT_THROW(Server(fx.dev, nullptr, cfg), std::invalid_argument);
}

TEST(Server, DrainOnIdleServerReturnsImmediately)
{
    const ServerFixture fx;
    Server server(fx.dev, fx.lib, {.rack = fx.rackConfig(), .workers = 1});
    server.drain();
    EXPECT_EQ(server.stats().submitted, 0u);
}

TEST(Server, PerJobStatsMatchSynchronousExecution)
{
    const ServerFixture fx;
    // Reference: each schedule alone through the synchronous service.
    const Rack refRack(fx.dev, fx.lib, fx.rackConfig());
    RuntimeService ref(refRack, {.workers = 1});
    const auto refA = ref.executeBatchCompiledPerJob({fx.schedA}).jobs[0];
    const auto refB = ref.executeBatchCompiledPerJob({fx.schedB}).jobs[0];

    Server server(fx.dev, fx.lib,
                  {.rack = fx.rackConfig(), .workers = 2, .queueDepth = 32,
                   .maxBatch = 8});
    auto fa = server.submit({"a", fx.schedA});
    auto fb = server.submit({"b", fx.schedB});
    const auto ra = fa.get();
    const auto rb = fb.get();
    ASSERT_EQ(ra.status, JobStatus::Completed);
    ASSERT_EQ(rb.status, JobStatus::Completed);
    expectSameDemand(ra.stats, refA);
    expectSameDemand(rb.stats, refB);
}

TEST(Server, ResultsIdenticalAcrossWorkersAndInterleavings)
{
    // The serving determinism contract (mirrors the PR 4
    // compile-plane identity test): the same job set submitted in any
    // order, from any number of threads, against any worker count
    // yields bit-identical per-job RackStats and identical ServerStats
    // volume rollups.
    const ServerFixture fx;
    const Rack refRack(fx.dev, fx.lib, fx.rackConfig());
    RuntimeService ref(refRack, {.workers = 1});
    const auto refA = ref.executeBatchCompiledPerJob({fx.schedA}).jobs[0];
    const auto refB = ref.executeBatchCompiledPerJob({fx.schedB}).jobs[0];
    constexpr int kPerTenant = 4;

    for (const int workers : {1, 4}) {
        for (const bool threaded : {false, true}) {
            // maxBatch 3 with 8 jobs: coalesced batch boundaries
            // never align with job boundaries, so attribution is
            // genuinely exercised across compositions.
            Server server(fx.dev, fx.lib,
                          {.rack = fx.rackConfig(), .workers = workers,
                           .queueDepth = 64, .maxBatch = 3});
            std::vector<std::future<JobResult>> futsA, futsB;
            futsA.reserve(kPerTenant);
            futsB.reserve(kPerTenant);
            auto submitA = [&] {
                for (int i = 0; i < kPerTenant; ++i)
                    futsA.push_back(server.submit({"a", fx.schedA}));
            };
            auto submitB = [&] {
                for (int i = 0; i < kPerTenant; ++i)
                    futsB.push_back(server.submit({"b", fx.schedB}));
            };
            if (threaded) {
                std::thread ta(submitA), tb(submitB);
                ta.join();
                tb.join();
            } else {
                submitB(); // reversed order vs the threaded case
                submitA();
            }
            for (auto &f : futsA) {
                const auto r = f.get();
                ASSERT_EQ(r.status, JobStatus::Completed);
                expectSameDemand(r.stats, refA);
            }
            for (auto &f : futsB) {
                const auto r = f.get();
                ASSERT_EQ(r.status, JobStatus::Completed);
                expectSameDemand(r.stats, refB);
            }
            server.drain();
            const auto s = server.stats();
            EXPECT_EQ(s.completed, 2u * kPerTenant);
            EXPECT_EQ(s.gatesPlayed,
                      kPerTenant *
                          (refA.totalGates + refB.totalGates));
            EXPECT_EQ(s.samplesDecoded,
                      kPerTenant *
                          (refA.totalSamples + refB.totalSamples));
            EXPECT_EQ(s.tenants.at("a").gatesPlayed,
                      kPerTenant * refA.totalGates);
            EXPECT_EQ(s.tenants.at("b").samplesDecoded,
                      kPerTenant * refB.totalSamples);
        }
    }
}

TEST(Server, ConcurrentMixedTenantsKeepCacheLoadBearing)
{
    // Many tenants hammering the same hot pulses through one rack:
    // after the cold pass, the shared decoded-window cache serves the
    // fleet — the serving-plane workload it exists for.
    const ServerFixture fx;
    Server server(fx.dev, fx.lib,
                  {.rack = fx.rackConfig(1 << 14), .workers = 4,
                   .queueDepth = 256, .maxBatch = 8});
    std::vector<std::thread> tenants;
    for (int t = 0; t < 4; ++t)
        tenants.emplace_back([&, t] {
            std::vector<std::future<JobResult>> futs;
            for (int i = 0; i < 8; ++i)
                futs.push_back(server.submit(
                    {"tenant-" + std::to_string(t),
                     i % 2 ? fx.schedA : fx.schedB}));
            for (auto &f : futs)
                ASSERT_EQ(f.get().status, JobStatus::Completed);
        });
    for (auto &t : tenants)
        t.join();
    server.drain();
    const auto s = server.stats();
    EXPECT_EQ(s.completed, 32u);
    EXPECT_EQ(s.tenants.size(), 4u);
    // 32 replays of two schedules: overwhelmingly cache hits.
    EXPECT_GT(s.cacheHitRate, 0.9);
    EXPECT_GT(s.cache.hits, s.cache.misses);
}

TEST(Server, OversizedJobFailsAloneAndOthersRerunCleanly)
{
    // A schedule whose shard program overflows the instruction memory
    // throws inside a coalesced batch. The dispatcher then re-runs the
    // batch one job at a time: only the oversized job fails, with the
    // compiler's reason, and the good jobs complete exactly as they
    // would alone — the failed batch never reached the model, so the
    // server's model counters are the re-runs' alone.
    const ServerFixture fx;
    circuits::Circuit big(5);
    for (int i = 0; i < 12000; ++i)
        big.x(0);
    const auto oversized = circuits::schedule(big, {});

    // Solo references on a fresh rack, in the re-runs' order.
    const Rack refRack(fx.dev, fx.lib, fx.rackConfig());
    RuntimeService ref(refRack, {.workers = 1});
    const auto soloA = ref.executeBatchCompiledPerJob({fx.schedA});
    const auto soloB = ref.executeBatchCompiledPerJob({fx.schedB});
    DecodedCacheStats want;
    want.accumulate(soloA.total.cache);
    want.accumulate(soloB.total.cache);

    Server server(fx.dev, fx.lib,
                  {.rack = fx.rackConfig(), .workers = 2, .maxBatch = 8});
    server.pause();
    auto fa = server.submit({"a", fx.schedA});
    auto fbig = server.submit({"big", oversized});
    auto fb = server.submit({"b", fx.schedB});
    server.resume();
    const auto ra = fa.get();
    const auto rbig = fbig.get();
    const auto rb = fb.get();

    ASSERT_EQ(rbig.status, JobStatus::Failed);
    EXPECT_NE(rbig.error.find("instruction-memory words"),
              std::string::npos)
        << rbig.error;
    ASSERT_EQ(ra.status, JobStatus::Completed) << ra.error;
    ASSERT_EQ(rb.status, JobStatus::Completed) << rb.error;
    expectSameDemand(ra.stats, soloA.jobs[0]);
    expectSameDemand(rb.stats, soloB.jobs[0]);
    EXPECT_EQ(ra.stats.prefetchesIssued, soloA.jobs[0].prefetchesIssued);
    EXPECT_EQ(rb.stats.prefetchesIssued, soloB.jobs[0].prefetchesIssued);

    server.drain();
    const auto s = server.stats();
    EXPECT_EQ(s.batchesDispatched, 1u);
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.completed, 2u);
    EXPECT_EQ(s.tenants.at("big").failed, 1u);
    EXPECT_EQ(s.cache.hits, want.hits);
    EXPECT_EQ(s.cache.misses, want.misses);
    EXPECT_EQ(s.cache.evictions, want.evictions);
    EXPECT_EQ(s.cache.prefetches, want.prefetches);
    EXPECT_EQ(s.cache.prefetchHits, want.prefetchHits);
    EXPECT_EQ(s.cache.prefetchWasted, want.prefetchWasted);
    EXPECT_EQ(s.cache.entries, want.entries);
    EXPECT_EQ(s.cache.residentSamples, want.residentSamples);
    EXPECT_GT(s.cache.misses, 0u);
}

/** Fleet fixture: a second calibration of the same gate set (coarser
 *  MSE target, so its windows and sample tallies genuinely differ)
 *  and a rack config whose memory width admits both libraries. */
struct FleetFixture : ServerFixture
{
    std::shared_ptr<const core::CompressedLibrary> libA;
    std::shared_ptr<const core::CompressedLibrary> libB;

    FleetFixture()
    {
        libA = std::make_shared<core::CompressedLibrary>(*lib);
        const auto pulses = waveform::PulseLibrary::build(dev);
        libB = std::make_shared<core::CompressedLibrary>(
            core::CompressionPipeline::with("int-dct")
                .window(16)
                .mseTarget(1e-3)
                .build()
                .compressLibrary(pulses));
    }

    RackConfig
    fleetRackConfig(std::size_t cache_windows = 4096) const
    {
        RackConfig rc = rackConfig(cache_windows);
        rc.controller.memoryWidth =
            std::max(libA->worstCaseWindowWords(),
                     libB->worstCaseWindowWords());
        return rc;
    }
};

TEST(FleetServer, RoutesTenantsAcrossRacksWithPerRackRollups)
{
    const FleetFixture fx;
    FleetConfig fc;
    fc.racks = 3;
    fc.rack = fx.fleetRackConfig();
    fc.workers = 2;
    fc.queueDepth = 256;
    fc.maxBatch = 4;
    fc.routing = RoutingPolicy::ConsistentHash;
    // Queues never back up in this test; a huge spill threshold
    // additionally pins every tenant to its hash-home rack so the
    // affinity contract below is exact.
    fc.spillQueueDepth = 1u << 20;
    Server server(fx.dev, fx.libA, fc);
    ASSERT_EQ(server.numRacks(), 3);

    constexpr int kTenants = 16, kJobs = 4;
    std::vector<std::future<JobResult>> futs;
    for (int j = 0; j < kJobs; ++j)
        for (int t = 0; t < kTenants; ++t)
            futs.push_back(server.submit(
                {"tenant-" + std::to_string(t),
                 t % 2 ? fx.schedA : fx.schedB}));
    std::map<std::string, int> home;
    for (std::size_t i = 0; i < futs.size(); ++i) {
        const auto r = futs[i].get();
        ASSERT_EQ(r.status, JobStatus::Completed);
        ASSERT_GE(r.rack, 0);
        ASSERT_LT(r.rack, 3);
        // Consistent hash: every job of one tenant lands on the
        // tenant's home rack (no spill in an unloaded fleet).
        const auto [it, fresh] = home.emplace(r.tenant, r.rack);
        if (!fresh) {
            EXPECT_EQ(it->second, r.rack) << r.tenant;
        }
    }
    server.drain();
    const auto s = server.stats();
    ASSERT_EQ(s.racks.size(), 3u);
    std::uint64_t sum = 0, gates = 0;
    for (const auto &r : s.racks) {
        EXPECT_GT(r.completed, 0u); // 16 tenants spread over 3 racks
        EXPECT_EQ(r.failed, 0u);
        EXPECT_EQ(r.queuedNow, 0u);
        sum += r.completed;
        gates += r.gatesPlayed;
    }
    EXPECT_EQ(sum, s.completed);
    EXPECT_EQ(sum, static_cast<std::uint64_t>(kTenants * kJobs));
    EXPECT_EQ(gates, s.gatesPlayed);
}

TEST(FleetServer, LeastLoadedRoutingCompletesEverything)
{
    const FleetFixture fx;
    FleetConfig fc;
    fc.racks = 2;
    fc.rack = fx.fleetRackConfig();
    fc.workers = 1;
    fc.routing = RoutingPolicy::LeastLoaded;
    Server server(fx.dev, fx.libA, fc);
    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 12; ++i)
        futs.push_back(server.submit({"t", fx.schedA}));
    for (auto &f : futs)
        ASSERT_EQ(f.get().status, JobStatus::Completed);
    server.drain();
    EXPECT_EQ(server.stats().completed, 12u);
}

/** Threads of this process, one /proc/self/task entry each. */
std::size_t
processThreads()
{
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return static_cast<std::size_t>(
        std::distance(begin(tasks), end(tasks)));
}

TEST(FleetServer, RunsRacksTimesWorkersThreads)
{
    // One pool for the fleet: each rack's dispatcher is one of its
    // workers and the pool holds the others, so R racks x W workers
    // start exactly R x W threads — with W = 1, none but the
    // dispatchers, which still play each other's grid cells.
    const FleetFixture fx;
    const std::size_t base = processThreads();
    for (const auto &[racks, workers] :
         {std::pair{3, 1}, std::pair{2, 2}}) {
        // A joined thread of the previous fleet may linger in /proc
        // for a moment.
        for (int i = 0; i < 1000 && processThreads() != base; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        FleetConfig fc;
        fc.racks = racks;
        fc.workers = workers;
        fc.rack = fx.fleetRackConfig();
        Server server(fx.dev, fx.libA, fc);
        EXPECT_EQ(processThreads(),
                  base + static_cast<std::size_t>(racks * workers))
            << racks << " racks x " << workers << " workers";
        EXPECT_EQ(server.workers(), workers);
        EXPECT_EQ(server.submit({"t", fx.schedA}).get().status,
                  JobStatus::Completed);
    }
}

TEST(FleetServer, HotSwapUnderLoadBitIdenticalPerPinnedVersion)
{
    // The headline hot-swap contract: tenant threads hammer submit()
    // while a calibrator publishes a new library mid-stream. No job
    // is dropped, none fails, and every job's deterministic rollup is
    // bit-identical to a synchronous run against the library version
    // its batch pinned, at 1 and N workers (run under TSan in CI, this
    // is also the data-race suite).
    const FleetFixture fx;
    const RackConfig rc = fx.fleetRackConfig();

    // Per-version synchronous references for both schedules.
    const Rack rackRefA(fx.dev, fx.libA, rc);
    const Rack rackRefB(fx.dev, fx.libB, rc);
    RuntimeService refSvcA(rackRefA, {.workers = 1});
    RuntimeService refSvcB(rackRefB, {.workers = 1});
    const auto refAa = refSvcA.executeBatchCompiledPerJob({fx.schedA}).jobs[0];
    const auto refAb = refSvcA.executeBatchCompiledPerJob({fx.schedB}).jobs[0];
    const auto refBa = refSvcB.executeBatchCompiledPerJob({fx.schedA}).jobs[0];
    const auto refBb = refSvcB.executeBatchCompiledPerJob({fx.schedB}).jobs[0];
    // The two calibrations must actually be distinguishable, or the
    // per-version comparison below proves nothing. Window counts
    // match (same window size); the words read per window do not
    // (the coarser MSE target keeps fewer coefficients).
    const auto wordsRead = [](const RackStats &r) {
        std::uint64_t words = 0;
        for (const auto &sh : r.shards)
            words += sh.demand.totalWordsRead;
        return words;
    };
    ASSERT_NE(wordsRead(refAa), wordsRead(refBa));

    for (const int workers : {1, 4}) {
        FleetConfig fc;
        fc.racks = 2;
        fc.rack = rc;
        fc.workers = workers;
        fc.queueDepth = 512;
        fc.maxBatch = 4;
        Server server(fx.dev, fx.libA, fc);
        const std::uint64_t v1 = server.stats().libraryVersion;

        constexpr int kThreads = 3, kPerThread = 20;
        std::vector<std::thread> tenants;
        std::vector<std::vector<std::future<JobResult>>> futs(kThreads);
        for (int t = 0; t < kThreads; ++t)
            tenants.emplace_back([&, t] {
                for (int i = 0; i < kPerThread; ++i)
                    futs[t].push_back(server.submit(
                        {"tenant-" + std::to_string(t),
                         i % 2 ? fx.schedA : fx.schedB}));
            });
        // Calibrator: publish mid-stream, with submissions in full
        // flight. Never pauses, never drains.
        const std::uint64_t v2 = server.swapLibrary(fx.libB);
        EXPECT_GT(v2, v1);
        for (auto &t : tenants)
            t.join();

        for (int t = 0; t < kThreads; ++t)
            for (int i = 0; i < kPerThread; ++i) {
                const auto r = futs[t][static_cast<std::size_t>(i)].get();
                ASSERT_EQ(r.status, JobStatus::Completed) << r.error;
                ASSERT_TRUE(r.libraryVersion == v1 ||
                            r.libraryVersion == v2);
                const bool odd = i % 2 != 0;
                const RackStats &ref =
                    r.libraryVersion == v1 ? (odd ? refAa : refAb)
                                           : (odd ? refBa : refBb);
                expectSameDemand(r.stats, ref);
            }
        // A job submitted after the swap deterministically pins the
        // new epoch — both versions are always exercised.
        const auto post = server.submit({"post-swap", fx.schedA}).get();
        ASSERT_EQ(post.status, JobStatus::Completed);
        EXPECT_EQ(post.libraryVersion, v2);
        expectSameDemand(post.stats, refBa);

        server.drain();
        const auto s = server.stats();
        EXPECT_EQ(s.librarySwaps, 1u);
        EXPECT_EQ(s.libraryVersion, v2);
        EXPECT_EQ(s.failed, 0u);
        EXPECT_EQ(s.rejected, 0u);
        std::uint64_t by_version = 0;
        for (const auto &[v, n] : s.jobsByLibraryVersion) {
            EXPECT_TRUE(v == v1 || v == v2);
            by_version += n;
        }
        EXPECT_EQ(by_version, s.completed);
    }
}

TEST(FleetServer, HotSwapReleasesRetiredEpochWithoutDraining)
{
    // Epoch lifetime: the fleet holds the old calibration only while
    // something pins it. Once the swap lands and in-flight work
    // finishes, the old library's memory is released — no flush, no
    // drain window, observed through a weak_ptr.
    const FleetFixture fx;
    FleetConfig fc;
    fc.racks = 2;
    fc.rack = fx.fleetRackConfig();
    fc.workers = 2;
    auto libA = std::make_shared<core::CompressedLibrary>(*fx.libA);
    std::weak_ptr<const core::CompressedLibrary> wA = libA;
    Server server(fx.dev, libA, fc);
    libA.reset();
    ASSERT_FALSE(wA.expired()); // current epoch: registry owns it

    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 8; ++i)
        futs.push_back(server.submit({"t", fx.schedA}));
    for (auto &f : futs)
        ASSERT_EQ(f.get().status, JobStatus::Completed);

    server.swapLibrary(fx.libB);
    server.drain();
    // Nothing pins the retired epoch anymore: released, while the
    // server keeps serving on the new one with no cache flush.
    EXPECT_TRUE(wA.expired());
    EXPECT_EQ(server.stats().libraryVersionsLive, 1u);
    const auto post = server.submit({"t", fx.schedA}).get();
    ASSERT_EQ(post.status, JobStatus::Completed);
}

} // namespace
} // namespace compaqt::runtime
