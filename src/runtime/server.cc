#include "runtime/server.hh"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "common/executor.hh"
#include "common/logging.hh"
#include "telemetry/trace.hh"

namespace compaqt::runtime
{

namespace
{

double
seconds(std::chrono::steady_clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** FNV-1a 64 over a byte string — the routing hash. Deterministic
 *  across processes, so a tenant's home rack is stable across
 *  restarts of an identically-sized fleet. */
std::uint64_t
fnv1a(const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

/** splitmix64 finalizer: FNV-1a's trailing bytes barely move the
 *  high bits (names like "tenant-7"/"tenant-8" would collapse onto
 *  adjacent ring positions), so avalanche the result before it picks
 *  a ring arc. */
std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
}

std::uint64_t
hashTenant(const std::string &tenant)
{
    return mix64(fnv1a(tenant.data(), tenant.size()));
}

/** Hash of one virtual node (lane, replica) for the ring. */
std::uint64_t
hashVnode(std::size_t lane, int replica)
{
    const std::uint64_t key[2] = {static_cast<std::uint64_t>(lane),
                                  static_cast<std::uint64_t>(replica)};
    return mix64(fnv1a(key, sizeof(key)));
}

/** Serving-plane counters, registered once. The references stay
 *  valid for process lifetime; add() is a relaxed striped increment
 *  (no lock, no lookup) on the hot path. */
struct ServerMetrics
{
    telemetry::Counter &submitted;
    telemetry::Counter &rejected;
    telemetry::Counter &completed;
    telemetry::Counter &failed;
    telemetry::Counter &cancelled;
    telemetry::Counter &batches;
    telemetry::Counter &spills;
    telemetry::Gauge &queuedNow;
    telemetry::Gauge &racks;

    static ServerMetrics &
    instance()
    {
        static ServerMetrics m = [] {
            auto &reg = telemetry::Registry::global();
            return ServerMetrics{
                reg.counter("server.jobs.submitted"),
                reg.counter("server.jobs.rejected"),
                reg.counter("server.jobs.completed"),
                reg.counter("server.jobs.failed"),
                reg.counter("server.jobs.cancelled"),
                reg.counter("server.batches.dispatched"),
                reg.counter("fleet.route.spills"),
                reg.gauge("server.queue.depth"),
                reg.gauge("fleet.racks"),
            };
        }();
        return m;
    }
};

/** Emit the queue/execute spans of one completed (or failed) job
 *  from its stored timestamps. Trace time is steady-clock relative
 *  to the collector's epoch, so the enqueue timestamp taken in
 *  submit() converts directly. */
void
traceJobSpans(telemetry::Trace &trace, std::uint64_t batch_seq,
              std::chrono::steady_clock::time_point enqueued,
              std::chrono::steady_clock::time_point dispatched,
              std::chrono::steady_clock::time_point completed)
{
    const std::uint64_t enq = trace.sinceEpochNs(enqueued);
    const std::uint64_t dis = trace.sinceEpochNs(dispatched);
    const std::uint64_t fin = trace.sinceEpochNs(completed);
    telemetry::TraceEvent e;
    e.cat = "job";
    e.kind = telemetry::EventKind::Complete;
    e.arg0Name = "batch";
    e.arg0 = batch_seq;
    e.name = "job.queue";
    e.startNs = enq;
    e.durNs = dis > enq ? dis - enq : 0;
    trace.record(e);
    e.name = "job.execute";
    e.startNs = dis;
    e.durNs = fin > dis ? fin - dis : 0;
    trace.record(e);
}

} // namespace

const char *
jobStatusName(JobStatus s)
{
    switch (s) {
      case JobStatus::Completed:
        return "completed";
      case JobStatus::Rejected:
        return "rejected";
      case JobStatus::Cancelled:
        return "cancelled";
      case JobStatus::Failed:
        return "failed";
    }
    return "unknown";
}

const char *
routingPolicyName(RoutingPolicy p)
{
    switch (p) {
      case RoutingPolicy::ConsistentHash:
        return "consistent-hash";
      case RoutingPolicy::LeastLoaded:
        return "least-loaded";
    }
    return "unknown";
}

Server::Server(const waveform::DeviceModel &dev,
               std::shared_ptr<const core::CompressedLibrary> lib,
               const FleetConfig &cfg)
    : cfg_(cfg)
{
    cfg_.racks = std::max(1, cfg_.racks);
    cfg_.queueDepth = std::max<std::size_t>(1, cfg_.queueDepth);
    cfg_.maxBatch = std::max<std::size_t>(1, cfg_.maxBatch);
    cfg_.virtualNodes = std::max(1, cfg_.virtualNodes);
    spill_ = cfg_.spillQueueDepth > 0 ? cfg_.spillQueueDepth
                                      : cfg_.maxBatch;
    cfg_.workers = cfg_.workers >= 1
                       ? cfg_.workers
                       : common::Executor::defaultWorkerCount();
    registry_ = std::make_shared<LibraryRegistry>(std::move(lib));
    // One pool for the fleet: each dispatcher is a caller and counts as
    // one of its rack's workers, so racks x workers threads run in all
    // and an idle dispatcher plays other racks' cells.
    exec_ = std::make_shared<common::Executor>(cfg_.racks * cfg_.workers,
                                               cfg_.racks);
    auto &reg = telemetry::Registry::global();
    lanes_.reserve(static_cast<std::size_t>(cfg_.racks));
    for (int i = 0; i < cfg_.racks; ++i) {
        auto lane = std::make_unique<Lane>();
        lane->index = i;
        // Every rack attaches to the ONE shared registry: a single
        // publish recalibrates the whole fleet.
        lane->rack = std::make_unique<Rack>(dev, registry_, cfg_.rack);
        lane->svc = std::make_unique<RuntimeService>(
            *lane->rack, exec_, cfg_.programCacheEntries);
        lane->jobsCounter = &reg.counter(
            "fleet.rack." + std::to_string(i) + ".jobs");
        const auto idx = static_cast<std::size_t>(i);
        for (int v = 0; v < cfg_.virtualNodes; ++v)
            ring_.emplace_back(hashVnode(idx, v), idx);
        lanes_.push_back(std::move(lane));
    }
    std::sort(ring_.begin(), ring_.end());
    ServerMetrics::instance().racks.set(
        static_cast<double>(lanes_.size()));
    for (auto &lane : lanes_)
        lane->dispatcher =
            std::thread([this, &l = *lane] { dispatchLoop(l); });
}

Server::~Server()
{
    shutdown();
}

const Rack &
Server::rack(int i) const
{
    COMPAQT_REQUIRE(i >= 0 &&
                        i < static_cast<int>(lanes_.size()),
                    "Server::rack: index out of range");
    return *lanes_[static_cast<std::size_t>(i)]->rack;
}

std::uint64_t
Server::swapLibrary(
    std::shared_ptr<const core::CompressedLibrary> lib)
{
    // Validate against the controller contract (every rack is built
    // from the same RackConfig, so one check covers the fleet), then
    // publish to the shared registry. No server lock, no pause, no
    // drain: in-flight batches keep their pinned epoch, and the next
    // batch any dispatcher forms pins the new one.
    if (!lib)
        throw std::invalid_argument(
            "Server::swapLibrary: library must not be null");
    lanes_.front()->rack->validateLibrary(*lib);
    return registry_->publish(std::move(lib));
}

std::future<JobResult>
Server::readyResult(JobStatus status, std::string tenant,
                    std::string error)
{
    std::promise<JobResult> pr;
    JobResult r;
    r.status = status;
    r.tenant = std::move(tenant);
    r.error = std::move(error);
    pr.set_value(std::move(r));
    return pr.get_future();
}

Server::Lane *
Server::routeLane(const std::string &tenant)
{
    Lane *least = lanes_.front().get();
    for (const auto &lp : lanes_)
        if (lp->queue.size() < least->queue.size())
            least = lp.get();
    const auto full = [this](const Lane &l) {
        return l.queue.size() >= cfg_.queueDepth;
    };
    if (cfg_.routing == RoutingPolicy::LeastLoaded)
        return full(*least) ? nullptr : least;

    // Consistent hash: walk the ring to the tenant's home rack.
    const std::uint64_t h = hashTenant(tenant);
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(),
        std::pair<std::uint64_t, std::size_t>{h, 0});
    if (it == ring_.end())
        it = ring_.begin();
    Lane *home = lanes_[it->second].get();
    if (home == least)
        return full(*home) ? nullptr : home;
    // Spill: leave the home rack only when it is backed up past the
    // spill threshold AND some rack is at most half as loaded —
    // affinity (cache locality) is worth a short wait, not a 2x one.
    const bool spill = home->queue.size() >= spill_ &&
                       least->queue.size() * 2 <= home->queue.size();
    if (!full(*home) && !spill)
        return home;
    if (full(*least))
        return nullptr;
    ServerMetrics::instance().spills.add();
    return least;
}

std::future<JobResult>
Server::submit(ScheduledCircuit job)
{
    auto &metrics = ServerMetrics::instance();
    metrics.submitted.add();
    std::size_t queued_now = 0;
    Lane *lane = nullptr;
    std::future<JobResult> fut;
    {
        std::lock_guard lock(mu_);
        ++submitted_;
        lane = stop_ ? nullptr : routeLane(job.tenant);
        if (!lane) {
            ++rejected_;
            metrics.rejected.add();
            COMPAQT_TRACE_INSTANT("job", "job.reject", "queued",
                                  queued_);
            // Attribute the rejection to tenants we already know,
            // but a rejected submission must not grow the tenant
            // map: a retry storm of never-admitted names
            // (request-scoped ids hammering a shut-down server)
            // would otherwise accumulate accounting state forever in
            // a component whose admission control exists to bound
            // resource use.
            if (auto it = tenants_.find(job.tenant);
                it != tenants_.end()) {
                ++it->second.counters.submitted;
                ++it->second.counters.rejected;
            }
            return readyResult(
                JobStatus::Rejected, std::move(job.tenant),
                stop_ ? "server is shut down"
                      : "every eligible queue is full");
        }
        ++tenants_[job.tenant].counters.submitted;
        Pending p;
        p.job = std::move(job);
        p.enqueued = Clock::now();
        fut = p.promise.get_future();
        lane->queue.push_back(std::move(p));
        ++queued_;
        queued_now = queued_;
    }
    metrics.queuedNow.set(static_cast<double>(queued_now));
    COMPAQT_TRACE_INSTANT("job", "job.submit", "queued", queued_now);
    exec_->notify();
    return fut;
}

void
Server::pause()
{
    std::lock_guard lock(mu_);
    paused_ = true;
}

void
Server::resume()
{
    {
        std::lock_guard lock(mu_);
        paused_ = false;
    }
    exec_->notify();
}

void
Server::drain()
{
    std::unique_lock lock(mu_);
    idle_.wait(lock, [&] {
        if (queued_ > 0)
            return false;
        for (const auto &lane : lanes_)
            if (lane->busy || !lane->queue.empty())
                return false;
        return true;
    });
}

void
Server::shutdown()
{
    {
        std::lock_guard lock(mu_);
        stop_ = true;
    }
    exec_->notify();
    for (auto &lane : lanes_)
        if (lane->dispatcher.joinable())
            lane->dispatcher.join();

    // Stop path: in-flight batches (if any) already completed in the
    // dispatchers; everything still queued fails deterministically,
    // in per-rack FIFO order.
    auto doomed = cancelQueued();
    ServerMetrics::instance().cancelled.add(doomed.size());
    if (!doomed.empty())
        COMPAQT_TRACE_INSTANT("job", "job.cancel", "jobs",
                              doomed.size());
    const auto now = Clock::now();
    for (auto &p : doomed) {
        JobResult r;
        r.status = JobStatus::Cancelled;
        r.tenant = p.job.tenant;
        r.timing.queueSeconds = seconds(now - p.enqueued);
        r.timing.totalSeconds = r.timing.queueSeconds;
        r.error = "server shut down before dispatch";
        p.promise.set_value(std::move(r));
    }
}

bool
Server::stopped() const
{
    std::lock_guard lock(mu_);
    return stop_;
}

std::size_t
Server::queued() const
{
    std::lock_guard lock(mu_);
    return queued_;
}

std::deque<Server::Pending>
Server::cancelQueued()
{
    std::deque<Pending> doomed;
    {
        std::lock_guard lock(mu_);
        for (auto &lane : lanes_) {
            for (auto &p : lane->queue)
                doomed.push_back(std::move(p));
            lane->queue.clear();
        }
        queued_ = 0;
        cancelled_ += doomed.size();
        for (const auto &p : doomed)
            ++tenants_[p.job.tenant].counters.cancelled;
        idle_.notify_all();
    }
    return doomed;
}

void
Server::dispatchLoop(Lane &lane)
{
    // Must hold mu_.
    const auto hasWork = [&] {
        return stop_ || (!paused_ && !lane.queue.empty());
    };
    for (;;) {
        // Idle: play other racks' grid cells until this rack has work.
        exec_->helpUntil([&] {
            std::lock_guard lock(mu_);
            return hasWork();
        });
        std::vector<Pending> taken;
        {
            std::lock_guard lock(mu_);
            if (stop_)
                break;
            if (!hasWork())
                continue; // paused since the check
            const std::size_t take =
                std::min(cfg_.maxBatch, lane.queue.size());
            taken.reserve(take);
            for (std::size_t i = 0; i < take; ++i) {
                taken.push_back(std::move(lane.queue.front()));
                lane.queue.pop_front();
            }
            queued_ -= take;
            lane.busy = true;
        }

        // Execute the coalesced batch outside the lock: tenants keep
        // submitting (and hitting admission control) while the rack
        // runs. This thread plays cells of its own grid alongside the
        // fleet pool's threads and idle dispatchers.
        COMPAQT_TRACE_SPAN("batch", "batch.dispatch", "jobs",
                           taken.size(), "rack",
                           static_cast<std::uint64_t>(lane.index));
        const auto dispatched = Clock::now();
        std::vector<circuits::Schedule> scheds;
        scheds.reserve(taken.size());
        for (auto &p : taken)
            scheds.push_back(std::move(p.job.schedule));
        BatchExecution exec;
        std::vector<std::string> errors(taken.size());
        std::vector<std::uint64_t> versions(taken.size(), 0);
        bool batch_ok = true;
        try {
            exec = lane.svc->executeBatchCompiledPerJob(scheds);
            for (auto &v : versions)
                v = exec.libraryVersion;
        } catch (...) {
            batch_ok = false;
        }
        if (!batch_ok) {
            // Failure isolation: one job's throwing schedule must not
            // poison the up-to-maxBatch-1 unrelated jobs coalesced
            // into its batch. Re-execute one job at a time so each
            // fails or completes on its own schedule only — the slow
            // path costs nothing unless an execution actually threw.
            exec.total = RackStats{};
            exec.jobs.assign(taken.size(), RackStats{});
            for (std::size_t i = 0; i < taken.size(); ++i) {
                try {
                    auto single =
                        lane.svc->executeBatchCompiledPerJob({scheds[i]});
                    exec.jobs[i] = std::move(single.jobs[0]);
                    exec.total.cache.accumulate(single.total.cache);
                    versions[i] = single.libraryVersion;
                } catch (const std::exception &e) {
                    errors[i] = e.what();
                } catch (...) {
                    errors[i] = "unknown execution error";
                }
            }
        }
        const auto completed = Clock::now();

        std::vector<JobResult> results(taken.size());
        for (std::size_t i = 0; i < taken.size(); ++i) {
            JobResult &r = results[i];
            r.tenant = taken[i].job.tenant;
            r.rack = lane.index;
            r.timing.queueSeconds =
                seconds(dispatched - taken[i].enqueued);
            r.timing.executeSeconds = seconds(completed - dispatched);
            r.timing.totalSeconds =
                seconds(completed - taken[i].enqueued);
            if (batch_ok || errors[i].empty()) {
                r.status = JobStatus::Completed;
                r.stats = std::move(exec.jobs[i]);
                r.libraryVersion = versions[i];
            } else {
                r.status = JobStatus::Failed;
                r.error = errors[i];
            }
        }

        auto &metrics = ServerMetrics::instance();
        auto &trace = telemetry::Trace::global();
        std::uint64_t batch_seq = 0;
        {
            std::lock_guard lock(mu_);
            lane.busy = false;
            batch_seq = ++lane.batches;
            lane.batchJobs += taken.size();
            metrics.batches.add();
            metrics.queuedNow.set(static_cast<double>(queued_));
            cacheAccum_.accumulate(exec.total.cache);
            for (const JobResult &r : results) {
                auto &tenant = tenants_[r.tenant];
                if (r.status == JobStatus::Completed) {
                    ++completed_;
                    ++lane.completed;
                    ++tenant.counters.completed;
                    ++jobsByVersion_[r.libraryVersion];
                    gates_ += r.stats.totalGates;
                    samples_ += r.stats.totalSamples;
                    lane.gates += r.stats.totalGates;
                    lane.samples += r.stats.totalSamples;
                    tenant.counters.gatesPlayed += r.stats.totalGates;
                    tenant.counters.samplesDecoded +=
                        r.stats.totalSamples;
                    metrics.completed.add();
                    lane.jobsCounter->add();
                    queueLat_.record(r.timing.queueSeconds);
                    execLat_.record(r.timing.executeSeconds);
                    totalLat_.record(r.timing.totalSeconds);
                    tenant.totalLat.record(r.timing.totalSeconds);
                } else {
                    ++failed_;
                    ++lane.failed;
                    ++tenant.counters.failed;
                    metrics.failed.add();
                }
            }
            idle_.notify_all();
        }

        // Per-job queue/execute spans, reconstructed from the stored
        // timestamps once the batch retires (tracing the live path
        // would cost clock reads per job even when disabled).
        if (trace.enabled()) {
            for (const auto &p : taken)
                traceJobSpans(trace, batch_seq, p.enqueued,
                              dispatched, completed);
        }

        // Resolve futures outside the lock so a waiter continuing
        // straight into submit()/stats() never contends with us.
        for (std::size_t i = 0; i < taken.size(); ++i)
            taken[i].promise.set_value(std::move(results[i]));
    }
}

ServerStats
Server::stats() const
{
    // Counters and the tenant map are copied under the lock; the
    // latency rollups come from the histograms' atomic shards, so a
    // stats() poll does O(buckets) loads per rollup — no sample
    // copy, no sort, and the tenant snapshots ride pointers to the
    // stable map nodes so the lock is held only for the copy.
    ServerStats s;
    std::vector<std::pair<std::string, const TenantAccum *>>
        tenant_accums;
    {
        std::lock_guard lock(mu_);
        s.submitted = submitted_;
        s.completed = completed_;
        s.rejected = rejected_;
        s.cancelled = cancelled_;
        s.failed = failed_;
        s.queuedNow = queued_;
        s.gatesPlayed = gates_;
        s.samplesDecoded = samples_;
        s.cache = cacheAccum_;
        s.cacheHitRate = cacheAccum_.hitRate();
        s.jobsByLibraryVersion = jobsByVersion_;
        s.racks.reserve(lanes_.size());
        std::uint64_t batches = 0, batch_jobs = 0;
        for (const auto &lane : lanes_) {
            RackRollup r;
            r.completed = lane->completed;
            r.failed = lane->failed;
            r.queuedNow = lane->queue.size();
            r.batchesDispatched = lane->batches;
            r.meanBatchFill =
                lane->batches == 0
                    ? 0.0
                    : static_cast<double>(lane->batchJobs) /
                          static_cast<double>(lane->batches);
            r.gatesPlayed = lane->gates;
            r.samplesDecoded = lane->samples;
            s.racks.push_back(r);
            batches += lane->batches;
            batch_jobs += lane->batchJobs;
        }
        s.batchesDispatched = batches;
        s.meanBatchFill =
            batches == 0 ? 0.0
                         : static_cast<double>(batch_jobs) /
                               static_cast<double>(batches);
        tenant_accums.reserve(tenants_.size());
        for (const auto &[name, accum] : tenants_) {
            s.tenants.emplace(name, accum.counters);
            tenant_accums.emplace_back(name, &accum);
        }
    }
    s.librarySwaps = registry_->swaps();
    s.libraryVersion = registry_->currentVersion();
    s.libraryVersionsLive = registry_->liveVersions();
    s.queueLatency = queueLat_.snapshot().toPercentiles();
    s.executeLatency = execLat_.snapshot().toPercentiles();
    s.totalLatency = totalLat_.snapshot().toPercentiles();
    for (const auto &[name, accum] : tenant_accums)
        s.tenants.at(name).totalLatency =
            accum->totalLat.snapshot().toPercentiles();
    return s;
}

} // namespace compaqt::runtime
