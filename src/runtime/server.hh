/**
 * @file
 * The serving plane: an asynchronous multi-tenant front end over a
 * FLEET of racks, the shape a production control stack takes when a
 * continuous stream of circuit batches from many tenants hammers a
 * machine room (the queued instruction-driven front end of Khammassi
 * et al., arXiv:2205.06851, scaled out to COMPAQT's
 * compressed-memory fleet).
 *
 * Topology: N racks, each with its own bounded queue, dispatcher
 * thread, and RuntimeService worker pool, all bound to ONE shared
 * LibraryRegistry — a single swapLibrary() recalibrates the whole
 * fleet atomically, and in-flight batches finish on the epoch they
 * pinned (RCU-style: the swap never drains, never blocks
 * submission). Tenants are routed to racks by a consistent-hash ring
 * (stable rack affinity keeps a tenant's window working set in one
 * rack's memory model) with least-loaded spill when the home rack
 * backs up, or by pure least-loaded routing (RoutingPolicy).
 *
 * Submission is admission-controlled per rack: submit() returns a
 * std::future<JobResult> immediately and never blocks the caller
 * unboundedly — when the routed rack's queue is full and no rack has
 * room (or the server is shut down) the future is already satisfied
 * with a Rejected status. Each rack's dispatcher pops its queue in
 * FIFO order, coalesces jobs from different tenants into rack
 * batches of up to maxBatch, and executes them through that rack's
 * RuntimeService — the serving plane adds exactly one thread per
 * rack, never a second worker pool.
 *
 * Every job carries enqueue -> dispatch -> complete timestamps;
 * ServerStats rolls queue/execute/total latency into p50/p95/p99/
 * p999 fleet-wide and per tenant through the telemetry plane's
 * log-bucketed latency histograms, plus per-rack rollups
 * (RackRollup) and per-library-version job counts so a hot-swap's
 * cutover is observable. Because RuntimeService attributes each job
 * its own cells of the execution grid (BatchExecution), a job's
 * RackStats is a pure function of (rack, schedule, pinned library):
 * identical for any worker count, any submission interleaving, and
 * any batch composition the coalescer happened to pick.
 *
 * Shutdown is graceful and deterministic: in-flight batches
 * complete normally, every job still queued fails with Cancelled,
 * and later submissions are Rejected. pause()/resume() hold dispatch
 * fleet-wide while admission control keeps applying — though a
 * calibration swap no longer needs it: swapLibrary() is safe under
 * full load.
 */

#ifndef COMPAQT_RUNTIME_SERVER_HH
#define COMPAQT_RUNTIME_SERVER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "circuits/scheduler.hh"
#include "common/stats.hh"
#include "runtime/service.hh"
#include "telemetry/metrics.hh"

namespace compaqt::runtime
{

/** Terminal state of a submitted job. */
enum class JobStatus
{
    /** Executed on a rack; stats/timing are populated. */
    Completed,
    /** Refused at admission (every eligible queue full or server
     *  shut down); the job never entered a queue. */
    Rejected,
    /** Accepted but still queued when the server shut down. */
    Cancelled,
    /** Dispatched, but executing this job's schedule threw (a shard
     *  slice whose program overflows the instruction memory, for
     *  one); error holds the reason. Failure is isolated per job:
     *  when a coalesced batch throws, the dispatcher re-executes it
     *  one job at a time, so only jobs whose own schedule throws
     *  fail. */
    Failed,
};

/** Printable status name. */
const char *jobStatusName(JobStatus s);

/** How tenants are mapped to racks. */
enum class RoutingPolicy
{
    /** FNV hash of the tenant name onto a ring of virtual nodes:
     *  stable rack affinity (cache locality) with least-loaded spill
     *  when the home rack's queue backs up. */
    ConsistentHash,
    /** Always the rack with the shortest queue: best instantaneous
     *  balance, no affinity. */
    LeastLoaded,
};

/** Printable policy name. */
const char *routingPolicyName(RoutingPolicy p);

/**
 * The execution back end. There is one — every batch lowers to
 * per-shard instruction programs and interprets them — so this enum
 * and FleetConfig::backend select nothing and nothing reads them.
 * They remain only because the fleet benchmark's set-up assigns
 * FleetConfig::backend; both go at its next change.
 */
enum class DispatchBackend
{
    Compiled,
};

/** One tenant's unit of submission: a scheduled circuit. */
struct ScheduledCircuit
{
    std::string tenant = "default";
    circuits::Schedule schedule;
};

/** Wall-clock life of one job through the queue. */
struct JobTiming
{
    /** enqueue -> dispatch (time spent queued). */
    double queueSeconds = 0.0;
    /** dispatch -> complete (time in the rack batch). */
    double executeSeconds = 0.0;
    /** enqueue -> complete. */
    double totalSeconds = 0.0;
};

/** What a submitted job's future resolves to. */
struct JobResult
{
    JobStatus status = JobStatus::Rejected;
    std::string tenant;
    /**
     * The job's own rollup (only its cells of the execution grid).
     * Demand/volume fields are pure functions of (rack, schedule,
     * pinned library) — bit-identical across worker counts and
     * submission interleavings; waveform-memory model counters and
     * wall-clock attribute to the whole coalesced batch and stay zero
     * here (see ServerStats), and prefetchesIssued depends on the
     * model state the batch reached. Populated only for Completed
     * jobs.
     */
    RackStats stats;
    JobTiming timing;
    /** The rack this job executed on (-1 when it never dispatched). */
    int rack = -1;
    /** The library epoch the job's batch pinned (0 when it never
     *  dispatched) — the hook hot-swap tests key bit-exactness on. */
    std::uint64_t libraryVersion = 0;
    /** Failure reason for Rejected/Cancelled/Failed. */
    std::string error;
};

/** Fleet-serving tuning knobs. */
struct FleetConfig
{
    /** Racks in the fleet; clamped to >= 1. Every rack is built from
     *  the same RackConfig and shares one LibraryRegistry. */
    int racks = 1;
    /** Per-rack static configuration. */
    RackConfig rack;
    /** Execution workers per rack; <= 0 picks
     *  common::Executor::defaultWorkerCount() (hardware concurrency
     *  clamped to >= 1). */
    int workers = 0;
    /** Per-rack queue depth: a submit that finds every eligible
     *  queue this full is Rejected immediately. Clamped to >= 1. */
    std::size_t queueDepth = 256;
    /** Maximum jobs coalesced into one rack batch. Clamped to
     *  >= 1. */
    std::size_t maxBatch = 32;
    /** Tenant -> rack routing. */
    RoutingPolicy routing = RoutingPolicy::ConsistentHash;
    /** Virtual nodes per rack on the consistent-hash ring; more
     *  nodes = smoother tenant spread. Clamped to >= 1. */
    int virtualNodes = 64;
    /** Queue length at the home rack beyond which a consistent-hash
     *  submit spills to the least-loaded rack (if that rack's queue
     *  is at most half the home's). 0 = maxBatch. */
    std::size_t spillQueueDepth = 0;
    /** Unread; see DispatchBackend. */
    DispatchBackend backend = DispatchBackend::Compiled;
    /** Per-rack compiled-program cache capacity (see
     *  ServiceConfig::programCacheEntries). */
    std::size_t programCacheEntries = 256;
};

/** One tenant's slice of the serving statistics. A tenant appears
 *  here once a job of theirs is admitted; rejected submissions from
 *  a never-admitted tenant count only in the fleet-wide totals (so
 *  a rejection storm of fresh names cannot grow this map). */
struct TenantStats
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t failed = 0;
    /** Totals over the tenant's completed jobs. */
    std::uint64_t gatesPlayed = 0;
    std::uint64_t samplesDecoded = 0;
    /** enqueue -> complete latency over all the tenant's completed
     *  jobs (log-bucketed histogram; see ServerStats). */
    Percentiles totalLatency;
};

/** One rack's slice of the serving statistics. */
struct RackRollup
{
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    /** Jobs queued on this rack right now. */
    std::size_t queuedNow = 0;
    /** Batches this rack's dispatcher executed. */
    std::uint64_t batchesDispatched = 0;
    /** Mean jobs coalesced per dispatched batch. */
    double meanBatchFill = 0.0;
    std::uint64_t gatesPlayed = 0;
    std::uint64_t samplesDecoded = 0;
};

/** Fleet-wide serving statistics since construction. */
struct ServerStats
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t failed = 0;
    /** Jobs queued right now, fleet-wide. */
    std::size_t queuedNow = 0;
    /** Rack batches dispatched, fleet-wide. */
    std::uint64_t batchesDispatched = 0;
    /** Mean jobs coalesced per dispatched batch. */
    double meanBatchFill = 0.0;
    /** Totals over completed jobs. */
    std::uint64_t gatesPlayed = 0;
    std::uint64_t samplesDecoded = 0;
    /** Latency rollups over every completed job, computed from
     *  telemetry::LatencyHistogram (log-linear buckets, ~6% value
     *  resolution; min/max/mean/count exact), so a long-lived
     *  server's stats stay O(1) in memory with no sample window to
     *  age out. `count` equals `completed`. */
    Percentiles queueLatency;
    Percentiles executeLatency;
    Percentiles totalLatency;
    /** Waveform-memory model counters summed over dispatched
     *  batches. Each batch contributes exactly its own replay's
     *  counters (each rack's mixed-tenant traffic shares that rack's
     *  model), so the sum is bit-identical at any worker count for a
     *  given batch sequence. A batch that throws and is re-run one job
     *  at a time contributes only the re-runs: the failed batch never
     *  reached the model. */
    DecodedCacheStats cache;
    double cacheHitRate = 0.0;
    /** Per-rack slices, indexed like the fleet. */
    std::vector<RackRollup> racks;
    /** Library hot-swaps since the registry was created. */
    std::uint64_t librarySwaps = 0;
    /** The current library epoch. */
    std::uint64_t libraryVersion = 0;
    /** Library epochs still alive (current + retired-but-pinned). */
    std::size_t libraryVersionsLive = 0;
    /** Completed jobs per pinned library epoch — the swap-cutover
     *  curve (old version's count freezes, new version's grows). */
    std::map<std::uint64_t, std::uint64_t> jobsByLibraryVersion;
    /** Per-tenant slices, keyed by tenant name. */
    std::map<std::string, TenantStats> tenants;
};

/**
 * Asynchronous multi-tenant serving front end over a fleet of racks.
 * All public members are thread-safe; any number of tenant threads
 * may submit concurrently, and swapLibrary() may land at any moment
 * without stalling them. Lifecycle calls (pause/resume/drain/
 * shutdown) are expected from one owning thread.
 */
class Server
{
  public:
    /**
     * Builds cfg.racks identical racks over `lib` (shared ownership)
     * and one shared LibraryRegistry, then starts one dispatcher per
     * rack.
     * @throws std::invalid_argument when the library violates the
     *         controller contract
     */
    Server(const waveform::DeviceModel &dev,
           std::shared_ptr<const core::CompressedLibrary> lib,
           const FleetConfig &cfg);

    /** Graceful shutdown (see shutdown()). */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    int workers() const;
    int numRacks() const { return static_cast<int>(lanes_.size()); }
    std::size_t queueDepth() const { return cfg_.queueDepth; }
    std::size_t maxBatch() const { return cfg_.maxBatch; }
    RoutingPolicy routing() const { return cfg_.routing; }

    /** The fleet-shared library registry. */
    const std::shared_ptr<LibraryRegistry> &registry() const
    {
        return registry_;
    }

    /** One rack of the fleet (0 <= i < numRacks()). */
    const Rack &rack(int i) const;

    /**
     * Submit one job. Returns immediately; the future resolves when
     * the job completes, fails, or is cancelled at shutdown. The job
     * is routed to a rack per RoutingPolicy; when every eligible
     * queue is at queueDepth (backpressure) or the server is shut
     * down, the returned future is already satisfied with
     * JobStatus::Rejected — the caller is never blocked.
     */
    std::future<JobResult> submit(ScheduledCircuit job);

    /**
     * Validate-and-publish a recalibrated library to the whole
     * fleet. Never drains, never pauses: jobs already dispatched
     * finish on the epoch their batch pinned; jobs dispatched after
     * the publish pin the new epoch. Returns the assigned version.
     * @throws std::invalid_argument when `lib` violates the
     *         controller contract (the current library stays live)
     */
    std::uint64_t
    swapLibrary(std::shared_ptr<const core::CompressedLibrary> lib);

    /** Hold dispatching fleet-wide: queued jobs stay queued
     *  (admission control still applies); in-flight batches
     *  complete. */
    void pause();

    /** Resume dispatching after pause(). */
    void resume();

    /**
     * Block until every queue is empty and no batch is in flight.
     * Jobs submitted concurrently with drain() may extend the wait;
     * a paused server drains only once resumed.
     */
    void drain();

    /**
     * Graceful shutdown: stop admission, let in-flight batches
     * complete, fail every still-queued job with JobStatus::Cancelled
     * (in FIFO order per rack), and join the dispatchers. Idempotent.
     */
    void shutdown();

    /** True once shutdown() has begun. */
    bool stopped() const;

    /** Jobs currently queued fleet-wide (not yet dispatched). */
    std::size_t queued() const;

    ServerStats stats() const;

  private:
    using Clock = std::chrono::steady_clock;

    /** One accepted, not-yet-dispatched job. */
    struct Pending
    {
        ScheduledCircuit job;
        std::promise<JobResult> promise;
        Clock::time_point enqueued;
    };

    /** Mutable per-tenant accumulator behind TenantStats. The
     *  histogram lives in the node (std::map nodes are stable), so
     *  the reference stays valid for the server's lifetime. */
    struct TenantAccum
    {
        TenantStats counters;
        telemetry::LatencyHistogram totalLat;
    };

    /** One rack's serving lane: the rack it owns, its
     *  RuntimeService, its queue, and its dispatcher. Queue and
     *  accumulators are guarded by the server-wide mu_ (routing needs
     *  a consistent view of every queue anyway); the cv is per lane
     *  so a submit wakes only the home rack's dispatcher. */
    struct Lane
    {
        int index = 0;
        std::unique_ptr<Rack> rack;
        std::unique_ptr<RuntimeService> svc;
        std::deque<Pending> queue;
        std::condition_variable work;
        bool busy = false;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t batches = 0;
        std::uint64_t batchJobs = 0;
        std::uint64_t gates = 0;
        std::uint64_t samples = 0;
        /** fleet.rack.<index>.jobs process-wide counter. */
        telemetry::Counter *jobsCounter = nullptr;
        std::thread dispatcher;
    };

    void dispatchLoop(Lane &lane);

    /** Pick the lane for a tenant (must hold mu_: least-loaded reads
     *  every queue). Returns nullptr when every eligible queue is
     *  full. */
    Lane *routeLane(const std::string &tenant);

    /** Cancel every queued job on every lane (stop path); returns
     *  them for promise completion outside the lock. */
    std::deque<Pending> cancelQueued();

    static std::future<JobResult>
    readyResult(JobStatus status, std::string tenant,
                std::string error);

    FleetConfig cfg_;
    /** Queue length beyond which consistent-hash spills. */
    std::size_t spill_ = 0;
    std::shared_ptr<LibraryRegistry> registry_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    /** Consistent-hash ring: (hash, lane index), sorted by hash. */
    std::vector<std::pair<std::uint64_t, std::size_t>> ring_;

    mutable std::mutex mu_;
    std::condition_variable idle_; //< drain() wakeup
    bool stop_ = false;
    bool paused_ = false;

    // Fleet-wide accumulators, guarded by mu_.
    /** Jobs queued across every lane (so routing and drain() never
     *  walk all queues just for the total). */
    std::size_t queued_ = 0;
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t cancelled_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t gates_ = 0;
    std::uint64_t samples_ = 0;
    /** Lock-free latency rollups (written under mu_ today, but a
     *  snapshot never needs the lock). */
    telemetry::LatencyHistogram queueLat_;
    telemetry::LatencyHistogram execLat_;
    telemetry::LatencyHistogram totalLat_;
    DecodedCacheStats cacheAccum_;
    std::map<std::uint64_t, std::uint64_t> jobsByVersion_;
    std::map<std::string, TenantAccum> tenants_;
};

} // namespace compaqt::runtime

#endif // COMPAQT_RUNTIME_SERVER_HH
