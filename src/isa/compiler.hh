/**
 * @file
 * The schedule-to-instruction-stream compiler: lower a
 * circuits::Schedule onto a runtime::Rack's shard plan as one
 * InstructionProgram per shard, the way OpenQL lowers circuits to
 * eQASM under explicit resource constraints.
 *
 * The core is a resource-constrained list scheduler. Per-channel
 * busy intervals are the resources: events are issued in canonical
 * time order, each no earlier than its scheduled start and no
 * earlier than the release of every drive channel it occupies, so a
 * shard slice that lost its cross-shard context still serializes
 * correctly on its own channels. Repeated gate fetches dedupe
 * through the program's gate table, and — where the stream has idle
 * slack — PREFETCH ops for each first-use window are hoisted at
 * least `prefetchLeadCycles` ahead of their consuming PLAY, warming
 * the rack's modeled waveform memory before playback demands the
 * window.
 *
 * Every program is bounded: the mandatory stream (gate table, PLAYs,
 * WAITs, BARRIER, HALT) must fit `instructionMemoryWords` or the
 * compile throws, and prefetch hints are emitted only while they
 * still fit — instruction memory is budgeted per shard the same way
 * the paper budgets waveform memory per controller.
 */

#ifndef COMPAQT_ISA_COMPILER_HH
#define COMPAQT_ISA_COMPILER_HH

#include <cstdint>
#include <vector>

#include "circuits/scheduler.hh"
#include "isa/isa.hh"
#include "isa/program_cache.hh"
#include "runtime/rack.hh"
#include "uarch/controller.hh"

namespace compaqt::isa
{

/** Compiler knobs. */
struct CompilerConfig
{
    /**
     * Per-shard instruction-memory budget in 32-bit words. The
     * mandatory stream must fit (std::invalid_argument otherwise);
     * prefetch hints are dropped first when the budget runs out.
     */
    std::size_t instructionMemoryWords = 1u << 16;
    /** Minimum cycles of lead a PREFETCH must have over its
     *  consuming PLAY; first uses with less slack are not hoisted. */
    std::uint32_t prefetchLeadCycles = 8;
    /** Cap on prefetched-but-not-yet-consumed windows, bounding how
     *  many cache slots prefetch pins can hold at once. */
    std::size_t maxOutstandingPrefetches = 256;
    /** Master switch for PREFETCH emission. */
    bool emitPrefetch = true;
    /**
     * Tier targeting (hierarchical store only): a first-use window
     * whose gate replays within this many played windows gets a
     * tier-0 (fast BRAM) PREFETCH; longer reuse distances — and
     * gates never replayed — stage in tier 1 so one-shot pulses do
     * not flush the hot set. 0 = auto: the rack store's tier-0
     * window budget.
     */
    std::uint64_t tier0ReuseDistance = 0;
};

/** Per-shard compile outcome. */
struct ProgramStats
{
    std::size_t instructions = 0;
    /** Program footprint in instruction-memory words. */
    std::size_t memoryWords = 0;
    /** The budget the program was compiled against. */
    std::size_t memoryBoundWords = 0;
    /** Always true on a successful compile (the mandatory stream
     *  throws otherwise); asserted by benches. */
    bool fitsMemoryBound = true;
    std::size_t playInstructions = 0;
    std::size_t waitInstructions = 0;
    std::size_t prefetchInstructions = 0;
    /** Gate-table entries (unique gates fetched). */
    std::size_t uniqueGates = 0;
    /** Scheduled events lowered to PLAY pairs. */
    std::uint64_t playedEvents = 0;
    /** Gate fetches the table deduped: played events beyond each
     *  gate's first. */
    std::uint64_t dedupedFetches = 0;
    /** First-use windows not hoisted because the instruction-memory
     *  budget ran out. */
    std::uint64_t prefetchDroppedBudget = 0;
    /** First-use windows not hoisted because the stream had no gap
     *  of at least prefetchLeadCycles ahead of their PLAY. */
    std::uint64_t prefetchSkippedNoSlack = 0;
    /** Emitted PREFETCH hints targeting the fast tier (short reuse
     *  distance; every hint on a single-tier rack). */
    std::uint64_t prefetchTier0 = 0;
    /** Emitted PREFETCH hints staging into the slow tier. */
    std::uint64_t prefetchTier1 = 0;
    /** Modeled end-of-program fabric cycle. */
    std::uint64_t programCycles = 0;
};

/**
 * A schedule lowered onto every shard of a rack: everything a batch
 * needs of it besides interpretation, so a cached plan is dispatched
 * without partitioning, accounting or compiling it again.
 */
struct CompiledSchedule
{
    /** One program per shard, indexed like the rack's shard plan. */
    std::vector<InstructionProgram> programs;
    std::vector<ProgramStats> stats;
    /** Per shard, the shard controller's stats-only execute() of its
     *  slice: the bank/bandwidth demand a run of the plan reports. */
    std::vector<uarch::ExecutionStats> demand;
    /** Per shard, the waveform-memory model events one run of its
     *  program makes, in play order — the same for every run, since
     *  the program and the pinned library fix them. Empty on a rack
     *  with no model or no compression. */
    std::vector<runtime::WindowEventLog> events;
    /** Events owned by no shard (dropped, mirroring
     *  RackStats::unownedEvents). */
    std::uint64_t unownedEvents = 0;
};

/** Identity of one compiled schedule. */
struct PlanKey
{
    /** circuits::scheduleFingerprint of the whole schedule, folded
     *  with the compiler-config hash. */
    std::uint64_t fingerprint = 0;
    /** Library version the plan was compiled against. */
    std::uint64_t libVersion = 0;

    auto operator<=>(const PlanKey &) const = default;
};

/** Whole-schedule plans; each is put with its shard count as weight,
 *  so the capacity bounds cached shard programs. */
using PlanCache = ArtifactCache<PlanKey, CompiledSchedule>;

/**
 * Compiles schedules against one rack's shard plan, controller
 * clock, and one pinned library epoch. Stateless between calls; safe
 * to share across threads. Every emitted program is stamped with the
 * pinned epoch's version, so an interpreter running under a
 * different calibration rejects it instead of playing stale window
 * indices (isa::Interpreter::run).
 */
class Compiler
{
  public:
    /** Pin the rack's current library epoch at construction. */
    explicit Compiler(const runtime::Rack &rack,
                      const CompilerConfig &cfg = {});

    /** Compile against an explicitly pinned epoch — the form batch
     *  execution uses so the compile and the interpretation of one
     *  batch are guaranteed to see the same calibration even if a
     *  hot-swap lands between them. */
    Compiler(const runtime::Rack &rack,
             runtime::VersionedLibrary vlib,
             const CompilerConfig &cfg = {});

    const CompilerConfig &config() const { return cfg_; }

    /** The pinned library epoch programs are compiled against. */
    const runtime::VersionedLibrary &
    pinnedLibrary() const
    {
        return vlib_;
    }

    /**
     * Lower a full schedule: partition by qubit ownership, then per
     * shard compile the slice, account its demand and record its
     * model events (a run of the program through a recording
     * isa::Interpreter, which decodes nothing). This is the entry
     * point RuntimeService uses on a plan-cache miss.
     * @throws std::invalid_argument when a shard's mandatory stream
     *         exceeds the instruction-memory budget
     */
    CompiledSchedule compile(const circuits::Schedule &sched) const;

    /**
     * Lower one shard's already-partitioned slice.
     * @throws std::invalid_argument when the mandatory stream
     *         exceeds the instruction-memory budget
     */
    InstructionProgram
    compileShard(const circuits::Schedule &part,
                 ProgramStats *stats = nullptr) const;

  private:
    const runtime::Rack &rack_;
    runtime::VersionedLibrary vlib_;
    CompilerConfig cfg_;
};

} // namespace compaqt::isa

#endif // COMPAQT_ISA_COMPILER_HH
