/**
 * @file
 * The execution back end: walk one shard's InstructionProgram and
 * drive playback through runtime::WindowPlayer. RuntimeService runs
 * every batch this way, one program per (circuit, shard) cell.
 *
 * A PREFETCH op only records an event for the rack's waveform-memory
 * model (when the interpreter runs inside RuntimeService's grid with
 * a cell log); the grid's replay decides whether it warmed a cold
 * window. Playback itself always decodes. Streaks fold: consecutive
 * PLAYs continuing one (gate, channel) range make one playWindows
 * call, and consecutive PREFETCHes of consecutive windows of one
 * (gate, channel, tier) one prefetchWindows call; every folded op
 * still retires on its own in InterpreterStats and the trace.
 */

#ifndef COMPAQT_ISA_INTERPRETER_HH
#define COMPAQT_ISA_INTERPRETER_HH

#include <cstdint>
#include <vector>

#include "isa/isa.hh"
#include "runtime/playback.hh"
#include "runtime/rack.hh"

namespace compaqt::isa
{

/** Instruction-level execution tallies (interpreter-only view;
 *  playback totals live in the PlaybackCounters next to this). */
struct InterpreterStats
{
    std::uint64_t instructions = 0;
    std::uint64_t plays = 0;
    std::uint64_t waits = 0;
    /** WAIT cycles the modeled sequencer idled. */
    std::uint64_t idleCycles = 0;
    /** PREFETCH ops retired. How many of them warmed a cold window
     *  is the model's answer (RackStats::prefetchesIssued). */
    std::uint64_t prefetches = 0;
    std::uint64_t barriers = 0;
};

/** Outcome of running one program. */
struct InterpreterResult
{
    /** Gates/windows/samples/bypassed played. For a compiled shard
     *  slice: one gate per event whose gate the library holds, and
     *  every window of its two channels. */
    runtime::PlaybackCounters play;
    InterpreterStats stats;
};

/**
 * Executes per-shard programs against one rack and one pinned
 * library epoch. Holds one WindowPlayer (codec instances + scratch),
 * so like the player it is not thread-safe: build one per worker
 * cell.
 */
class Interpreter
{
  public:
    /** Pin the rack's current library epoch at construction. */
    explicit Interpreter(const runtime::Rack &rack)
        : Interpreter(rack, rack.currentLibrary())
    {
    }

    /** Execute against an explicitly pinned epoch (the batch path:
     *  every cell of one batch shares the batch's pin). With `log`,
     *  every played range and PREFETCH is recorded for the grid's
     *  model replay (see runtime::WindowPlayer). */
    Interpreter(const runtime::Rack &rack,
                runtime::VersionedLibrary vlib,
                runtime::WindowEventLog *log = nullptr)
        : vlib_(std::move(vlib)), player_(rack, vlib_, log)
    {
    }

    /** The library epoch this interpreter executes under. */
    const runtime::VersionedLibrary &
    pinnedLibrary() const
    {
        return vlib_;
    }

    /**
     * Run `prog` to its HALT (or the end of the code stream).
     * Each gate-table entry is looked up in the pinned library at
     * most once per run, on first use.
     * @throws std::invalid_argument when the program's library-
     *         version stamp names a calibration other than the
     *         pinned one (an unstamped program — version 0 — is
     *         accepted, matching pre-stamp streams), or when a
     *         PLAY/PREFETCH references a gate the pinned library
     *         does not hold or windows past its channel's grid —
     *         programs are compiled against a concrete library, so
     *         a mismatch is a corrupt, stale, or misrouted program,
     *         not a soft miss. Thrown at the first instruction that
     *         uses the gate, or for the whole streak whose range
     *         overruns, before any of it plays or is recorded.
     */
    InterpreterResult run(const InstructionProgram &prog);

  private:
    /** One gate-table entry resolved against the pinned library,
     *  with its I and Q window counts. */
    struct ResolvedGate
    {
        const core::CompressedEntry *entry = nullptr;
        std::size_t windows[2] = {0, 0};
    };

    runtime::VersionedLibrary vlib_;
    runtime::WindowPlayer player_;
    /** Per-run gate table, reused across runs. */
    std::vector<ResolvedGate> gates_;
};

} // namespace compaqt::isa

#endif // COMPAQT_ISA_INTERPRETER_HH
