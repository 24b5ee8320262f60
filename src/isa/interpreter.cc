#include "isa/interpreter.hh"

#include <stdexcept>
#include <string>

#include "telemetry/trace.hh"

namespace compaqt::isa
{

namespace
{

const core::CompressedEntry &
resolveGate(const runtime::VersionedLibrary &vlib,
            const InstructionProgram &prog, std::uint16_t ref)
{
    const waveform::GateId &id = prog.gate(ref);
    const core::CompressedEntry *entry = vlib.find(id);
    if (!entry)
        throw std::invalid_argument(
            "isa: program references a gate the pinned library does"
            " not hold");
    return *entry;
}

} // namespace

InterpreterResult
Interpreter::run(const InstructionProgram &prog)
{
    // Version gate: a stamped program must match the pinned epoch.
    // Executing a stale artifact would look plausible (gate table
    // still resolves) while playing window layouts of a retired
    // calibration — fail loudly instead. Unstamped programs (version
    // 0, e.g. pre-stamp streams or hand-built tests) are accepted.
    if (prog.libraryVersion() != 0 &&
        prog.libraryVersion() != vlib_.version)
        throw std::invalid_argument(
            "isa: program was compiled against library version " +
            std::to_string(prog.libraryVersion()) +
            " but the interpreter is pinned to version " +
            std::to_string(vlib_.version) +
            " — recompile after the hot-swap");
    InterpreterResult res;
    // Per-op dwell tracing: the enable flag is read once per run (a
    // mid-run toggle catches the next program), so the disabled-path
    // cost inside the dispatch loop is one register test. The
    // enabled path pays ONE clock read per retired instruction, not
    // two: each op's end timestamp is the next op's start, so the
    // dwell spans tile the run with no gaps.
    auto &trace = telemetry::Trace::global();
    const bool tracing = trace.enabled();
    std::uint64_t op_start = tracing ? trace.nowNs() : 0;
    const std::size_t n = prog.numInstructions();
    for (std::size_t i = 0; i < n; ++i) {
        const Instruction in = prog.at(i);
        const std::size_t pc = i;
        ++res.stats.instructions;
        bool halted = false;
        switch (in.op) {
        case Opcode::Play: {
            ++res.stats.plays;
            const waveform::GateId &id = prog.gate(in.gateRef);
            const core::CompressedEntry &entry =
                resolveGate(vlib_, prog, in.gateRef);
            const std::uint32_t first = in.playFirst();
            std::uint32_t count = in.playCount();
            // The event's I-channel PLAY (first chunk) carries the
            // per-gate accounting, mirroring the direct path's one
            // tally per schedule event.
            if (in.channel == 0 && first == 0) {
                ++res.play.gates;
                if (!player_.decodes())
                    res.play.samples +=
                        entry.cw.stats().originalSamples;
            }
            // Coalesce the chunked PLAY streak the compiler emits
            // for one long range: consecutive PLAYs of the same
            // (gate, channel) whose windows continue exactly where
            // the accumulated range ends fold into ONE playWindows
            // call, so the decode side sees the full range and can
            // batch it (longer miss runs, fewer dispatches). Every
            // folded instruction still retires individually in the
            // counters and the trace (zero dwell — the head's span
            // covers the fused work), so instruction-level
            // accounting is unchanged.
            while (i + 1 < n) {
                const Instruction nx = prog.at(i + 1);
                if (nx.op != Opcode::Play ||
                    nx.gateRef != in.gateRef ||
                    nx.channel != in.channel ||
                    nx.playFirst() != first + count)
                    break;
                ++i;
                ++res.stats.instructions;
                ++res.stats.plays;
                if (nx.channel == 0 && nx.playFirst() == 0) {
                    ++res.play.gates;
                    if (!player_.decodes())
                        res.play.samples +=
                            entry.cw.stats().originalSamples;
                }
                count += nx.playCount();
                if (tracing) {
                    telemetry::TraceEvent e;
                    e.startNs = op_start;
                    e.durNs = 0;
                    e.name = opcodeName(nx.op);
                    e.cat = "isa";
                    e.arg0Name = "pc";
                    e.arg0 = i;
                    e.arg1Name = "arg";
                    e.arg1 = nx.arg;
                    e.kind = telemetry::EventKind::Complete;
                    trace.record(e);
                }
            }
            if (player_.decodes() && count > 0)
                player_.playWindows(id, entry, in.channel, first,
                                    count, res.play);
            break;
        }
        case Opcode::Wait:
            ++res.stats.waits;
            res.stats.idleCycles += in.arg;
            break;
        case Opcode::Prefetch:
            // Only an event for the model: whether it warms a cold
            // window is decided when the grid replays the cell's log.
            ++res.stats.prefetches;
            player_.prefetchWindow(prog.gate(in.gateRef),
                                   resolveGate(vlib_, prog, in.gateRef),
                                   in.channel, in.prefetchWindow(),
                                   in.prefetchTier());
            break;
        case Opcode::Barrier:
            ++res.stats.barriers;
            break;
        case Opcode::Halt:
            halted = true;
            break;
        }
        if (tracing) {
            const std::uint64_t op_end = trace.nowNs();
            telemetry::TraceEvent e;
            e.startNs = op_start;
            e.durNs = op_end - op_start;
            op_start = op_end;
            e.name = opcodeName(in.op);
            e.cat = "isa";
            e.arg0Name = "pc";
            e.arg0 = pc;
            e.arg1Name = "arg";
            e.arg1 = in.arg;
            e.kind = telemetry::EventKind::Complete;
            trace.record(e);
        }
        if (halted)
            return res;
    }
    return res;
}

} // namespace compaqt::isa
