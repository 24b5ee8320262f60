#include "isa/interpreter.hh"

#include <stdexcept>
#include <string>

#include "telemetry/trace.hh"

namespace compaqt::isa
{

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
    // The gate table resolves lazily against the pinned library, at
    // most one lookup per entry per run: a gate the library lacks
    // throws at the first instruction that uses it.
    gates_.assign(prog.gateTable().size(), ResolvedGate{});
    const auto resolve = [&](std::uint16_t ref) -> const ResolvedGate & {
        ResolvedGate &g = gates_[ref];
        if (!g.entry) {
            g.entry = vlib_.find(prog.gate(ref));
            if (!g.entry)
                throw std::invalid_argument(
                    "isa: program references a gate the pinned"
                    " library does not hold");
            g.windows[0] = g.entry->cw.i.numWindows();
            g.windows[1] = g.entry->cw.q.numWindows();
        }
        return g;
    };
    // A PLAY or PREFETCH past its channel's window grid is a corrupt
    // program: reject it before anything decodes or is recorded.
    const auto checkGrid = [&](const ResolvedGate &g, std::uint16_t ref,
                               std::uint8_t ch, std::size_t end) {
        if (end > g.windows[ch])
            throw std::invalid_argument(
                "isa: " + waveform::toString(prog.gate(ref)) +
                " channel " + (ch == 0 ? "I" : "Q") + " has " +
                std::to_string(g.windows[ch]) +
                " windows; the program addresses window " +
                std::to_string(end - 1));
    };
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
    const auto span = [&](const Instruction &in, std::size_t pc,
                          std::uint64_t dur) {
        telemetry::TraceEvent e;
        e.startNs = op_start;
        e.durNs = dur;
        e.name = opcodeName(in.op);
        e.cat = "isa";
        e.arg0Name = "pc";
        e.arg0 = pc;
        e.arg1Name = "arg";
        e.arg1 = in.arg;
        e.kind = telemetry::EventKind::Complete;
        trace.record(e);
    };
    const std::size_t n = prog.numInstructions();
    std::size_t i = 0;
    // An op folded into the streak its head executes still retires on
    // its own: counted, and traced with zero dwell (the head's span
    // covers the fused work).
    const auto retireFolded = [&](const Instruction &nx) {
        ++res.stats.instructions;
        if (tracing)
            span(nx, i, 0);
    };
    for (; i < n; ++i) {
        const Instruction in = prog.at(i);
        const std::size_t pc = i;
        ++res.stats.instructions;
        bool halted = false;
        switch (in.op) {
        case Opcode::Play: {
            ++res.stats.plays;
            const ResolvedGate &g = resolve(in.gateRef);
            const core::CompressedEntry &entry = *g.entry;
            const std::uint32_t first = in.playFirst();
            std::uint32_t count = in.playCount();
            // The event's I-channel PLAY (first chunk) carries the
            // per-gate accounting: one tally per schedule event.
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
            // folded instruction still retires individually, so
            // instruction-level accounting is unchanged.
            while (i + 1 < n) {
                const Instruction nx = prog.at(i + 1);
                if (nx.op != Opcode::Play ||
                    nx.gateRef != in.gateRef ||
                    nx.channel != in.channel ||
                    nx.playFirst() != first + count)
                    break;
                ++i;
                ++res.stats.plays;
                if (nx.channel == 0 && nx.playFirst() == 0) {
                    ++res.play.gates;
                    if (!player_.decodes())
                        res.play.samples +=
                            entry.cw.stats().originalSamples;
                }
                count += nx.playCount();
                retireFolded(nx);
            }
            checkGrid(g, in.gateRef, in.channel,
                      std::size_t{first} + count);
            if (player_.decodes() && count > 0)
                player_.playWindows(prog.gate(in.gateRef), entry,
                                    in.channel, first, count, res.play);
            break;
        }
        case Opcode::Wait:
            ++res.stats.waits;
            res.stats.idleCycles += in.arg;
            break;
        case Opcode::Prefetch: {
            // Only an event for the model, which a recording run (the
            // compiler's record pass) logs; whether it warms a cold
            // window is decided when the grid replays the plan's
            // events. A streak of PREFETCHes of consecutive windows of
            // one (gate, channel, tier) folds into ONE prefetchWindows
            // call, retiring op by op like a chunked PLAY streak.
            ++res.stats.prefetches;
            const ResolvedGate &g = resolve(in.gateRef);
            const std::uint32_t first = in.prefetchWindow();
            std::uint32_t count = 1;
            while (i + 1 < n) {
                const Instruction nx = prog.at(i + 1);
                if (nx.op != Opcode::Prefetch ||
                    nx.gateRef != in.gateRef ||
                    nx.channel != in.channel ||
                    nx.prefetchTier() != in.prefetchTier() ||
                    nx.prefetchWindow() != first + count)
                    break;
                ++i;
                ++res.stats.prefetches;
                ++count;
                retireFolded(nx);
            }
            checkGrid(g, in.gateRef, in.channel,
                      std::size_t{first} + count);
            player_.prefetchWindows(prog.gate(in.gateRef), *g.entry,
                                    in.channel, first, count,
                                    in.prefetchTier());
            break;
        }
        case Opcode::Barrier:
            ++res.stats.barriers;
            break;
        case Opcode::Halt:
            halted = true;
            break;
        }
        if (tracing) {
            const std::uint64_t op_end = trace.nowNs();
            span(in, pc, op_end - op_start);
            op_start = op_end;
        }
        if (halted)
            return res;
    }
    return res;
}

} // namespace compaqt::isa
