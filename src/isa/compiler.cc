#include "isa/compiler.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

#include "isa/interpreter.hh"
#include "uarch/controller.hh"

namespace compaqt::isa
{

namespace
{

/** Largest window count one PLAY encodes; longer channels chunk. */
constexpr std::uint32_t kMaxPlayCount = 0xFFFFu;
/** Largest idle span one WAIT encodes; longer gaps chunk. */
constexpr std::uint64_t kMaxWaitCycles = 0xFFFFFFFFull;

/** One event after resource-constrained issue selection. */
struct Issued
{
    /** Cycle the sequencer issues the PLAY pair. */
    std::uint64_t issue = 0;
    /** Cycle the last occupied channel releases. */
    std::uint64_t end = 0;
    waveform::GateId id;
    const core::CompressedEntry *entry = nullptr;
    std::uint16_t ref = 0;
    std::uint32_t nwin[2] = {0, 0};
};

/** One first-use window eligible for prefetch hoisting. */
struct PrefetchItem
{
    /** Index into the issued list of the consuming PLAY. */
    std::size_t consumerIdx = 0;
    std::uint64_t consumerIssue = 0;
    std::uint16_t ref = 0;
    std::uint8_t channel = 0;
    std::uint32_t window = 0;
    /** Store-tier target (0 = fast BRAM, 1 = slow staging). */
    std::uint8_t tier = 0;
    bool prefetched = false;
};

/** Reuse distance of a gate that never replays. */
constexpr std::uint64_t kNoReuse = ~std::uint64_t{0};

/** WAIT instructions needed to bridge `gap` cycles. */
std::size_t
waitChunks(std::uint64_t gap)
{
    return static_cast<std::size_t>((gap + kMaxWaitCycles - 1) /
                                    kMaxWaitCycles);
}

/** PLAY instructions needed for an `nwin`-window channel. */
std::size_t
playChunks(std::uint32_t nwin)
{
    // A zero-window channel still plays once (empty range) so both
    // channels of every event appear in the stream symmetrically.
    return nwin == 0
               ? 1
               : static_cast<std::size_t>(
                     (nwin + kMaxPlayCount - 1) / kMaxPlayCount);
}

void
emitWaits(InstructionProgram &prog, std::uint64_t gap)
{
    while (gap > 0) {
        const auto chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(gap, kMaxWaitCycles));
        prog.emit(Instruction::wait(chunk));
        gap -= chunk;
    }
}

void
emitPlays(InstructionProgram &prog, const Issued &e,
          std::uint8_t channel)
{
    const std::uint32_t nwin = e.nwin[channel];
    std::uint32_t first = 0;
    do {
        const auto count = static_cast<std::uint16_t>(
            std::min<std::uint32_t>(nwin - first, kMaxPlayCount));
        prog.emit(Instruction::play(
            e.ref, channel, static_cast<std::uint16_t>(first),
            count));
        first += count;
    } while (first < nwin);
}

} // namespace

Compiler::Compiler(const runtime::Rack &rack, const CompilerConfig &cfg)
    : Compiler(rack, rack.currentLibrary(), cfg)
{
}

Compiler::Compiler(const runtime::Rack &rack,
                   runtime::VersionedLibrary vlib,
                   const CompilerConfig &cfg)
    : rack_(rack), vlib_(std::move(vlib)), cfg_(cfg)
{
    if (cfg_.instructionMemoryWords <
        InstructionProgram::kHeaderWords +
            2 * InstructionProgram::kWordsPerInstruction)
        throw std::invalid_argument(
            "isa: instruction-memory bound cannot hold even an"
            " empty program");
}

CompiledSchedule
Compiler::compile(const circuits::Schedule &sched) const
{
    const int n_shards = rack_.numShards();
    const auto parts = circuits::partitionByOwner(
        sched, rack_.plan().owner, n_shards);
    CompiledSchedule out;
    out.programs.reserve(parts.size());
    out.stats.resize(parts.size());
    out.demand.reserve(parts.size());
    out.events.resize(parts.size());
    // Only a compressed rack with a model to feed replays events.
    const bool record = rack_.config().controller.compressed &&
                        rack_.cache().capacity() > 0;
    std::uint64_t kept = 0;
    for (std::size_t s = 0; s < parts.size(); ++s) {
        kept += parts[s].events.size();
        out.programs.push_back(
            compileShard(parts[s], &out.stats[s]));
        out.demand.push_back(rack_.controller(static_cast<int>(s))
                                 .execute(parts[s], *vlib_));
        if (record)
            Interpreter(rack_, vlib_, &out.events[s])
                .run(out.programs[s]);
    }
    out.unownedEvents = sched.events.size() - kept;
    return out;
}

InstructionProgram
Compiler::compileShard(const circuits::Schedule &part,
                       ProgramStats *stats) const
{
    const auto &cc = rack_.config().controller;
    const double hz = cc.fabricClockHz;
    const auto cycleOf = [hz](double seconds) {
        return static_cast<std::uint64_t>(
            std::llround(seconds * hz));
    };

    InstructionProgram prog;
    prog.setLibraryVersion(vlib_.version);
    ProgramStats st;
    st.memoryBoundWords = cfg_.instructionMemoryWords;

    // ---- resource-constrained list scheduling: issue each event in
    // canonical time order, no earlier than its scheduled start and
    // no earlier than every drive channel it occupies is free.
    std::vector<Issued> issued;
    issued.reserve(part.events.size());
    std::map<int, std::uint64_t> busyUntil;
    for (const std::size_t idx : circuits::eventOrderByStart(part)) {
        const auto &e = part.events[idx];
        const auto id = uarch::gateIdFor(e.gate);
        if (!id)
            continue; // virtual op
        const core::CompressedEntry *entry = vlib_.find(*id);
        if (!entry)
            continue; // missing gate: demand accounting reports it
        Issued is;
        is.issue = cycleOf(e.start);
        for (const int q : e.channels) {
            const auto it = busyUntil.find(q);
            if (it != busyUntil.end())
                is.issue = std::max(is.issue, it->second);
        }
        is.end =
            is.issue +
            std::max<std::uint64_t>(1, cycleOf(e.duration));
        for (const int q : e.channels)
            busyUntil[q] = is.end;
        is.id = *id;
        is.entry = entry;
        is.ref = prog.internGate(*id);
        is.nwin[0] = static_cast<std::uint32_t>(
            entry->cw.i.numWindows());
        is.nwin[1] = static_cast<std::uint32_t>(
            entry->cw.q.numWindows());
        issued.push_back(is);
        st.programCycles = std::max(st.programCycles, is.end);
    }
    std::stable_sort(issued.begin(), issued.end(),
                     [](const Issued &a, const Issued &b) {
                         return a.issue < b.issue;
                     });

    // ---- gather first-use windows for prefetch hoisting. Later
    // plays of the same (gate, channel, window) hit the modeled
    // memory on their own; only the first demand of each window is
    // worth warming.
    const bool prefetchable = cfg_.emitPrefetch && cc.compressed &&
                              rack_.cache().capacity() > 0;
    const bool tiered = rack_.cache().tiered();
    std::vector<PrefetchItem> items;
    if (prefetchable) {
        // Schedule lookahead for tier targeting: walk the issue
        // order once and compute each event's reuse distance — the
        // windows played between an event's end and the next play of
        // the same gate. A first use whose gate comes back within
        // roughly a fast-tier's worth of windows belongs in tier 0;
        // anything farther (or never replayed) stages in tier 1.
        std::vector<std::uint64_t> reuse;
        if (tiered) {
            const std::size_t m = issued.size();
            std::vector<std::uint64_t> cum(m + 1, 0);
            for (std::size_t i = 0; i < m; ++i)
                cum[i + 1] =
                    cum[i] + issued[i].nwin[0] + issued[i].nwin[1];
            reuse.assign(m, kNoReuse);
            std::map<waveform::GateId, std::size_t> next;
            for (std::size_t i = m; i-- > 0;) {
                const auto it = next.find(issued[i].id);
                if (it != next.end())
                    reuse[i] = cum[it->second] - cum[i + 1];
                next[issued[i].id] = i;
            }
        }
        const std::uint64_t tier0_distance =
            cfg_.tier0ReuseDistance != 0
                ? cfg_.tier0ReuseDistance
                : rack_.cache().config().tier0.windows;
        std::map<waveform::GateId, bool> seen;
        for (std::size_t i = 0; i < issued.size(); ++i) {
            const Issued &e = issued[i];
            if (!seen.emplace(e.id, true).second)
                continue;
            const std::uint8_t tier =
                tiered && reuse[i] > tier0_distance ? 1 : 0;
            for (std::uint8_t ch = 0; ch < 2; ++ch) {
                const auto &channel =
                    ch == 0 ? e.entry->cw.i : e.entry->cw.q;
                // Every window occupies a memory slot when played but
                // an adaptive channel's flat bypass windows.
                const auto candidates = [&](std::size_t lo,
                                            std::size_t hi) {
                    for (auto w = static_cast<std::uint32_t>(lo); w < hi;
                         ++w)
                        items.push_back(
                            {i, e.issue, e.ref, ch, w, tier, false});
                };
                if (!channel.isAdaptive())
                    candidates(0, e.nwin[ch]);
                else
                    channel.forEachSegmentRun(
                        0, e.nwin[ch],
                        [&](const core::AdaptiveSegment &seg,
                            std::size_t lo, std::size_t hi, std::size_t) {
                            if (!seg.isFlat)
                                candidates(lo, hi);
                        });
            }
        }
    }

    // ---- bound the mandatory stream, then budget prefetch hints
    // from what is left. WAIT chunks can only shrink when prefetches
    // split a gap, so the no-prefetch layout is a safe upper bound.
    std::size_t mandatory = 2; // BARRIER + HALT
    {
        std::uint64_t cursor = 0;
        for (const Issued &e : issued) {
            if (e.issue > cursor) {
                mandatory += waitChunks(e.issue - cursor);
                cursor = e.issue;
            }
            mandatory += playChunks(e.nwin[0]);
            mandatory += playChunks(e.nwin[1]);
        }
    }
    const std::size_t mandatoryWords =
        InstructionProgram::kHeaderWords + prog.gateTable().size() +
        mandatory * InstructionProgram::kWordsPerInstruction;
    if (mandatoryWords > cfg_.instructionMemoryWords)
        throw std::invalid_argument(
            "isa: shard program needs " +
            std::to_string(mandatoryWords) +
            " instruction-memory words before any prefetch, over"
            " the configured bound of " +
            std::to_string(cfg_.instructionMemoryWords));
    std::size_t prefetchBudget =
        (cfg_.instructionMemoryWords - mandatoryWords) /
        InstructionProgram::kWordsPerInstruction;

    // ---- emission: walk issues in time order, hoisting prefetches
    // into idle gaps. Each PREFETCH occupies one sequencer cycle of
    // the gap it fills, so hints never delay a PLAY.
    std::uint64_t cursor = 0;
    std::size_t j = 0;      // next prefetch candidate
    std::size_t consume = 0; // next item whose consumer retires
    std::size_t outstanding = 0;
    for (std::size_t i = 0; i < issued.size(); ++i) {
        const Issued &e = issued[i];
        while (cursor < e.issue && j < items.size()) {
            PrefetchItem &item = items[j];
            if (item.consumerIdx < i) {
                ++j; // consumer already retired
                continue;
            }
            if (item.consumerIssue < cursor + cfg_.prefetchLeadCycles) {
                ++st.prefetchSkippedNoSlack;
                ++j; // the gap is too close to hide the lead
                continue;
            }
            if (prefetchBudget == 0) {
                ++st.prefetchDroppedBudget;
                ++j;
                continue;
            }
            if (outstanding >= cfg_.maxOutstandingPrefetches)
                break; // pin cap: retry after some plays retire
            prog.emit(Instruction::prefetch(item.ref, item.channel,
                                            item.window, item.tier));
            item.prefetched = true;
            ++st.prefetchInstructions;
            if (item.tier == 0)
                ++st.prefetchTier0;
            else
                ++st.prefetchTier1;
            --prefetchBudget;
            ++outstanding;
            ++cursor;
            ++j;
        }
        if (cursor < e.issue) {
            const std::uint64_t gap = e.issue - cursor;
            st.waitInstructions += waitChunks(gap);
            emitWaits(prog, gap);
            cursor = e.issue;
        }
        emitPlays(prog, e, 0);
        emitPlays(prog, e, 1);
        st.playInstructions += playChunks(e.nwin[0]);
        st.playInstructions += playChunks(e.nwin[1]);
        for (; consume < items.size() &&
               items[consume].consumerIdx <= i;
             ++consume)
            if (items[consume].prefetched)
                --outstanding;
    }
    // First-use windows the stream never had a gap for.
    for (; j < items.size(); ++j)
        if (!items[j].prefetched)
            ++st.prefetchSkippedNoSlack;
    prog.emit(Instruction::barrier());
    prog.emit(Instruction::halt());

    st.instructions = prog.numInstructions();
    st.memoryWords = prog.memoryWords();
    st.fitsMemoryBound =
        st.memoryWords <= cfg_.instructionMemoryWords;
    st.playedEvents = issued.size();
    st.uniqueGates = prog.gateTable().size();
    st.dedupedFetches = st.playedEvents - st.uniqueGates;
    if (stats)
        *stats = st;
    return prog;
}

} // namespace compaqt::isa
