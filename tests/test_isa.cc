/**
 * @file
 * Tests for the instruction-stream backend: ISA encode/decode
 * round-trips and malformed-stream rejection, program word accounting
 * and serialization, the cache-aware list-scheduling compiler (WAIT
 * gaps, gate-table dedupe, prefetch lead/budget discipline,
 * instruction-memory bounds), and the headline acceptance contract —
 * the service's one execution path produces exactly the deterministic
 * RackStats a schedule-and-library oracle predicts on the full test
 * device suite at 1 and N workers, while prefetching raises the cold
 * cache hit rate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <vector>

#include <string>
#include <string_view>

#include "circuits/scheduler.hh"
#include "circuits/surface_code.hh"
#include "core/decompressor.hh"
#include "core/pipeline.hh"
#include "dsp/simd.hh"
#include "isa/compiler.hh"
#include "isa/interpreter.hh"
#include "isa/isa.hh"
#include "rack_oracle.hh"
#include "runtime/rack.hh"
#include "runtime/service.hh"
#include "telemetry/trace.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"

namespace compaqt::isa
{
namespace
{

core::CompressedLibrary
buildCompressed(const waveform::PulseLibrary &lib)
{
    return core::CompressionPipeline::with("int-dct")
        .window(16)
        .mseTarget(1e-5)
        .build()
        .compressLibrary(lib);
}

/** The same codec with adaptive flat-top planning: flat segments are
 *  served through the IDCT bypass and never enter the model. */
core::CompressedLibrary
buildAdaptive(const waveform::PulseLibrary &lib)
{
    return core::CompressionPipeline::with("int-dct")
        .window(16)
        .mseTarget(1e-5)
        .planAdaptive()
        .build()
        .compileLibrary(lib)
        .library;
}

uarch::ControllerConfig
controllerConfig(const core::CompressedLibrary &clib)
{
    uarch::ControllerConfig cc;
    cc.compressed = true;
    cc.windowSize = 16;
    cc.memoryWidth = clib.worstCaseWindowWords();
    return cc;
}

runtime::RackConfig
rackConfig(const core::CompressedLibrary &clib, int shards,
           std::size_t cache_windows)
{
    runtime::RackConfig rc;
    rc.numShards = shards;
    rc.policy = runtime::ShardPolicy::LocalityAware;
    rc.controller = controllerConfig(clib);
    rc.cacheWindows = cache_windows;
    return rc;
}

/** A coupling-walking workload (CX over every edge, X on every
 *  qubit, full measurement) — every library gate gets played. */
circuits::Schedule
deviceWorkload(const waveform::DeviceModel &dev)
{
    circuits::Circuit c(static_cast<std::size_t>(dev.numQubits()));
    for (const auto &[a, b] : dev.coupling())
        c.cx(a, b);
    for (int q = 0; q < static_cast<int>(dev.numQubits()); ++q)
        c.x(q);
    c.measureAll();
    return circuits::schedule(c, {});
}

// ------------------------------------------------- instruction encoding

TEST(IsaEncoding, RoundTripsEveryOpcode)
{
    const Instruction cases[] = {
        Instruction::play(7, 1, 3, 42),
        Instruction::play(0, 0, 0, 0xFFFF),
        Instruction::wait(0xFFFFFFFFu),
        Instruction::wait(1),
        Instruction::prefetch(65535, 1, 0xDEADBEEFu),
        Instruction::barrier(),
        Instruction::halt(),
    };
    for (const auto &in : cases) {
        const auto enc = encode(in);
        const auto out = decode(enc.word0, enc.word1);
        EXPECT_EQ(out, in) << opcodeName(in.op);
    }
    const auto p = Instruction::play(7, 1, 3, 42);
    EXPECT_EQ(p.playFirst(), 3u);
    EXPECT_EQ(p.playCount(), 42u);
}

TEST(IsaEncoding, PrefetchTierBitRoundTrips)
{
    // The tier target rides in bit 31 of the operand word; the
    // window index keeps the low 31 bits.
    const auto slow = Instruction::prefetch(12, 1, 5, 1);
    EXPECT_EQ(slow.prefetchWindow(), 5u);
    EXPECT_EQ(slow.prefetchTier(), 1);
    const auto enc = encode(slow);
    EXPECT_EQ(decode(enc.word0, enc.word1), slow);

    // The largest encodable index survives with either target.
    const auto wide = Instruction::prefetch(12, 0, 0x7FFFFFFFu, 1);
    EXPECT_EQ(wide.prefetchWindow(), 0x7FFFFFFFu);
    EXPECT_EQ(wide.prefetchTier(), 1);

    // A pre-hierarchy encoding (tier bit never set) decodes as a
    // fast-tier hint: old programs keep their exact meaning.
    const auto legacy = Instruction::prefetch(12, 1, 42);
    EXPECT_EQ(legacy.prefetchWindow(), 42u);
    EXPECT_EQ(legacy.prefetchTier(), 0);
}

TEST(IsaEncoding, RejectsMalformedWords)
{
    // Unknown opcode.
    EXPECT_THROW(decode(99u << 24, 0), std::invalid_argument);
    // WAIT with a nonzero gate-ref field.
    EXPECT_THROW(decode((1u << 24) | 5u, 10), std::invalid_argument);
    // BARRIER/HALT with a nonzero operand word.
    EXPECT_THROW(decode(3u << 24, 7), std::invalid_argument);
    EXPECT_THROW(decode(4u << 24, 1), std::invalid_argument);
    // PLAY on a channel other than I/Q.
    EXPECT_THROW(decode((0u << 24) | (2u << 16), 0),
                 std::invalid_argument);
    // The valid shape decodes fine.
    EXPECT_NO_THROW(decode((1u << 24), 10));
}

TEST(IsaProgram, GateTableDedupesInterning)
{
    InstructionProgram prog;
    const waveform::GateId x0{waveform::GateType::X, 0, -1};
    const waveform::GateId x1{waveform::GateType::X, 1, -1};
    EXPECT_EQ(prog.internGate(x0), 0);
    EXPECT_EQ(prog.internGate(x1), 1);
    EXPECT_EQ(prog.internGate(x0), 0); // deduped
    ASSERT_EQ(prog.gateTable().size(), 2u);
    EXPECT_EQ(prog.gate(0), x0);
    EXPECT_EQ(prog.gate(1), x1);
}

TEST(IsaProgram, MemoryWordAccountingIsExact)
{
    InstructionProgram prog;
    const auto ref =
        prog.internGate({waveform::GateType::CX, 1, 2});
    prog.emit(Instruction::prefetch(ref, 0, 0));
    prog.emit(Instruction::play(ref, 0, 0, 4));
    prog.emit(Instruction::halt());
    // 4 header (sizes + library-version stamp) + 1 gate-table +
    // 3 instructions x 2 words.
    EXPECT_EQ(prog.numInstructions(), 3u);
    EXPECT_EQ(prog.memoryWords(), 4u + 1u + 6u);

    const auto words = prog.toWords();
    ASSERT_EQ(words.size(), prog.memoryWords());
    auto back = InstructionProgram::fromWords(words);
    ASSERT_EQ(back.numInstructions(), prog.numInstructions());
    ASSERT_EQ(back.gateTable(), prog.gateTable());
    for (std::size_t i = 0; i < prog.numInstructions(); ++i)
        EXPECT_EQ(back.at(i), prog.at(i)) << "instruction " << i;
    // The reloaded program re-interns into the same table slot.
    EXPECT_EQ(back.internGate({waveform::GateType::CX, 1, 2}), ref);
}

TEST(IsaProgram, FromWordsRejectsCorruptStreams)
{
    InstructionProgram prog;
    prog.emit(Instruction::wait(3));
    prog.emit(Instruction::halt());
    const auto words = prog.toWords();

    // Truncated streams.
    EXPECT_THROW(InstructionProgram::fromWords(
                     std::span(words.data(), words.size() - 1)),
                 std::invalid_argument);
    EXPECT_THROW(InstructionProgram::fromWords(
                     std::span(words.data(), std::size_t{1})),
                 std::invalid_argument);

    // A PLAY referencing a gate the table does not hold.
    const auto bad = encode(Instruction::play(5, 0, 0, 1));
    const std::vector<std::uint32_t> stream = {0, 2, bad.word0,
                                               bad.word1};
    EXPECT_THROW(InstructionProgram::fromWords(stream),
                 std::invalid_argument);
}

// ----------------------------------------------------------- compiler

/** Small bogota fixture shared by the compiler tests. */
class IsaCompilerTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        dev_ = new waveform::DeviceModel(
            waveform::DeviceModel::ibm("bogota"));
        lib_ = new waveform::PulseLibrary(
            waveform::PulseLibrary::build(*dev_));
        clib_ = new core::CompressedLibrary(buildCompressed(*lib_));
    }

    static void
    TearDownTestSuite()
    {
        delete clib_;
        delete lib_;
        delete dev_;
        clib_ = nullptr;
        lib_ = nullptr;
        dev_ = nullptr;
    }

    runtime::Rack
    makeRack(int shards, std::size_t cache_windows) const
    {
        return runtime::Rack(
            *dev_, *clib_, rackConfig(*clib_, shards, cache_windows));
    }

    static waveform::DeviceModel *dev_;
    static waveform::PulseLibrary *lib_;
    static core::CompressedLibrary *clib_;
};

waveform::DeviceModel *IsaCompilerTest::dev_ = nullptr;
waveform::PulseLibrary *IsaCompilerTest::lib_ = nullptr;
core::CompressedLibrary *IsaCompilerTest::clib_ = nullptr;

TEST_F(IsaCompilerTest, WaitCyclesBridgeScheduleGaps)
{
    // Two sequential X pulses on one qubit: the lowered stream is
    // PLAY pair, WAIT for the first pulse's cycles, PLAY pair.
    const auto rack = makeRack(1, 4096);
    circuits::Circuit c(5);
    c.x(0);
    c.x(0);
    const auto sched = circuits::schedule(c, {});
    const Compiler comp(rack, {.emitPrefetch = false});
    ProgramStats st;
    const auto prog = comp.compileShard(sched, &st);

    ASSERT_EQ(prog.numInstructions(), 7u);
    EXPECT_EQ(prog.at(0).op, Opcode::Play);
    EXPECT_EQ(prog.at(1).op, Opcode::Play);
    EXPECT_EQ(prog.at(2).op, Opcode::Wait);
    EXPECT_EQ(prog.at(3).op, Opcode::Play);
    EXPECT_EQ(prog.at(4).op, Opcode::Play);
    EXPECT_EQ(prog.at(5).op, Opcode::Barrier);
    EXPECT_EQ(prog.at(6).op, Opcode::Halt);

    const double hz = rack.config().controller.fabricClockHz;
    const auto gap = static_cast<std::uint32_t>(
        std::llround(sched.events[1].start * hz));
    EXPECT_EQ(prog.at(2).arg, gap);
    EXPECT_GT(gap, 0u);

    // Both X(0) plays fetch one gate-table entry: max dedupe.
    EXPECT_EQ(prog.gateTable().size(), 1u);
    EXPECT_EQ(st.playedEvents, 2u);
    EXPECT_EQ(st.uniqueGates, 1u);
    EXPECT_EQ(st.dedupedFetches, 1u);
    EXPECT_EQ(st.waitInstructions, 1u);
    EXPECT_EQ(st.playInstructions, 4u);
    EXPECT_EQ(st.programCycles,
              static_cast<std::uint64_t>(gap) +
                  std::max<std::uint64_t>(
                      1, static_cast<std::uint64_t>(std::llround(
                             sched.events[1].duration * hz))));
}

TEST_F(IsaCompilerTest, ZeroGateScheduleCompilesToBarrierHalt)
{
    const auto rack = makeRack(1, 4096);
    const Compiler comp(rack);
    ProgramStats st;
    const auto prog = comp.compileShard(circuits::Schedule{}, &st);
    ASSERT_EQ(prog.numInstructions(), 2u);
    EXPECT_EQ(prog.at(0).op, Opcode::Barrier);
    EXPECT_EQ(prog.at(1).op, Opcode::Halt);
    EXPECT_EQ(prog.memoryWords(), 8u);
    EXPECT_EQ(st.playedEvents, 0u);
    EXPECT_EQ(st.programCycles, 0u);
    EXPECT_TRUE(st.fitsMemoryBound);
}

TEST_F(IsaCompilerTest, MaxDedupeCollapsesGateTableToOneEntry)
{
    // The all-gates-same-(gate, channel) worst case: N plays of X(0)
    // intern one table entry; dedupedFetches counts the other N-1.
    const auto rack = makeRack(1, 1 << 16);
    circuits::Circuit c(5);
    for (int i = 0; i < 40; ++i)
        c.x(0);
    const Compiler comp(rack);
    ProgramStats st;
    const auto prog =
        comp.compileShard(circuits::schedule(c, {}), &st);
    EXPECT_EQ(prog.gateTable().size(), 1u);
    EXPECT_EQ(st.playedEvents, 40u);
    EXPECT_EQ(st.uniqueGates, 1u);
    EXPECT_EQ(st.dedupedFetches, 39u);
}

TEST_F(IsaCompilerTest, PrefetchRequiresLeadSlack)
{
    const auto rack = makeRack(1, 4096);
    circuits::Circuit c(5);
    c.x(0);
    c.sx(0); // first use with a gap ahead of it
    c.x(0);
    const auto sched = circuits::schedule(c, {});

    // With an achievable lead, the SX first-use windows are hoisted
    // into the gap left by the X pulse.
    ProgramStats hoisted;
    Compiler(rack, {.prefetchLeadCycles = 1})
        .compileShard(sched, &hoisted);
    EXPECT_GT(hoisted.prefetchInstructions, 0u);

    // With an impossible lead, every candidate is skipped for slack.
    ProgramStats skipped;
    Compiler(rack, {.prefetchLeadCycles = 0xFFFFFFFFu})
        .compileShard(sched, &skipped);
    EXPECT_EQ(skipped.prefetchInstructions, 0u);
    EXPECT_GT(skipped.prefetchSkippedNoSlack, 0u);

    // Prefetch never fires when the master switch is off or the
    // cache is disabled.
    ProgramStats off;
    Compiler(rack, {.emitPrefetch = false}).compileShard(sched, &off);
    EXPECT_EQ(off.prefetchInstructions, 0u);
    const auto uncached = makeRack(1, 0);
    ProgramStats nocache;
    Compiler(uncached, CompilerConfig{}).compileShard(sched, &nocache);
    EXPECT_EQ(nocache.prefetchInstructions, 0u);
}

TEST_F(IsaCompilerTest, PrefetchHintsTargetTiersByReuseDistance)
{
    // Two prefetchable first uses behind the gap a long measurement
    // pulse leaves: SX(0) replays almost immediately (short reuse
    // distance), SX(1) never replays (infinite reuse distance).
    circuits::Circuit c(2);
    c.measureAll();
    c.sx(0);
    c.sx(1);
    c.sx(0);
    const auto sched = circuits::schedule(c, {});

    // On a flat rack every hint targets tier 0: there is nowhere
    // else to stage a window.
    const auto flat = makeRack(1, 4096);
    ProgramStats fst;
    Compiler(flat, {.prefetchLeadCycles = 1})
        .compileShard(sched, &fst);
    EXPECT_GT(fst.prefetchInstructions, 0u);
    EXPECT_EQ(fst.prefetchTier0, fst.prefetchInstructions);
    EXPECT_EQ(fst.prefetchTier1, 0u);

    // On a tiered rack the lookahead splits them: near-reuse windows
    // go to the fast tier, single-use windows are staged in the slow
    // tier so they cannot wash the hot set out.
    runtime::RackConfig rc = rackConfig(*clib_, 1, 64);
    rc.tier1Windows = 4096;
    const runtime::Rack tiered(*dev_, *clib_, rc);
    ProgramStats tst;
    Compiler(tiered, {.prefetchLeadCycles = 1})
        .compileShard(sched, &tst);
    EXPECT_GT(tst.prefetchTier0, 0u);
    EXPECT_GT(tst.prefetchTier1, 0u);
    EXPECT_EQ(tst.prefetchTier0 + tst.prefetchTier1,
              tst.prefetchInstructions);

    // Shrinking the tier-0 reuse horizon below SX(0)'s replay
    // distance pushes even the near-reuse windows into the slow
    // tier; gates that never replay stay there at any horizon.
    ProgramStats narrow;
    Compiler(tiered,
             {.prefetchLeadCycles = 1, .tier0ReuseDistance = 1})
        .compileShard(sched, &narrow);
    EXPECT_GT(narrow.prefetchInstructions, 0u);
    EXPECT_EQ(narrow.prefetchTier0, 0u);
    EXPECT_EQ(narrow.prefetchTier1, narrow.prefetchInstructions);
}

TEST_F(IsaCompilerTest, InstructionMemoryBoundIsEnforced)
{
    const auto rack = makeRack(1, 4096);
    // A bound too small for even an empty program is rejected up
    // front.
    EXPECT_THROW(Compiler(rack, {.instructionMemoryWords = 4}),
                 std::invalid_argument);

    circuits::Circuit c(5);
    c.x(0);
    c.sx(0);
    c.x(0);
    const auto sched = circuits::schedule(c, {});

    // The mandatory stream of a real shard cannot fit 8 words.
    EXPECT_THROW(Compiler(rack, {.instructionMemoryWords = 8})
                     .compileShard(sched),
                 std::invalid_argument);

    // Exactly the mandatory footprint: compiles, but every prefetch
    // hint is dropped for budget, and the program fits its bound.
    ProgramStats bare;
    Compiler(rack, {.emitPrefetch = false})
        .compileShard(sched, &bare);
    ProgramStats squeezed;
    const auto prog =
        Compiler(rack, {.instructionMemoryWords = bare.memoryWords})
            .compileShard(sched, &squeezed);
    EXPECT_EQ(squeezed.prefetchInstructions, 0u);
    EXPECT_GT(squeezed.prefetchDroppedBudget, 0u);
    EXPECT_TRUE(squeezed.fitsMemoryBound);
    EXPECT_EQ(prog.memoryWords(), bare.memoryWords);
    EXPECT_EQ(squeezed.memoryBoundWords, bare.memoryWords);
}

TEST_F(IsaCompilerTest, CompileCoversEveryShardAndReportsUnowned)
{
    const auto rack = makeRack(2, 4096);
    // 8-qubit circuit on the 5-qubit rack: 3 events are unowned.
    circuits::Circuit c(8);
    for (int q = 0; q < 8; ++q)
        c.x(q);
    const Compiler comp(rack);
    const auto compiled = comp.compile(circuits::schedule(c, {}));
    ASSERT_EQ(compiled.programs.size(), 2u);
    ASSERT_EQ(compiled.stats.size(), 2u);
    EXPECT_EQ(compiled.unownedEvents, 3u);
    std::uint64_t played = 0;
    for (std::size_t s = 0; s < compiled.programs.size(); ++s) {
        const auto &prog = compiled.programs[s];
        ASSERT_GE(prog.numInstructions(), 2u);
        EXPECT_EQ(prog.at(prog.numInstructions() - 1).op,
                  Opcode::Halt);
        played += compiled.stats[s].playedEvents;
        EXPECT_TRUE(compiled.stats[s].fitsMemoryBound);
    }
    EXPECT_EQ(played, 5u);
}

// ------------------------------------------------ identity to the oracle

/** The deterministic-field identity contract: everything except cache
 *  counters, wall-clock rates, and prefetchesIssued. */
void
expectIdenticalStats(const runtime::RackStats &a,
                     const runtime::RackStats &b, const char *tag)
{
    ASSERT_EQ(a.shards.size(), b.shards.size()) << tag;
    for (std::size_t s = 0; s < a.shards.size(); ++s) {
        const auto &x = a.shards[s];
        const auto &y = b.shards[s];
        EXPECT_EQ(x.demand.peakBanks, y.demand.peakBanks)
            << tag << " shard " << s;
        EXPECT_EQ(x.demand.peakChannels, y.demand.peakChannels)
            << tag << " shard " << s;
        EXPECT_EQ(x.demand.peakBandwidthBytesPerSec,
                  y.demand.peakBandwidthBytesPerSec)
            << tag << " shard " << s;
        EXPECT_EQ(x.demand.feasible, y.demand.feasible)
            << tag << " shard " << s;
        EXPECT_EQ(x.demand.totalSamples, y.demand.totalSamples)
            << tag << " shard " << s;
        EXPECT_EQ(x.demand.totalWordsRead, y.demand.totalWordsRead)
            << tag << " shard " << s;
        EXPECT_EQ(x.demand.missingGates, y.demand.missingGates)
            << tag << " shard " << s;
        EXPECT_EQ(x.demand.bypassSamples, y.demand.bypassSamples)
            << tag << " shard " << s;
        EXPECT_EQ(x.gatesPlayed, y.gatesPlayed)
            << tag << " shard " << s;
        EXPECT_EQ(x.windowsDecoded, y.windowsDecoded)
            << tag << " shard " << s;
        EXPECT_EQ(x.samplesDecoded, y.samplesDecoded)
            << tag << " shard " << s;
        EXPECT_EQ(x.samplesBypassed, y.samplesBypassed)
            << tag << " shard " << s;
    }
    EXPECT_EQ(a.fleetPeakBanks, b.fleetPeakBanks) << tag;
    EXPECT_EQ(a.fleetPeakChannels, b.fleetPeakChannels) << tag;
    EXPECT_EQ(a.fleetPeakBandwidthBytesPerSec,
              b.fleetPeakBandwidthBytesPerSec)
        << tag;
    EXPECT_EQ(a.feasible, b.feasible) << tag;
    EXPECT_EQ(a.totalGates, b.totalGates) << tag;
    EXPECT_EQ(a.totalWindows, b.totalWindows) << tag;
    EXPECT_EQ(a.totalSamples, b.totalSamples) << tag;
    EXPECT_EQ(a.totalBypassSamples, b.totalBypassSamples) << tag;
    EXPECT_EQ(a.missingGates, b.missingGates) << tag;
    EXPECT_EQ(a.unownedEvents, b.unownedEvents) << tag;
}

TEST(IsaExecution, MatchesOracleAcrossDeviceSuite)
{
    struct Case
    {
        const char *name;
        waveform::DeviceModel dev;
        circuits::Schedule sched;
        int shards;
    };
    const auto sc = circuits::surface17();
    const auto scDev = waveform::DeviceModel::synthetic(
        "surface17-device", sc.totalQubits(),
        sc.nativeCoupling().edges());
    const auto bogota = waveform::DeviceModel::ibm("bogota");
    const auto guadalupe = waveform::DeviceModel::ibm("guadalupe");
    const Case cases[] = {
        {"bogota", bogota, deviceWorkload(bogota), 2},
        {"guadalupe", guadalupe, deviceWorkload(guadalupe), 4},
        {"surface17", scDev, circuits::schedule(sc.circuit, {}), 3},
    };

    for (const auto &tc : cases) {
        const auto lib = waveform::PulseLibrary::build(tc.dev);
        const auto clib = buildCompressed(lib);
        const std::vector<circuits::Schedule> batch = {tc.sched,
                                                       tc.sched};

        for (const int workers : {1, 4}) {
            const runtime::Rack rack(
                tc.dev, clib, rackConfig(clib, tc.shards, 4096));
            const auto base = oracle::rackStats(rack, batch);
            EXPECT_GT(base.totalGates, 0u) << tc.name;
            EXPECT_EQ(base.missingGates, 0u) << tc.name;
            runtime::RuntimeService svc(rack, {.workers = workers});
            const auto compiled =
                svc.executeBatchCompiledPerJob(batch).total;
            expectIdenticalStats(base, compiled, tc.name);
            EXPECT_GT(compiled.prefetchesIssued, 0u)
                << tc.name << " workers " << workers;
        }
    }
}

TEST(IsaExecution, MatchesOracleOnTieredRacks)
{
    // The hierarchy acceptance contract: a tiered rack under every
    // admission policy produces the deterministic RackStats the
    // oracle predicts for a flat single-tier rack, at 1 and N
    // workers, while the tiers actually engage (windows staged or
    // demoted into tier 1).
    const auto dev = waveform::DeviceModel::ibm("guadalupe");
    const auto lib = waveform::PulseLibrary::build(dev);
    const auto clib = buildCompressed(lib);
    const auto sched = deviceWorkload(dev);
    const std::vector<circuits::Schedule> batch = {sched, sched};

    const runtime::Rack flat(dev, clib, rackConfig(clib, 2, 4096));
    const auto base = oracle::rackStats(flat, batch);
    ASSERT_GT(base.totalGates, 0u);

    using runtime::AdmissionPolicy;
    for (const auto policy :
         {AdmissionPolicy::AdmitAlways, AdmissionPolicy::TinyLfu}) {
        for (const int workers : {1, 4}) {
            runtime::RackConfig rc = rackConfig(clib, 2, 48);
            rc.tier1Windows = 4096;
            rc.admission = policy;
            const runtime::Rack rack(dev, clib, rc);
            runtime::RuntimeService svc(rack, {.workers = workers});
            const auto got = svc.executeBatchCompiledPerJob(batch).total;
            const std::string tag =
                std::string(runtime::admissionPolicyName(policy)) +
                " workers " + std::to_string(workers);
            expectIdenticalStats(base, got, tag.c_str());
            EXPECT_GT(got.cache.tier[1].admitted +
                          got.cache.demotions,
                      0u)
                << tag;
        }
    }
}

TEST(IsaExecution, UncompressedBaselineMatchesOracle)
{
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    const auto clib = buildCompressed(lib);
    runtime::RackConfig rc;
    rc.numShards = 2;
    rc.controller.compressed = false;
    const runtime::Rack rack(dev, clib, rc);
    runtime::RuntimeService svc(rack, {.workers = 2});
    const auto sched = deviceWorkload(dev);
    const auto b = svc.executeBatchCompiledPerJob({sched}).total;
    expectIdenticalStats(oracle::rackStats(rack, {sched}), b, "uncompressed");
    EXPECT_GT(b.totalSamples, 0u);
    EXPECT_EQ(b.totalWindows, 0u);
    EXPECT_EQ(b.prefetchesIssued, 0u);
    EXPECT_EQ(b.cache.prefetches, 0u);
}

TEST(IsaExecution, UnownedEventsReportedIdentically)
{
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    const auto clib = buildCompressed(lib);
    const runtime::Rack rack(dev, clib, rackConfig(clib, 2, 4096));
    runtime::RuntimeService svc(rack);
    circuits::Circuit c(8);
    for (int q = 0; q < 8; ++q)
        c.x(q);
    const auto sched = circuits::schedule(c, {});
    const auto b = svc.executeBatchCompiledPerJob({sched}).total;
    expectIdenticalStats(oracle::rackStats(rack, {sched}), b, "unowned");
    EXPECT_EQ(b.unownedEvents, 3u);
    EXPECT_EQ(b.totalGates, 5u);
}

TEST(IsaExecution, SimdBackendsBitIdenticalThroughCompiledBatch)
{
    // The decode plane's backend choice must be invisible end to
    // end: a service batch (coalesced PLAY ranges, prefetch
    // events, model replay) under a forced-scalar dispatch and under
    // every SIMD backend the host supports must produce identical
    // RackStats and model counters, and the batch decode primitive
    // playback streams through must produce bit-identical samples for
    // every window of the library — the integer codec path guarantees
    // exactness.
    namespace simd = dsp::simd;
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    const auto clib = buildCompressed(lib);
    const auto sched = deviceWorkload(dev);

    const auto runWith = [&](simd::Backend b) {
        simd::setBackend(b);
        const runtime::Rack rack(dev, clib,
                                 rackConfig(clib, 2, 1 << 14));
        runtime::RuntimeService svc(rack, {.workers = 1});
        const auto stats = svc.executeBatchCompiledPerJob({sched}).total;
        // Decode every channel the way playback does: batches of
        // kBatchWindows windows into one scratch buffer.
        constexpr std::size_t kBatch =
            runtime::WindowPlayer::kBatchWindows;
        const core::Decompressor dec;
        std::vector<double> decoded;
        for (const auto &[id, e] : clib.entries())
            for (const auto *ch : {&e.cw.i, &e.cw.q}) {
                std::vector<double> scratch(ch->windowSize * kBatch);
                for (std::size_t w = 0; w < ch->numWindows();
                     w += kBatch) {
                    const std::size_t n = dec.decodeWindowsInto(
                        *ch, e.cw.codec, w,
                        std::min(kBatch, ch->numWindows() - w),
                        SampleSpan(scratch.data(), scratch.size()));
                    decoded.insert(decoded.end(), scratch.begin(),
                                   scratch.begin() +
                                       static_cast<std::ptrdiff_t>(n));
                }
            }
        return std::pair(stats, decoded);
    };

    const simd::Backend ambient = simd::activeBackend();
    const auto [sstats, sdecoded] = runWith(simd::Backend::Scalar);
    ASSERT_FALSE(sdecoded.empty());
    for (simd::Backend b : {simd::Backend::Avx2, simd::Backend::Neon}) {
        if (!simd::backendSupported(b))
            continue;
        const auto [vstats, vdecoded] = runWith(b);
        const std::string tag =
            "backend " + std::string(simd::backendName(b));
        expectIdenticalStats(sstats, vstats, tag.c_str());
        EXPECT_EQ(vstats.cache.hits, sstats.cache.hits) << tag;
        EXPECT_EQ(vstats.cache.misses, sstats.cache.misses) << tag;
        EXPECT_EQ(vstats.prefetchesIssued, sstats.prefetchesIssued)
            << tag;
        ASSERT_EQ(vdecoded, sdecoded) << tag;
    }
    simd::setBackend(ambient);
}

TEST(IsaExecution, PrefetchRaisesColdCacheHitRate)
{
    // The tentpole claim: on a cold cache, PREFETCH hoisting turns
    // first-use demand misses into hits, so the default program's
    // hit rate strictly beats the same program without its
    // PREFETCHes on the same workload.
    const auto sc = circuits::surface17();
    const auto dev = waveform::DeviceModel::synthetic(
        "surface17-device", sc.totalQubits(),
        sc.nativeCoupling().edges());
    const auto lib = waveform::PulseLibrary::build(dev);
    const auto clib = buildCompressed(lib);
    const auto sched = circuits::schedule(sc.circuit, {});

    const runtime::Rack bareRack(dev, clib,
                                 rackConfig(clib, 1, 1 << 15));
    runtime::RuntimeService bare(bareRack, {.workers = 1});
    const auto cold =
        bare.executeBatchCompiledPerJob({sched}, {.emitPrefetch = false})
            .total;

    const runtime::Rack prefetchRack(dev, clib,
                                     rackConfig(clib, 1, 1 << 15));
    runtime::RuntimeService prefetching(prefetchRack, {.workers = 1});
    const auto warm = prefetching.executeBatchCompiledPerJob({sched}).total;

    expectIdenticalStats(cold, warm, "qec");
    EXPECT_EQ(cold.prefetchesIssued, 0u);
    EXPECT_EQ(cold.cache.prefetches, 0u);
    EXPECT_GT(warm.prefetchesIssued, 0u);
    EXPECT_EQ(warm.cache.prefetches, warm.prefetchesIssued);
    EXPECT_GT(warm.cache.prefetchHits, 0u);
    EXPECT_GT(warm.cacheHitRate, cold.cacheHitRate);
    // Demand traffic is conserved: the prefetched windows moved from
    // the miss column to the hit column, nothing else changed.
    EXPECT_EQ(warm.cache.hits + warm.cache.misses,
              cold.cache.hits + cold.cache.misses);
}

TEST(IsaExecution, InterpreterCountsMatchProgramStats)
{
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    const auto clib = buildCompressed(lib);
    const runtime::Rack rack(dev, clib, rackConfig(clib, 1, 4096));
    const auto sched = deviceWorkload(dev);
    const Compiler comp(rack);
    ProgramStats st;
    const auto prog = comp.compileShard(sched, &st);

    Interpreter interp(rack);
    const auto run = interp.run(prog);
    EXPECT_EQ(run.stats.instructions, st.instructions);
    EXPECT_EQ(run.stats.plays, st.playInstructions);
    EXPECT_EQ(run.stats.waits, st.waitInstructions);
    EXPECT_EQ(run.stats.prefetches, st.prefetchInstructions);
    EXPECT_EQ(run.stats.barriers, 1u);
    EXPECT_EQ(run.play.gates, st.playedEvents);
    EXPECT_GT(run.play.samples, 0u);
}

/** `log` with every PREFETCH range split into one-window events. */
runtime::WindowEventLog
splitPrefetches(const runtime::WindowEventLog &log)
{
    runtime::WindowEventLog out;
    for (const runtime::WindowEvent &e : log) {
        if (!e.prefetch) {
            out.push_back(e);
            continue;
        }
        for (std::uint32_t w = e.first; w < e.first + e.count; ++w) {
            runtime::WindowEvent one = e;
            one.first = w;
            one.count = 1;
            out.push_back(one);
        }
    }
    return out;
}

TEST(IsaExecution, PrefetchStreaksReplayLikeOneWindowPrefetches)
{
    // The interpreter folds each PREFETCH streak into one range event.
    // On the compiled QEC shard programs, the logs must replay to
    // exactly the counters and per-log cold inserts of the same logs
    // with every range split into one-window events (cold, then over
    // the windows the first pass left resident), and every folded
    // PREFETCH still retires in InterpreterStats.
    for (const int d : {3, 5}) {
        const std::string tag = "d=" + std::to_string(d);
        const auto sc = circuits::makeSurfaceCode(
            d, circuits::SurfaceLayout::Rotated, 1);
        const auto dev = waveform::DeviceModel::synthetic(
            "qec-" + tag, sc.totalQubits(), sc.nativeCoupling().edges());
        const auto clib = buildAdaptive(waveform::PulseLibrary::build(dev));
        // A small fast tier over a large slow one, so the compiler
        // emits both hints and the replay demotes and promotes.
        auto rc = rackConfig(clib, 4, 64);
        rc.tier1Windows = 1 << 12;
        rc.admission = runtime::AdmissionPolicy::TinyLfu;
        const runtime::Rack rack(dev, clib, rc);
        const auto compiled =
            Compiler(rack).compile(circuits::schedule(sc.circuit, {}));
        std::vector<runtime::WindowEventLog> ranged, split;
        std::uint64_t prefetch_ops = 0, prefetch_events = 0;
        for (int pass = 0; pass < 2; ++pass)
            for (std::size_t s = 0; s < compiled.programs.size(); ++s) {
                runtime::WindowEventLog log;
                Interpreter interp(rack, rack.currentLibrary(), &log);
                const auto run = interp.run(compiled.programs[s]);
                EXPECT_EQ(run.stats.prefetches,
                          compiled.stats[s].prefetchInstructions)
                    << tag << " shard " << s;
                EXPECT_EQ(run.stats.instructions,
                          compiled.stats[s].instructions)
                    << tag << " shard " << s;
                prefetch_ops += run.stats.prefetches;
                for (const auto &e : log)
                    prefetch_events += e.prefetch ? 1 : 0;
                split.push_back(splitPrefetches(log));
                ranged.push_back(std::move(log));
            }
        EXPECT_GT(prefetch_events, 0u) << tag;
        EXPECT_LT(prefetch_events, prefetch_ops) << tag;

        runtime::TieredWindowStore a(rack.cache().config());
        runtime::TieredWindowStore b(rack.cache().config());
        std::vector<std::uint64_t> ia(ranged.size()), ib(split.size());
        const auto x = a.replay(ranged, ia);
        const auto y = b.replay(split, ib);
        EXPECT_GT(x.prefetches, 0u) << tag;
        EXPECT_GT(x.prefetchHits, 0u) << tag;
        EXPECT_EQ(ia, ib) << tag;
        EXPECT_EQ(x.hits, y.hits) << tag;
        EXPECT_EQ(x.misses, y.misses) << tag;
        EXPECT_EQ(x.evictions, y.evictions) << tag;
        EXPECT_EQ(x.prefetches, y.prefetches) << tag;
        EXPECT_EQ(x.prefetchHits, y.prefetchHits) << tag;
        EXPECT_EQ(x.prefetchWasted, y.prefetchWasted) << tag;
        EXPECT_EQ(x.promotions, y.promotions) << tag;
        EXPECT_EQ(x.demotions, y.demotions) << tag;
        EXPECT_EQ(x.penaltyCycles, y.penaltyCycles) << tag;
        EXPECT_EQ(x.entries, y.entries) << tag;
        EXPECT_EQ(x.residentSamples, y.residentSamples) << tag;
        for (std::size_t t = 0; t < 2; ++t) {
            EXPECT_EQ(x.tier[t].hits, y.tier[t].hits) << tag;
            EXPECT_EQ(x.tier[t].misses, y.tier[t].misses) << tag;
            EXPECT_EQ(x.tier[t].evictions, y.tier[t].evictions) << tag;
            EXPECT_EQ(x.tier[t].admitted, y.tier[t].admitted) << tag;
            EXPECT_EQ(x.tier[t].admitRejected, y.tier[t].admitRejected)
                << tag;
            EXPECT_EQ(x.tier[t].entries, y.tier[t].entries) << tag;
        }
    }
}

TEST(IsaExecution, PrefetchStreakBreaksOnTierChannelGapAndGate)
{
    // Hand-built: a streak is consecutive windows of one (gate,
    // channel, tier). Each break starts a new range event; every op
    // still retires.
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto clib = buildCompressed(waveform::PulseLibrary::build(dev));
    const runtime::Rack rack(dev, clib, rackConfig(clib, 1, 4096));
    std::vector<std::pair<waveform::GateId, const core::CompressedEntry *>>
        gates;
    for (const auto &[id, e] : clib.entries())
        if (gates.size() < 2 && e.cw.i.numWindows() >= 8 &&
            e.cw.q.numWindows() >= 8)
            gates.emplace_back(id, &e);
    ASSERT_EQ(gates.size(), 2u);
    const auto iwin = [&](std::size_t g) {
        return static_cast<std::uint32_t>(gates[g].second->cw.i.numWindows());
    };

    InstructionProgram prog;
    const auto a = prog.internGate(gates[0].first);
    const auto b = prog.internGate(gates[1].first);
    prog.emit(Instruction::prefetch(a, 0, 0, 0));
    prog.emit(Instruction::prefetch(a, 0, 1, 0));
    prog.emit(Instruction::prefetch(a, 0, 2, 1)); // tier change
    prog.emit(Instruction::prefetch(a, 0, 3, 1));
    prog.emit(Instruction::prefetch(a, 1, 4, 1)); // channel change
    prog.emit(Instruction::prefetch(a, 1, 6, 1)); // window gap
    prog.emit(Instruction::prefetch(b, 1, 7, 1)); // different gate
    prog.emit(Instruction::halt());

    runtime::WindowEventLog log;
    Interpreter interp(rack, rack.currentLibrary(), &log);
    auto &trace = telemetry::Trace::global();
    const bool was_tracing = trace.enabled();
    trace.clear();
    trace.setEnabled(true);
    const auto run = interp.run(prog);
    trace.setEnabled(was_tracing);
    EXPECT_EQ(run.stats.instructions, 8u);
    EXPECT_EQ(run.stats.prefetches, 7u);
    // Every op still retires in the trace: one span per pc, and the
    // two folded into a streak head (pc 1 and 3) with zero dwell.
    std::vector<int> spans(8, 0);
    for (const telemetry::TraceEvent &e : trace.snapshot()) {
        if (std::string_view(e.cat) != "isa")
            continue;
        ASSERT_LT(e.arg0, spans.size());
        ++spans[e.arg0];
        if (e.arg0 == 1 || e.arg0 == 3) {
            EXPECT_EQ(e.durNs, 0u) << "pc " << e.arg0;
        }
    }
    trace.clear();
    EXPECT_EQ(spans, std::vector<int>(8, 1));

    struct Want
    {
        std::size_t gate;
        std::uint32_t first, count;
        std::uint8_t tier;
    };
    const Want want[] = {{0, 0, 2, 0},
                         {0, 2, 2, 1},
                         {0, iwin(0) + 4, 1, 1},
                         {0, iwin(0) + 6, 1, 1},
                         {1, iwin(1) + 7, 1, 1}};
    ASSERT_EQ(log.size(), std::size(want));
    for (std::size_t k = 0; k < log.size(); ++k) {
        const runtime::WindowEvent &e = log[k];
        EXPECT_TRUE(e.prefetch) << "event " << k;
        EXPECT_TRUE(e.gate == gates[want[k].gate].first) << "event " << k;
        EXPECT_EQ(e.first, want[k].first) << "event " << k;
        EXPECT_EQ(e.count, want[k].count) << "event " << k;
        EXPECT_EQ(e.tier, want[k].tier) << "event " << k;
    }
}

TEST(IsaExecution, PrefetchStreakOverFlatSegmentRecordsRampWindows)
{
    // A streak across an adaptive channel's flat segment records one
    // event per ramp run; the flat windows never enter the model.
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto clib = buildAdaptive(waveform::PulseLibrary::build(dev));
    const runtime::Rack rack(dev, clib, rackConfig(clib, 1, 4096));
    const waveform::GateId *id = nullptr;
    const core::CompressedEntry *entry = nullptr;
    for (const auto &[gid, e] : clib.entries()) {
        const auto &segs = e.cw.i.segments;
        if (segs.size() >= 3 && !segs.front().isFlat &&
            !segs.back().isFlat) {
            id = &gid;
            entry = &e;
            break;
        }
    }
    ASSERT_NE(entry, nullptr);
    const core::CompressedChannel &ch = entry->cw.i;
    const auto nwin = static_cast<std::uint32_t>(ch.numWindows());

    InstructionProgram prog;
    const auto ref = prog.internGate(*id);
    for (std::uint32_t w = 0; w < nwin; ++w)
        prog.emit(Instruction::prefetch(ref, 0, w, 0));
    prog.emit(Instruction::halt());

    runtime::WindowEventLog log;
    Interpreter interp(rack, rack.currentLibrary(), &log);
    const auto run = interp.run(prog);
    EXPECT_EQ(run.stats.prefetches, nwin);

    runtime::WindowEventLog want;
    std::uint32_t flat = 0;
    ch.forEachSegmentRun(
        0, nwin,
        [&](const core::AdaptiveSegment &seg, std::size_t lo,
            std::size_t hi, std::size_t) {
            if (seg.isFlat) {
                flat += static_cast<std::uint32_t>(hi - lo);
                return;
            }
            runtime::WindowEvent e;
            e.first = static_cast<std::uint32_t>(lo);
            e.count = static_cast<std::uint32_t>(hi - lo);
            want.push_back(e);
        });
    EXPECT_GT(flat, 0u);
    ASSERT_EQ(log.size(), want.size());
    std::uint32_t recorded = 0;
    for (std::size_t k = 0; k < log.size(); ++k) {
        EXPECT_TRUE(log[k].prefetch) << "event " << k;
        EXPECT_EQ(log[k].first, want[k].first) << "event " << k;
        EXPECT_EQ(log[k].count, want[k].count) << "event " << k;
        recorded += log[k].count;
    }
    EXPECT_EQ(recorded + flat, nwin);
}

TEST(IsaExecution, InterpreterRejectsForeignPrograms)
{
    // A program whose gate table references gates the rack's library
    // does not hold is a corrupt or misrouted stream.
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    const auto clib = buildCompressed(lib);
    const runtime::Rack rack(dev, clib, rackConfig(clib, 1, 4096));
    InstructionProgram prog;
    const auto ref =
        prog.internGate({waveform::GateType::X, 99, -1});
    prog.emit(Instruction::play(ref, 0, 0, 1));
    prog.emit(Instruction::halt());
    Interpreter interp(rack);
    EXPECT_THROW(interp.run(prog), std::invalid_argument);
}

/** One malformed PLAY/PREFETCH: which channel it addresses and how
 *  it overruns that channel's window grid. */
struct OutOfGridShape
{
    const char *name;
    bool adaptive; ///< on an adaptive channel (else a plain one)
    /** PLAY windows [nwin - 1, nwin + 1) of an nwin-window I channel,
     *  or PREFETCH window nwin of it. */
    bool prefetch;
    /** PREFETCH past the Q grid too: window nwin + the Q window
     *  count. */
    bool pastBoth = false;
    /** PREFETCH windows nwin - 2, nwin - 1, nwin: one streak whose
     *  last window is past the grid. */
    bool streak = false;
};

void
PrintTo(const OutOfGridShape &shape, std::ostream *os)
{
    *os << shape.name;
}

class InterpreterOutOfGrid
    : public ::testing::TestWithParam<OutOfGridShape>
{
};

TEST_P(InterpreterOutOfGrid, ThrowsBeforeAnythingPlays)
{
    // A hand-built program, round-tripped through the word format,
    // whose only op overruns its channel's window grid: the
    // interpreter must reject it with a typed error before decoding
    // or recording anything — never abort the process, and never
    // key an I window past the grid as a Q window.
    const OutOfGridShape &shape = GetParam();
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto clib = buildAdaptive(waveform::PulseLibrary::build(dev));
    const runtime::Rack rack(dev, clib, rackConfig(clib, 1, 4096));

    const waveform::GateId *id = nullptr;
    const core::CompressedEntry *entry = nullptr;
    for (const auto &[gid, e] : clib.entries())
        if (e.cw.i.isAdaptive() == shape.adaptive &&
            e.cw.i.numWindows() > 1) {
            id = &gid;
            entry = &e;
            break;
        }
    ASSERT_NE(entry, nullptr);
    const auto nwin = static_cast<std::uint32_t>(entry->cw.i.numWindows());
    const auto qwin = static_cast<std::uint32_t>(entry->cw.q.numWindows());

    InstructionProgram built;
    const auto ref = built.internGate(*id);
    if (!shape.prefetch)
        built.emit(Instruction::play(ref, 0,
                                     static_cast<std::uint16_t>(nwin - 1),
                                     2));
    else if (shape.streak)
        for (std::uint32_t w = nwin - 2; w <= nwin; ++w)
            built.emit(Instruction::prefetch(ref, 0, w));
    else
        built.emit(Instruction::prefetch(
            ref, 0, nwin + (shape.pastBoth ? qwin : 0)));
    built.emit(Instruction::halt());
    const auto prog = InstructionProgram::fromWords(built.toWords());

    runtime::WindowEventLog log;
    Interpreter interp(rack, rack.currentLibrary(), &log);
    EXPECT_THROW(interp.run(prog), std::invalid_argument);
    EXPECT_TRUE(log.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, InterpreterOutOfGrid,
    ::testing::Values(
        OutOfGridShape{"PlainPlay", false, false},
        OutOfGridShape{"AdaptivePlay", true, false},
        OutOfGridShape{"AdaptivePrefetch", true, true},
        OutOfGridShape{"PrefetchPastIIntoQ", false, true},
        OutOfGridShape{"PrefetchPastBothChannels", false, true, true},
        OutOfGridShape{"PrefetchStreakPastGrid", false, true, false,
                       true}),
    [](const ::testing::TestParamInfo<OutOfGridShape> &info) {
        return std::string(info.param.name);
    });

TEST(IsaProgram, WordStreamCarriesLibraryVersionStamp)
{
    InstructionProgram prog;
    const auto ref =
        prog.internGate({waveform::GateType::X, 0, -1});
    prog.emit(Instruction::play(ref, 0, 0, 1));
    prog.emit(Instruction::halt());
    // A >32-bit version must survive the two-word header split.
    const std::uint64_t v = (7ull << 40) | 12345ull;
    prog.setLibraryVersion(v);
    EXPECT_EQ(prog.libraryVersion(), v);
    const auto back = InstructionProgram::fromWords(prog.toWords());
    EXPECT_EQ(back.libraryVersion(), v);
}

TEST(IsaExecution, InterpreterRejectsStaleProgramsAfterSwap)
{
    // The epoch gate: a program compiled before a hot-swap must be
    // refused by an interpreter pinned after it — silently playing a
    // retired calibration's window layout is the failure mode the
    // version stamp exists to catch.
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    const auto clib = buildCompressed(lib);
    auto libA = std::make_shared<core::CompressedLibrary>(clib);
    auto libB = std::make_shared<core::CompressedLibrary>(clib);
    runtime::Rack rack(dev, libA, rackConfig(clib, 1, 1 << 12));

    circuits::Circuit c(2);
    c.x(0);
    c.x(1);
    const auto sched = circuits::schedule(c, {});
    const Compiler comp(rack); // pins the pre-swap epoch
    const auto stale = comp.compileShard(sched);
    EXPECT_EQ(stale.libraryVersion(),
              comp.pinnedLibrary().version);

    rack.swapLibrary(libB);
    Interpreter fresh(rack); // pins the post-swap epoch
    EXPECT_THROW(fresh.run(stale), std::invalid_argument);
    // An interpreter still pinned to the old epoch runs it fine —
    // that is exactly how in-flight batches survive a swap.
    Interpreter pinned(rack, comp.pinnedLibrary());
    const auto res = pinned.run(stale);
    EXPECT_GT(res.stats.plays, 0u);
    // Recompiling against the new epoch unblocks the fresh path.
    const Compiler recomp(rack);
    const auto res2 = fresh.run(recomp.compileShard(sched));
    EXPECT_EQ(res2.stats.plays, res.stats.plays);
}

TEST(ProgramCacheTest, LruFirstWinsAndStaleSweep)
{
    ProgramCache cache(2);
    InstructionProgram p1, p2, p3;
    p1.emit(Instruction::halt());
    p2.emit(Instruction::halt());
    p3.emit(Instruction::halt());
    const ProgramKey k1{1, 0, 1}, k2{2, 0, 1}, k3{3, 0, 2};

    EXPECT_EQ(cache.get(k1), nullptr);
    const auto a1 = cache.put(k1, std::move(p1));
    // First-wins: a racing second put of the same key returns the
    // incumbent artifact, not a duplicate.
    InstructionProgram dup;
    dup.emit(Instruction::halt());
    EXPECT_EQ(cache.put(k1, std::move(dup)), a1);
    EXPECT_EQ(cache.get(k1), a1);

    cache.put(k2, std::move(p2));
    cache.get(k1);                // k1 most-recent; k2 is the victim
    cache.put(k3, std::move(p3)); // evicts k2
    EXPECT_EQ(cache.get(k2), nullptr);
    EXPECT_NE(cache.get(k1), nullptr);

    // The swap sweep: entries of retired versions drop, current stay.
    cache.dropStale(2);
    EXPECT_EQ(cache.get(k1), nullptr); // version 1 < 2: swept
    EXPECT_NE(cache.get(k3), nullptr); // version 2: kept
    const auto st = cache.stats();
    EXPECT_EQ(st.staleDropped, 1u);
    EXPECT_EQ(st.evictions, 1u);
    EXPECT_EQ(st.entries, 1u);

    // Capacity 0 disables caching but still hands back an artifact.
    ProgramCache off(0);
    InstructionProgram p4;
    p4.emit(Instruction::halt());
    EXPECT_NE(off.put({9, 0, 1}, std::move(p4)), nullptr);
    EXPECT_EQ(off.get({9, 0, 1}), nullptr);
}

TEST(IsaExecution, ServiceProgramCacheServesRepeatBatches)
{
    // Steady-state serving of a repeating workload compiles each
    // (schedule, shard) once; later batches hit the program cache.
    // Results stay bit-identical, and a hot-swap invalidates the lot
    // (new version in the key) followed by a sweep.
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    const auto clib = buildCompressed(lib);
    auto libA = std::make_shared<core::CompressedLibrary>(clib);
    auto libB = std::make_shared<core::CompressedLibrary>(clib);
    runtime::Rack rack(dev, libA, rackConfig(clib, 2, 1 << 12));
    runtime::RuntimeService svc(rack, {.workers = 1});
    const auto sched = deviceWorkload(dev);

    const auto first = svc.executeBatchCompiledPerJob({sched}).total;
    const auto cold = svc.programCacheStats();
    EXPECT_EQ(cold.hits, 0u);
    EXPECT_GT(cold.insertions, 0u);

    const auto second = svc.executeBatchCompiledPerJob({sched}).total;
    const auto warm = svc.programCacheStats();
    EXPECT_EQ(warm.insertions, cold.insertions); // nothing recompiled
    EXPECT_GT(warm.hits, 0u);
    expectIdenticalStats(first, second, "cached replay");

    rack.swapLibrary(libB);
    svc.executeBatchCompiledPerJob({sched});
    const auto swapped = svc.programCacheStats();
    EXPECT_GT(swapped.insertions, warm.insertions); // recompiled
    EXPECT_GT(swapped.staleDropped, 0u);            // old swept
}

TEST(IsaExecution, StreamShapingConfigsMissEachOtherInProgramCache)
{
    // The program-cache key folds every CompilerConfig field that
    // shapes the emitted stream: a config differing from the default
    // in one of them compiles its own programs instead of being
    // served the default's, and the default still hits its own.
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto clib = buildCompressed(waveform::PulseLibrary::build(dev));
    const runtime::Rack rack(dev, clib, rackConfig(clib, 2, 1 << 12));
    const std::vector<circuits::Schedule> batch = {deviceWorkload(dev)};
    const CompilerConfig base;
    struct Variant
    {
        const char *field;
        CompilerConfig cfg;
    };
    const Variant variants[] = {
        {"instructionMemoryWords",
         {.instructionMemoryWords = base.instructionMemoryWords + 1}},
        {"prefetchLeadCycles",
         {.prefetchLeadCycles = base.prefetchLeadCycles + 1}},
        {"maxOutstandingPrefetches",
         {.maxOutstandingPrefetches = base.maxOutstandingPrefetches + 1}},
        {"emitPrefetch", {.emitPrefetch = !base.emitPrefetch}},
        {"tier0ReuseDistance",
         {.tier0ReuseDistance = base.tier0ReuseDistance + 1}},
    };
    for (const auto &v : variants) {
        runtime::RuntimeService svc(rack, {.workers = 1});
        svc.executeBatchCompiledPerJob(batch, base);
        const auto warm = svc.programCacheStats();
        ASSERT_EQ(warm.misses, 2u) << v.field;
        svc.executeBatchCompiledPerJob(batch, v.cfg);
        const auto other = svc.programCacheStats();
        EXPECT_EQ(other.hits, warm.hits) << v.field;
        EXPECT_EQ(other.misses, warm.misses + 2) << v.field;
        svc.executeBatchCompiledPerJob(batch, base);
        EXPECT_EQ(svc.programCacheStats().hits, other.hits + 2)
            << v.field;
    }
}

} // namespace
} // namespace compaqt::isa
