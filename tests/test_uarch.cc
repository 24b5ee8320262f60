/**
 * @file
 * Unit tests for the microarchitecture: banked memory, RLE decoder,
 * IDCT engines (golden-model equivalence), the decompression pipeline
 * and its bandwidth expansion, the controller's bank accounting, and
 * the timing/resource/scaling models behind Figs 5/16/17 and Tables
 * IV/V/VIII.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "circuits/scheduler.hh"
#include "circuits/surface_code.hh"
#include "core/adaptive.hh"
#include "core/compressor.hh"
#include "core/decompressor.hh"
#include "core/library_compiler.hh"
#include "uarch/controller.hh"
#include "uarch/pipeline.hh"
#include "uarch/resources.hh"
#include "uarch/scaling.hh"
#include "uarch/timing.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"

namespace compaqt::uarch
{
namespace
{

core::CompressedWaveform
compressedDrag(std::size_t ws = 16)
{
    core::CompressorConfig cfg{"int-dct", ws, 2e-3};
    const core::Compressor comp(cfg);
    return comp.compress(waveform::drag(144, 36.0, 0.2, 1.2));
}

/** One playback: the samples trimmed to the channel, and its stats. */
struct Streamed
{
    std::vector<std::int32_t> samples;
    StreamStats stats;
};

/** Stream the loaded waveform into a buffer of its window grid. */
Streamed
streamLoaded(DecompressionPipeline &pipe)
{
    Streamed r;
    r.samples.resize(pipe.numWindows() * pipe.engine().windowSize());
    r.stats = pipe.streamInto(r.samples);
    r.samples.resize(pipe.loadedSamples());
    return r;
}

/** Stream a plain or adaptive channel into a buffer of its window
 *  grid. */
Streamed
streamAdaptive(DecompressionPipeline &pipe,
               const core::CompressedChannel &ch)
{
    Streamed r;
    r.samples.resize(ch.numWindows() * ch.windowSize);
    r.stats = pipe.streamAdaptiveInto(ch, r.samples);
    r.samples.resize(ch.numSamples);
    return r;
}

// ------------------------------------------------------------------ BRAM

TEST(Bram, InterleavesWordsAcrossBanks)
{
    BankedWaveform mem(3);
    mem.appendWindow({Word::sample(1), Word::sample(2),
                      Word::codeword(14)});
    mem.appendWindow({Word::sample(5), Word::codeword(15)});
    EXPECT_EQ(mem.numWindows(), 2u);
    EXPECT_EQ(mem.storedWords(), 5u);
    EXPECT_EQ(mem.paddedWords(), 6u);

    std::vector<Word> words(mem.width());
    ASSERT_EQ(mem.fetchWindowInto(0, words), 3u);
    EXPECT_EQ(words[0].value, 1);
    EXPECT_TRUE(words[2].isRle);

    // Short window: only occupied banks.
    ASSERT_EQ(mem.fetchWindowInto(1, words), 2u);
    EXPECT_EQ(mem.accesses(), 5u);
}

TEST(Bram, RejectsOverwideWindows)
{
    BankedWaveform mem(2);
    EXPECT_DEATH(mem.appendWindow({Word::sample(1), Word::sample(2),
                                   Word::sample(3)}),
                 "width");
}

// ----------------------------------------------------------- RLE decoder

TEST(RleDecoder, ExpandsCodeword)
{
    RleDecoder dec(8);
    const std::vector<Word> words = {Word::sample(7), Word::sample(-3),
                                     Word::codeword(6)};
    std::vector<std::int32_t> out(8, -1);
    dec.decodeInto(words, out);
    ASSERT_EQ(out.size(), 8u);
    EXPECT_EQ(out[0], 7);
    EXPECT_EQ(out[1], -3);
    for (std::size_t i = 2; i < 8; ++i)
        EXPECT_EQ(out[i], 0);
    EXPECT_EQ(dec.cycles(), 1u);
}

TEST(RleDecoder, RejectsMalformedWindow)
{
    RleDecoder dec(8);
    const std::vector<Word> words = {Word::sample(1)};
    std::vector<std::int32_t> out(8);
    EXPECT_DEATH(dec.decodeInto(words, out), "wrong");
}

// ----------------------------------------------------------- IDCT engine

TEST(IdctEngine, MatchesSoftwareGoldenModel)
{
    const auto cw = compressedDrag();
    IdctEngine engine(EngineKind::IntDctW, 16);
    const dsp::IntDct golden(16);
    std::vector<std::int32_t> coeffs(16), expect(16), got(16);
    for (const auto &w : cw.i.windows) {
        core::Decompressor::expandWindowIntInto(w, coeffs);
        golden.inverse(coeffs, expect);
        engine.transformInto(coeffs, got);
        EXPECT_EQ(got, expect);
    }
    EXPECT_EQ(engine.invocations(), cw.i.windows.size());
}

TEST(IdctEngine, IntEngineHasSingleCycleLatency)
{
    EXPECT_EQ(IdctEngine(EngineKind::IntDctW, 16).latency(), 1);
    EXPECT_GT(IdctEngine(EngineKind::DctW, 16).latency(), 1);
}

TEST(IdctEngine, OpCountsMultiplierless)
{
    IdctEngine engine(EngineKind::IntDctW, 8);
    const std::vector<std::int32_t> coeffs(8, 50);
    std::vector<std::int32_t> out(8);
    engine.transformInto(coeffs, out);
    EXPECT_EQ(engine.ops().multipliers(), 0);
    EXPECT_GT(engine.ops().adders(), 20);
    EXPECT_GT(engine.ops().shifters(), 10);
}

TEST(IdctEngine, LoefflerCountsForDctW)
{
    IdctEngine engine(EngineKind::DctW, 8);
    const std::vector<std::int32_t> coeffs(8, 50);
    std::vector<std::int32_t> out(8);
    engine.transformInto(coeffs, out);
    EXPECT_EQ(engine.ops().multipliers(), 11);
    EXPECT_EQ(engine.ops().adders(), 29);
}

// -------------------------------------------------------------- pipeline

TEST(Pipeline, StreamsBitExactSamples)
{
    const auto cw = compressedDrag();
    DecompressionPipeline pipe(EngineKind::IntDctW, 16,
                               cw.worstCaseWindowWords());
    pipe.load(cw.i);
    const auto result = streamLoaded(pipe);

    core::Decompressor dec;
    const auto golden = dec.decompressChannel(cw.i,
                                              "int-dct");
    ASSERT_EQ(result.samples.size(), golden.size());
    for (std::size_t k = 0; k < golden.size(); ++k)
        EXPECT_EQ(dsp::IntDct::dequantize(result.samples[k]),
                  golden[k])
            << "k=" << k;
}

TEST(Pipeline, BandwidthExpansionNearWindowSize)
{
    // WS samples emerge per fabric cycle in steady state: the Fig 2b
    // bandwidth boost.
    const auto cw = compressedDrag(16);
    DecompressionPipeline pipe(EngineKind::IntDctW, 16,
                               cw.worstCaseWindowWords());
    pipe.load(cw.i);
    const auto result = streamLoaded(pipe);
    EXPECT_GT(result.stats.samplesPerCycle(), 10.0);
    EXPECT_LE(result.stats.samplesPerCycle(), 16.0);
}

TEST(Pipeline, ReadsOnlyStoredWords)
{
    const auto cw = compressedDrag(16);
    DecompressionPipeline pipe(EngineKind::IntDctW, 16,
                               cw.worstCaseWindowWords());
    pipe.load(cw.i);
    const auto result = streamLoaded(pipe);
    EXPECT_EQ(result.stats.wordsRead, cw.i.totalWords());
    EXPECT_LT(result.stats.wordsRead, result.stats.samplesOut);
}

class PipelineWs : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PipelineWs, BitExactAtEveryWindowSize)
{
    const std::size_t ws = GetParam();
    const auto cw = compressedDrag(ws);
    DecompressionPipeline pipe(EngineKind::IntDctW, ws,
                               cw.worstCaseWindowWords());
    core::Decompressor dec;
    for (const auto *ch : {&cw.i, &cw.q}) {
        pipe.load(*ch);
        const auto hw = streamLoaded(pipe);
        const auto sw =
            dec.decompressChannel(*ch, "int-dct");
        ASSERT_EQ(hw.samples.size(), sw.size());
        for (std::size_t k = 0; k < sw.size(); ++k)
            ASSERT_EQ(dsp::IntDct::dequantize(hw.samples[k]), sw[k])
                << "ws=" << ws << " k=" << k;
    }
}

TEST_P(PipelineWs, ThroughputApproachesWindowSize)
{
    const std::size_t ws = GetParam();
    const auto cw = compressedDrag(ws);
    DecompressionPipeline pipe(EngineKind::IntDctW, ws,
                               cw.worstCaseWindowWords());
    pipe.load(cw.i);
    const auto r = streamLoaded(pipe);
    // Steady-state throughput is one window per cycle; fill latency
    // costs a few cycles, which a short 144-sample pulse feels most
    // at WS=32 (5 windows + 3 fill cycles).
    EXPECT_GT(r.stats.samplesPerCycle(),
              0.5 * static_cast<double>(ws));
}

INSTANTIATE_TEST_SUITE_P(AllWindowSizes, PipelineWs,
                         ::testing::Values(4, 8, 16, 32));

TEST(Pipeline, AdaptiveBypassSkipsIdct)
{
    core::CompressorConfig cfg{"int-dct", 16, 1e-3};
    const core::AdaptiveCompressor acomp(cfg);
    const auto wf = waveform::gaussianSquare(1360, 200, 0.12, 0.0);
    const auto ac = acomp.compress(wf);
    ASSERT_TRUE(ac.i.isAdaptive());

    // Generous width: the fixed-threshold ramps may exceed 3 words.
    DecompressionPipeline pipe(EngineKind::IntDctW, 16, 16);
    const auto result = streamAdaptive(pipe, ac.i);
    EXPECT_GT(result.stats.bypassSamples, 800u);
    EXPECT_EQ(result.stats.bypassSamples, ac.i.bypassSamples());
    // Only ramp windows touched the IDCT engine.
    EXPECT_LT(result.stats.idctWindows, ac.i.numWindows());
    // Decoded samples match the software decoder (the golden model).
    const core::Decompressor dec;
    const auto golden = dec.decompressChannel(ac.i, ac.codec);
    ASSERT_EQ(result.samples.size(), golden.size());
    for (std::size_t k = 0; k < golden.size(); ++k)
        EXPECT_NEAR(dsp::IntDct::dequantize(result.samples[k]),
                    golden[k], 1e-12);
}

TEST(Pipeline, StreamAdaptiveHandlesPlainChannels)
{
    // A channel the segmenter left plain streams identically through
    // streamAdaptiveInto and the load()+streamInto() path.
    core::CompressorConfig cfg{"int-dct", 16, 1e-3};
    const core::Compressor comp(cfg);
    const auto cw = comp.compress(waveform::drag(144, 36.0, 0.2, 1.2));
    DecompressionPipeline a(EngineKind::IntDctW, 16, 16);
    DecompressionPipeline b(EngineKind::IntDctW, 16, 16);
    const auto viaAdaptive = streamAdaptive(a, cw.i);
    b.load(cw.i);
    const auto direct = streamLoaded(b);
    EXPECT_EQ(viaAdaptive.samples, direct.samples);
    EXPECT_EQ(viaAdaptive.stats.bypassSamples, 0u);
    EXPECT_EQ(viaAdaptive.stats.idctWindows,
              direct.stats.idctWindows);
}

// ------------------------------------------------------------ controller

class ControllerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dev_ = waveform::DeviceModel::ibm("guadalupe");
        lib_ = waveform::PulseLibrary::build(dev_);
        core::FidelityAwareConfig cfg;
        cfg.base.codec = "int-dct";
        cfg.base.windowSize = 16;
        clib_ = compileSerial(cfg);
    }

    /** The serial single-codec compile: one worker, no per-channel
     *  planning. */
    core::CompressedLibrary
    compileSerial(const core::FidelityAwareConfig &cfg) const
    {
        return core::LibraryCompiler({.fidelity = cfg,
                                      .workers = 1,
                                      .planPerChannel = false})
            .compile(lib_)
            .library;
    }

    waveform::DeviceModel dev_ = waveform::DeviceModel::ibm("bogota");
    waveform::PulseLibrary lib_;
    core::CompressedLibrary clib_;
};

TEST_F(ControllerTest, QubitCapacityMatchesTableV)
{
    ControllerConfig uc;
    uc.compressed = false;
    const Controller base(uc);
    ControllerConfig cc;
    cc.compressed = true;
    cc.windowSize = 16;
    cc.memoryWidth = 3;
    EXPECT_NO_THROW(Controller::validateLibrary(cc, clib_));
    const Controller comp(cc);
    // ratio 16: uncompressed 16 banks/channel; compressed 3.
    EXPECT_EQ(base.banksPerChannel(), 16u);
    EXPECT_EQ(comp.banksPerChannel(), 3u);
    const double gain =
        static_cast<double>(comp.maxConcurrentQubits()) /
        static_cast<double>(base.maxConcurrentQubits());
    EXPECT_NEAR(gain, 16.0 / 3.0, 0.15);
}

TEST_F(ControllerTest, PlayGateMatchesGoldenDecode)
{
    ControllerConfig cc;
    cc.compressed = true;
    cc.windowSize = 16;
    cc.memoryWidth = clib_.worstCaseWindowWords();
    Controller::validateLibrary(cc, clib_);
    const Controller ctl(cc);
    const core::Decompressor dec;
    std::vector<std::int32_t> out;
    std::size_t played = 0;
    for (const auto &[id, e] : clib_.entries()) {
        out.assign(e.cw.i.numWindows() * cc.windowSize, 0);
        const auto stats = ctl.playGateInto(clib_, id, out);
        const auto golden = dec.decompressChannel(e.cw.i, e.cw.codec);
        ASSERT_EQ(stats.samplesOut, golden.size())
            << waveform::toString(id);
        for (std::size_t k = 0; k < golden.size(); ++k)
            ASSERT_EQ(out[k], dsp::IntDct::quantize(golden[k]))
                << waveform::toString(id) << " k=" << k;
        ++played;
    }
    EXPECT_EQ(played, lib_.size());
}

TEST_F(ControllerTest, RejectsWindowSizeMismatch)
{
    // Library compressed at WS=8, controller configured for WS=16: a
    // silent mismatch would stream garbage, so validation throws.
    core::FidelityAwareConfig fcfg;
    fcfg.base.codec = "int-dct";
    fcfg.base.windowSize = 8;
    const auto clib8 = compileSerial(fcfg);
    ControllerConfig cc;
    cc.compressed = true;
    cc.windowSize = 16;
    cc.memoryWidth = clib8.worstCaseWindowWords();
    EXPECT_THROW(Controller::validateLibrary(cc, clib8),
                 std::invalid_argument);
}

TEST_F(ControllerTest, RejectsNonIntegerCodec)
{
    core::FidelityAwareConfig fcfg;
    fcfg.base.codec = "dct-w";
    fcfg.base.windowSize = 16;
    const auto float_lib = compileSerial(fcfg);
    ControllerConfig cc;
    cc.compressed = true;
    cc.windowSize = 16;
    cc.memoryWidth = 16;
    EXPECT_THROW(Controller::validateLibrary(cc, float_lib),
                 std::invalid_argument);
}

TEST_F(ControllerTest, RejectsOverflowingMemoryWidth)
{
    ControllerConfig cc;
    cc.compressed = true;
    cc.windowSize = 16;
    cc.memoryWidth = 1; // guadalupe needs more words per window
    EXPECT_THROW(Controller::validateLibrary(cc, clib_),
                 std::invalid_argument);
}

TEST_F(ControllerTest, UncompressedModeSkipsLibraryValidation)
{
    // The baseline controller never touches the compressed payload,
    // so a mismatched library is acceptable there.
    core::FidelityAwareConfig fcfg;
    fcfg.base.codec = "dct-w";
    fcfg.base.windowSize = 8;
    const auto float_lib = compileSerial(fcfg);
    ControllerConfig uc;
    uc.compressed = false;
    EXPECT_NO_THROW(Controller::validateLibrary(uc, float_lib));
}

TEST_F(ControllerTest, ExecuteEmptyScheduleIsZeroAndFeasible)
{
    ControllerConfig cc;
    cc.compressed = true;
    cc.windowSize = 16;
    cc.memoryWidth = clib_.worstCaseWindowWords();
    const Controller ctl(cc);
    const auto stats = ctl.execute(circuits::Schedule{}, clib_);
    EXPECT_EQ(stats.peakBanks, 0u);
    EXPECT_EQ(stats.peakChannels, 0);
    EXPECT_TRUE(stats.feasible);
    EXPECT_EQ(stats.totalSamples, 0u);
    EXPECT_EQ(stats.totalWordsRead, 0u);
    EXPECT_EQ(stats.missingGates, 0u);
    EXPECT_DOUBLE_EQ(stats.peakBandwidthBytesPerSec, 0.0);
}

TEST_F(ControllerTest, ExecuteCountsGatesMissingFromLibrary)
{
    ControllerConfig cc;
    cc.compressed = true;
    cc.windowSize = 16;
    cc.memoryWidth = clib_.worstCaseWindowWords();
    const Controller ctl(cc);

    circuits::Circuit c(16);
    c.x(0);
    c.cx(0, 9); // (0, 9) is not a guadalupe coupler: no CX waveform
    const auto stats = ctl.execute(circuits::schedule(c, {}), clib_);
    EXPECT_EQ(stats.missingGates, 1u);
    // The played X still contributes sane demand.
    EXPECT_EQ(stats.peakChannels, cc.channelsPerQubit);
    EXPECT_GT(stats.totalSamples, 0u);
    EXPECT_TRUE(stats.feasible);
}

TEST_F(ControllerTest, ExecuteReportsInfeasibleBankBudget)
{
    ControllerConfig cc;
    cc.compressed = true;
    cc.windowSize = 16;
    cc.memoryWidth = clib_.worstCaseWindowWords();
    cc.totalBrams = 4; // below even one channel pair's banks
    const Controller ctl(cc);

    circuits::Circuit c(4);
    for (int q = 0; q < 4; ++q)
        c.x(q); // four concurrent drives
    const auto stats = ctl.execute(circuits::schedule(c, {}), clib_);
    EXPECT_FALSE(stats.feasible);
    EXPECT_GT(stats.peakBanks, cc.totalBrams);
    EXPECT_EQ(stats.peakChannels, 4 * cc.channelsPerQubit);
    EXPECT_EQ(stats.missingGates, 0u);
}

TEST_F(ControllerTest, ExecuteSurfaceCodeSchedule)
{
    const auto sc = circuits::surface17();
    // Controller of the patch: compress the patch's own library.
    // Reuse guadalupe pulses by mapping: the schedule only needs
    // bank/bandwidth accounting, which depends on gate type.
    const auto sched = circuits::schedule(sc.circuit, {});
    ControllerConfig cc;
    cc.compressed = true;
    cc.windowSize = 16;
    cc.memoryWidth = 3;
    const Controller ctl(cc);
    // Surface-17 uses qubits beyond guadalupe's library, so only run
    // the static capacity check here.
    EXPECT_GE(ctl.maxConcurrentQubits(), sc.totalQubits());
}

// ---------------------------------------------------------------- timing

TEST(Timing, BaselineIs294MHz)
{
    const auto t = baselineTiming();
    EXPECT_NEAR(t.fmaxMhz, 294.0, 1.0);
    EXPECT_DOUBLE_EQ(t.normalized, 1.0);
}

TEST(Timing, Figure16Ordering)
{
    const double dctw8 =
        engineTiming(EngineKind::DctW, 8).normalized;
    const double int8 =
        engineTiming(EngineKind::IntDctW, 8).normalized;
    const double int16 =
        engineTiming(EngineKind::IntDctW, 16).normalized;
    const double int32 =
        engineTiming(EngineKind::IntDctW, 32).normalized;
    // Multiplier path is much worse than shift-add.
    EXPECT_LT(dctw8, 0.75);
    // int-DCT-W: ~10% worst-case degradation, growing with WS.
    EXPECT_GT(int8, 0.85);
    EXPECT_GE(int8, int16);
    EXPECT_GT(int16, int32);
    EXPECT_GT(int32, 0.75);
}

TEST(Timing, PipeliningRestoresBaseline)
{
    const auto t = engineTiming(EngineKind::IntDctW, 16, true);
    EXPECT_DOUBLE_EQ(t.normalized, 1.0);
}

// -------------------------------------------------------------- resources

TEST(Resources, EngineScalesWithWindowSize)
{
    const auto r8 = engineResources(EngineKind::IntDctW, 8);
    const auto r16 = engineResources(EngineKind::IntDctW, 16);
    const auto r32 = engineResources(EngineKind::IntDctW, 32);
    EXPECT_LT(r8.luts, r16.luts);
    EXPECT_LT(r16.luts, r32.luts);
    EXPECT_LT(r8.ffs, r16.ffs);
    // WS=32 is the resource cliff of Section VII-C.
    EXPECT_GT(r32.luts, 4 * r16.luts - r16.luts / 2);
}

TEST(Resources, EngineIsSmallVsBaseline)
{
    const auto base = baselineResources();
    const auto r16 = engineResources(EngineKind::IntDctW, 16);
    EXPECT_LT(r16.luts, base.luts);
    EXPECT_LT(r16.ffs, base.ffs);
    // Under ~1% of the SoC.
    EXPECT_LT(lutPercent(r16), 1.5);
    EXPECT_LT(ffPercent(r16), 0.5);
}

// ---------------------------------------------------------------- scaling

TEST(Scaling, PerQubitMemoryMatchesTableI)
{
    // IBM ~18 KB, Google ~3 KB (Table I's rightmost column).
    const double ibm = memoryPerQubitBytes(VendorParams::ibm());
    const double google = memoryPerQubitBytes(VendorParams::google());
    EXPECT_NEAR(ibm / 1024.0, 18.0, 3.0);
    EXPECT_NEAR(google / 1024.0, 3.0, 1.0);
}

TEST(Scaling, CapacityScalesLinearly)
{
    const auto p = VendorParams::ibm();
    EXPECT_NEAR(memoryCapacityBytes(p, 100),
                100 * memoryPerQubitBytes(p), 1e-6);
}

TEST(Scaling, Figure5dFiveFoldDrop)
{
    const RfsocPlatform rf;
    const auto cap = capacityConstrainedQubits(rf, VendorParams::ibm());
    const auto bw = bandwidthConstrainedQubits(rf);
    EXPECT_GT(cap, 200u);
    EXPECT_LT(bw, 40u);
    EXPECT_GT(static_cast<double>(cap) / bw, 5.0);
}

TEST(Scaling, TableVGains)
{
    const RfsocPlatform rf;
    EXPECT_NEAR(qubitGain(rf, 8, 3), 2.66, 0.15);
    EXPECT_NEAR(qubitGain(rf, 16, 3), 5.33, 0.15);
}

TEST(Scaling, BanksPerChannelGeometry)
{
    const RfsocPlatform rf; // ratio 16
    EXPECT_EQ(banksPerChannel(rf, false, 16, 3), 16u);
    EXPECT_EQ(banksPerChannel(rf, true, 16, 3), 3u);
    // WS=8 needs two 8-point pipelines at ratio 16 (Section V-C).
    EXPECT_EQ(banksPerChannel(rf, true, 8, 3), 6u);
}

TEST(Scaling, NonMultipleClockRatioLowersGain)
{
    // Section V-C's example: ratio 6 with WS=8 gives ~2x, less than
    // the 8/3 = 2.66x of a ratio-8 system.
    RfsocPlatform rf;
    rf.clockRatio = 6;
    const double gain = qubitGain(rf, 8, 3);
    EXPECT_NEAR(gain, 2.0, 0.1);
}

} // namespace
} // namespace compaqt::uarch
