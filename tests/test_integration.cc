/**
 * @file
 * End-to-end integration tests across modules: the full COMPAQT flow
 * (calibrate -> compress -> load -> stream -> drive qubits), fidelity
 * of compressed vs baseline circuits, and the RFSoC scalability
 * story.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "circuits/benchmarks.hh"
#include "circuits/scheduler.hh"
#include "circuits/surface_code.hh"
#include "circuits/transpiler.hh"
#include "core/compressed_library.hh"
#include "core/decompressor.hh"
#include "core/library_compiler.hh"
#include "fidelity/noise.hh"
#include "fidelity/pulse_sim.hh"
#include "fidelity/tvd.hh"
#include "uarch/controller.hh"
#include "uarch/pipeline.hh"
#include "uarch/scaling.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"

namespace compaqt
{
namespace
{

/** The serial single-codec compile: one worker, no per-channel
 *  planning. */
core::CompressedLibrary
compileSerial(const waveform::PulseLibrary &lib,
              const core::FidelityAwareConfig &cfg)
{
    return core::LibraryCompiler(
               {.fidelity = cfg, .workers = 1, .planPerChannel = false})
        .compile(lib)
        .library;
}

/** Shared compile step: guadalupe device, WS=16 int-DCT-W library. */
struct CompiledDevice
{
    waveform::DeviceModel dev = waveform::DeviceModel::ibm("guadalupe");
    waveform::PulseLibrary lib;
    core::CompressedLibrary clib;

    CompiledDevice()
    {
        lib = waveform::PulseLibrary::build(dev);
        core::FidelityAwareConfig cfg;
        cfg.base.codec = "int-dct";
        cfg.base.windowSize = 16;
        clib = compileSerial(lib, cfg);
    }
};

const CompiledDevice &
compiled()
{
    static const CompiledDevice cd;
    return cd;
}

TEST(Integration, EveryGatePulseStreamsBitExact)
{
    // Hardware pipeline output == software golden decode for the
    // whole library (both channels).
    const auto &cd = compiled();
    core::Decompressor dec;
    const std::size_t width = cd.clib.worstCaseWindowWords();
    for (const auto &[id, e] : cd.clib.entries()) {
        for (const auto *ch : {&e.cw.i, &e.cw.q}) {
            uarch::DecompressionPipeline pipe(
                uarch::EngineKind::IntDctW, 16, width);
            pipe.load(*ch);
            std::vector<std::int32_t> hw(pipe.numWindows() * 16);
            pipe.streamInto(hw);
            hw.resize(pipe.loadedSamples());
            const auto sw =
                dec.decompressChannel(*ch, "int-dct");
            ASSERT_EQ(hw.size(), sw.size());
            for (std::size_t k = 0; k < sw.size(); ++k)
                ASSERT_EQ(dsp::IntDct::dequantize(hw[k]), sw[k])
                    << waveform::toString(id) << " k=" << k;
        }
    }
}

TEST(Integration, DecompressedPulsesKeepGateErrorTiny)
{
    // Pulse-level: every decompressed gate is within 1e-4 average
    // gate error of its original (the Section IV-D claim that MSE at
    // the Algorithm-1 target does not hurt fidelity).
    const auto &cd = compiled();
    core::Decompressor dec;
    for (const auto &[id, e] : cd.clib.entries()) {
        const auto &orig = cd.lib.waveform(id);
        const auto rt = dec.decompress(e.cw);
        double err = 0.0;
        if (id.type == waveform::GateType::X)
            err = fidelity::pulseGateError(orig, rt, M_PI);
        else if (id.type == waveform::GateType::SX)
            err = fidelity::pulseGateError(orig, rt, M_PI / 2);
        else if (id.type == waveform::GateType::CX)
            err = fidelity::crGateError(orig, rt);
        else
            continue;
        // Coherent error well under the ~1e-2 stochastic gate noise
        // (matches the paper's <0.1% fidelity-degradation claim).
        EXPECT_LT(err, 3e-3) << waveform::toString(id);
    }
}

TEST(Integration, NormalizedCircuitFidelityNearOne)
{
    // The Fig 15 protocol on one benchmark: noisy baseline vs noisy
    // COMPAQT, same seeds; normalized fidelity ~ 1.
    const auto &cd = compiled();
    const circuits::CouplingMap map(cd.dev.numQubits(),
                                    cd.dev.coupling());
    const auto routed =
        circuits::transpile(circuits::swapBenchmark(), map);

    const auto ideal = fidelity::runIdeal(routed);
    const auto nm = fidelity::NoiseModel::ibm("guadalupe");
    const auto base_gs =
        fidelity::GateSet::fromLibrary(cd.dev, cd.lib);
    const auto comp_gs =
        fidelity::GateSet::fromCompressed(cd.dev, cd.lib, cd.clib);

    Rng rng_a(123), rng_b(123);
    const auto base =
        fidelity::runNoisy(routed, base_gs, nm, 300, rng_a);
    const auto comp =
        fidelity::runNoisy(routed, comp_gs, nm, 300, rng_b);
    const double fb = fidelity::fidelityTvd(ideal.distribution,
                                            base.distribution);
    const double fc = fidelity::fidelityTvd(ideal.distribution,
                                            comp.distribution);
    EXPECT_GT(fb, 0.5);
    EXPECT_NEAR(fc / fb, 1.0, 0.02);
}

TEST(Integration, ControllerSupportsFiveFoldMoreQubits)
{
    const auto &cd = compiled();
    uarch::ControllerConfig uc;
    uc.compressed = false;
    uarch::ControllerConfig cc;
    cc.compressed = true;
    cc.windowSize = 16;
    cc.memoryWidth = cd.clib.worstCaseWindowWords();
    EXPECT_NO_THROW(uarch::Controller::validateLibrary(cc, cd.clib));
    const uarch::Controller base(uc);
    const uarch::Controller comp(cc);
    EXPECT_GE(comp.maxConcurrentQubits(),
              5 * base.maxConcurrentQubits());
}

TEST(Integration, ScheduledCircuitFitsBankBudget)
{
    const auto &cd = compiled();
    const circuits::CouplingMap map(cd.dev.numQubits(),
                                    cd.dev.coupling());
    const auto routed = circuits::transpile(circuits::qft(4), map);
    const auto sched = circuits::schedule(routed, {});

    uarch::ControllerConfig cc;
    cc.compressed = true;
    cc.windowSize = 16;
    cc.memoryWidth = cd.clib.worstCaseWindowWords();
    const uarch::Controller ctl(cc);
    const auto stats = ctl.execute(sched, cd.clib);
    EXPECT_TRUE(stats.feasible);
    EXPECT_GT(stats.totalSamples, 0u);
    EXPECT_GT(stats.peakChannels, 0);
    // Compression means far fewer words than samples move.
    EXPECT_LT(stats.totalWordsRead, stats.totalSamples / 4);
}

TEST(Integration, SurfaceCodeConcurrencyMatchesPaperShape)
{
    // Fig 5c: surface codes keep avg close to peak; Fig 17a: peak
    // channels > 80% of the patch.
    for (const auto &sc :
         {circuits::surface17(), circuits::surface25()}) {
        const auto sched = circuits::schedule(sc.circuit, {});
        const auto prof = circuits::concurrency(sched);
        EXPECT_GT(prof.peakChannels,
                  static_cast<int>(0.8 * sc.totalQubits()));
        EXPECT_GT(prof.avgChannels, 0.4 * prof.peakChannels);
    }
}

TEST(Integration, SerializationSurvivesFullFlow)
{
    // Save -> load -> stream: identical hardware samples.
    const auto &cd = compiled();
    std::stringstream ss;
    cd.clib.save(ss);
    const auto loaded = core::CompressedLibrary::load(ss);

    const waveform::GateId id{waveform::GateType::CX, 0, 1};
    const std::size_t width = cd.clib.worstCaseWindowWords();
    uarch::DecompressionPipeline a(uarch::EngineKind::IntDctW, 16,
                                   width);
    uarch::DecompressionPipeline b(uarch::EngineKind::IntDctW, 16,
                                   width);
    a.load(cd.clib.entry(id).cw.i);
    b.load(loaded.entry(id).cw.i);
    std::vector<std::int32_t> sa(a.numWindows() * 16);
    std::vector<std::int32_t> sb(b.numWindows() * 16);
    a.streamInto(sa);
    b.streamInto(sb);
    sa.resize(a.loadedSamples());
    sb.resize(b.loadedSamples());
    EXPECT_EQ(sa, sb);
}

TEST(Integration, WindowSize8HasMoreBoundaryDistortion)
{
    // The Fig 15 WS=8 effect: same MSE targets, but WS=8 libraries
    // carry more boundary distortion per gate error than WS=16.
    const auto &cd = compiled();
    core::FidelityAwareConfig cfg8;
    cfg8.base.codec = "int-dct";
    cfg8.base.windowSize = 8;
    const auto clib8 = compileSerial(cd.lib, cfg8);
    core::Decompressor dec;
    double err8 = 0.0, err16 = 0.0;
    int n = 0;
    for (const auto &[id, e] : cd.clib.entries()) {
        if (id.type != waveform::GateType::X)
            continue;
        const auto &orig = cd.lib.waveform(id);
        err16 += fidelity::pulseGateError(
            orig, dec.decompress(e.cw), M_PI);
        err8 += fidelity::pulseGateError(
            orig, dec.decompress(clib8.entry(id).cw), M_PI);
        ++n;
    }
    EXPECT_GT(n, 0);
    // WS=8 is never better on average.
    EXPECT_GE(err8, err16 * 0.8);
}

} // namespace
} // namespace compaqt
