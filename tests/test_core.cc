/**
 * @file
 * Unit and property tests for the COMPAQT core: compression round
 * trips and distortion bounds for every codec, channel equalization,
 * Algorithm 1 behaviour, adaptive flat-top compression, and the
 * compressed-library build/serialization path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "core/adaptive.hh"
#include "core/compressed_library.hh"
#include "core/compressor.hh"
#include "core/decompressor.hh"
#include "core/fidelity_aware.hh"
#include "core/library_compiler.hh"
#include "dsp/metrics.hh"
#include "dsp/simd.hh"
#include "telemetry/metrics.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"
#include "waveform/shapes.hh"

namespace compaqt::core
{
namespace
{

waveform::IqWaveform
testDrag()
{
    return waveform::drag(144, 36.0, 0.2, 1.2);
}

waveform::IqWaveform
testFlatTop()
{
    return waveform::gaussianSquare(1360, 200, 0.12, 0.15);
}

// ------------------------------------------------------------ compressor

class CodecParam
    : public ::testing::TestWithParam<
          std::tuple<const char *, std::size_t>>
{
};

TEST_P(CodecParam, RoundTripMseIsBounded)
{
    const auto [codec, ws] = GetParam();
    CompressorConfig cfg{codec, ws, 1e-3};
    const Compressor comp(cfg);
    const auto wf = testDrag();
    const double err = roundTripMse(comp, wf);
    EXPECT_LT(err, 1e-4) << codec << " ws=" << ws;
}

TEST_P(CodecParam, RatioAtLeastOneOnSmoothPulses)
{
    const auto [codec, ws] = GetParam();
    CompressorConfig cfg{codec, ws, 1e-3};
    const Compressor comp(cfg);
    EXPECT_GE(comp.compress(testDrag()).ratio(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, CodecParam,
    ::testing::Values(std::tuple{"dct-n", std::size_t{16}},
                      std::tuple{"dct-w", std::size_t{8}},
                      std::tuple{"dct-w", std::size_t{16}},
                      std::tuple{"int-dct", std::size_t{8}},
                      std::tuple{"int-dct", std::size_t{16}},
                      std::tuple{"int-dct", std::size_t{32}}));

TEST(Compressor, ZeroThresholdIsNearLossless)
{
    CompressorConfig cfg{"int-dct", 16, 0.0};
    const Compressor comp(cfg);
    const auto wf = testDrag();
    // Quantization + integer transform rounding only.
    EXPECT_LT(roundTripMse(comp, wf), 1e-7);
}

TEST(Compressor, HigherThresholdCompressesMore)
{
    const auto wf = testFlatTop();
    double prev_ratio = 0.0;
    for (double thr : {1e-4, 1e-3, 1e-2}) {
        CompressorConfig cfg{"int-dct", 16, thr};
        const Compressor comp(cfg);
        const double r = comp.compress(wf).ratio();
        EXPECT_GE(r, prev_ratio);
        prev_ratio = r;
    }
}

TEST(Compressor, ChannelsShareWindowCounts)
{
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const Compressor comp(cfg);
    const auto cw = comp.compress(testDrag());
    ASSERT_EQ(cw.i.windows.size(), cw.q.windows.size());
    for (std::size_t w = 0; w < cw.i.windows.size(); ++w)
        EXPECT_EQ(cw.i.windows[w].words(), cw.q.windows[w].words())
            << "window " << w;
}

TEST(Compressor, WindowInvariantPrefixPlusZeros)
{
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const Compressor comp(cfg);
    const auto cw = comp.compress(testFlatTop());
    for (const auto *ch : {&cw.i, &cw.q})
        for (const auto &w : ch->windows)
            EXPECT_EQ(w.prefixSize() + w.zeros, 16u);
}

TEST(Compressor, DctNUsesSingleWindow)
{
    CompressorConfig cfg{"dct-n", 0, 1e-3};
    const Compressor comp(cfg);
    const auto cw = comp.compress(testDrag());
    EXPECT_EQ(cw.i.windows.size(), 1u);
    EXPECT_EQ(cw.windowSize, 144u);
}

TEST(Compressor, DeltaCodecRoundTrip)
{
    CompressorConfig cfg{"delta", 0, 0.0};
    const Compressor comp(cfg);
    const auto wf = testDrag();
    const auto cw = comp.compress(wf);
    Decompressor dec;
    const auto rt = dec.decompress(cw);
    EXPECT_LT(dsp::mse(wf.i, rt.i), 1e-8);
    EXPECT_LT(dsp::mse(wf.q, rt.q), 1e-8);
    EXPECT_GT(cw.ratio(), 0.9);
}

TEST(Compressor, GaussianSquareBeatsDragCompression)
{
    // 2Q/readout flat-tops are longer and smoother than DRAG 1Q
    // pulses (Section IV-D's observation about qft-4).
    CompressorConfig cfg{"int-dct", 16, 2e-3};
    const Compressor comp(cfg);
    EXPECT_GT(comp.compress(testFlatTop()).ratio(),
              comp.compress(testDrag()).ratio());
}

TEST(Compressor, RejectsBadIntWindowSize)
{
    CompressorConfig cfg{"int-dct", 12, 1e-3};
    EXPECT_DEATH({ Compressor comp(cfg); }, "window size");
}

// ---------------------------------------------------------- decompressor

TEST(Decompressor, ExpandWindowReconstructsLayout)
{
    CompressedWindow w;
    w.icoeffs = {100, -50};
    w.zeros = 14;
    std::vector<std::int32_t> full(16, -1);
    Decompressor::expandWindowIntInto(w, full);
    ASSERT_EQ(full.size(), 16u);
    EXPECT_EQ(full[0], 100);
    EXPECT_EQ(full[1], -50);
    for (std::size_t i = 2; i < 16; ++i)
        EXPECT_EQ(full[i], 0);
}

TEST(Decompressor, PreservesOriginalLength)
{
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const Compressor comp(cfg);
    // 150 samples: the last window is padded; decode must trim.
    waveform::IqWaveform wf;
    wf.i = waveform::liftedGaussian(150, 40.0, 0.2);
    wf.q.assign(150, 0.0);
    Decompressor dec;
    const auto rt = dec.decompress(comp.compress(wf));
    EXPECT_EQ(rt.i.size(), 150u);
    EXPECT_EQ(rt.q.size(), 150u);
}

// -------------------------------------------------------- fidelity-aware

TEST(FidelityAware, MeetsMseTarget)
{
    FidelityAwareConfig cfg;
    cfg.base.codec = "int-dct";
    cfg.base.windowSize = 16;
    cfg.targetMse = 1e-6;
    const auto r = compressFidelityAware(testDrag(), cfg);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.mse, 1e-6);
    EXPECT_GT(r.iterations, 0);
}

TEST(FidelityAware, TighterTargetCompressesLess)
{
    FidelityAwareConfig loose, tight;
    loose.base.codec = tight.base.codec = "int-dct";
    loose.base.windowSize = tight.base.windowSize = 16;
    loose.targetMse = 1e-5;
    tight.targetMse = 1e-8;
    const auto wf = testDrag();
    const auto rl = compressFidelityAware(wf, loose);
    const auto rt = compressFidelityAware(wf, tight);
    EXPECT_GE(rl.compressed.ratio(), rt.compressed.ratio());
    EXPECT_LE(rt.mse, 1e-8);
}

TEST(FidelityAware, ThresholdHalvesUntilConverged)
{
    FidelityAwareConfig cfg;
    cfg.base.codec = "int-dct";
    cfg.base.windowSize = 16;
    cfg.targetMse = 1e-7;
    cfg.initialThreshold = 0.05;
    const auto r = compressFidelityAware(testDrag(), cfg);
    // Returned threshold is initial / 2^(iterations-1).
    EXPECT_NEAR(r.threshold,
                0.05 / std::ldexp(1.0, r.iterations - 1), 1e-12);
}

TEST(FidelityAware, ImpossibleTargetReportsNonConvergence)
{
    FidelityAwareConfig cfg;
    cfg.base.codec = "int-dct";
    cfg.base.windowSize = 16;
    // Below the integer quantization floor: unreachable.
    cfg.targetMse = 1e-14;
    const auto r = compressFidelityAware(testDrag(), cfg);
    EXPECT_FALSE(r.converged);
    EXPECT_GT(r.mse, 1e-14);
}

// -------------------------------------------------------------- adaptive

TEST(Adaptive, FlatTopSplitsIntoThreeSegments)
{
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const AdaptiveCompressor comp(cfg);
    const auto ac = comp.compress(testFlatTop());
    ASSERT_EQ(ac.i.segments.size(), 3u);
    EXPECT_FALSE(ac.i.segments[0].isFlat);
    EXPECT_TRUE(ac.i.segments[1].isFlat);
    EXPECT_FALSE(ac.i.segments[2].isFlat);
}

TEST(Adaptive, RoundTripMatchesOriginal)
{
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const AdaptiveCompressor comp(cfg);
    const auto wf = testFlatTop();
    const auto ac = comp.compress(wf);
    const Decompressor dec;
    const auto rt = dec.decompress(ac);
    EXPECT_LT(dsp::mse(wf.i, rt.i), 1e-5);
    EXPECT_LT(dsp::mse(wf.q, rt.q), 1e-5);
    EXPECT_EQ(rt.i.size(), wf.i.size());
}

TEST(Adaptive, WindowDecodeMatchesChannelDecode)
{
    // The window-level adaptive path (what the runtime cache uses)
    // must slice exactly like the whole-channel decode.
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const AdaptiveCompressor comp(cfg);
    const auto ac = comp.compress(testFlatTop());
    ASSERT_TRUE(ac.i.isAdaptive());
    const Decompressor dec;
    const auto golden = dec.decompressChannel(ac.i, ac.codec);
    std::vector<double> window(16);
    std::vector<double> assembled;
    for (std::size_t w = 0; w < ac.i.numWindows(); ++w) {
        const auto n = dec.decompressWindowInto(ac.i, ac.codec, w,
                                                window);
        assembled.insert(assembled.end(), window.begin(),
                         window.begin() +
                             static_cast<std::ptrdiff_t>(n));
    }
    EXPECT_EQ(assembled, golden);
}

TEST(Adaptive, BatchDecodeMatchesWindowDecodeAcrossBackends)
{
    // The Decompressor batch face must split an adaptive channel at
    // segment boundaries (flat runs -> constant fill, ramp runs ->
    // one codec batch) and still reassemble bit-identically to the
    // per-window path, at every batch size and on every supported
    // SIMD backend (the adaptive channel is integer-codec backed, so
    // backend identity is exact). Each batch call must also tick the
    // decode.kernel telemetry counters.
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const AdaptiveCompressor comp(cfg);
    const auto ac = comp.compress(testFlatTop());
    ASSERT_TRUE(ac.i.isAdaptive());
    const Decompressor dec;
    const std::size_t nwin = ac.i.numWindows();

    std::vector<double> golden;
    std::vector<double> window(16);
    for (std::size_t w = 0; w < nwin; ++w) {
        const auto n =
            dec.decompressWindowInto(ac.i, ac.codec, w, window);
        golden.insert(golden.end(), window.begin(),
                      window.begin() +
                          static_cast<std::ptrdiff_t>(n));
    }

    auto &batches =
        telemetry::Registry::global().counter("decode.kernel.batches");
    auto &windows =
        telemetry::Registry::global().counter("decode.kernel.windows");
    const auto batches0 = batches.value();
    const auto windows0 = windows.value();

    for (const std::size_t k : {std::size_t{1}, std::size_t{3},
                                std::size_t{8}, nwin}) {
        std::vector<double> assembled(golden.size(), -7.0);
        std::size_t written = 0;
        for (std::size_t w = 0; w < nwin;) {
            const std::size_t run = std::min(k, nwin - w);
            written += dec.decodeWindowsInto(
                ac.i, ac.codec, w, run,
                SampleSpan(assembled).subspan(written));
            w += run;
        }
        ASSERT_EQ(written, golden.size());
        ASSERT_EQ(assembled, golden) << "k=" << k;
    }
    EXPECT_GT(batches.value(), batches0);
    EXPECT_GE(windows.value(), windows0 + 4 * nwin);

    // Backend sweep: integer adaptive decode is bit-exact.
    const auto ambient = dsp::simd::activeBackend();
    for (dsp::simd::Backend b :
         {dsp::simd::Backend::Scalar, dsp::simd::Backend::Avx2,
          dsp::simd::Backend::Neon}) {
        if (!dsp::simd::backendSupported(b))
            continue;
        dsp::simd::setBackend(b);
        std::vector<double> out(golden.size(), -7.0);
        dec.decodeWindowsInto(ac.i, ac.codec, 0, nwin,
                              SampleSpan(out));
        EXPECT_EQ(out, golden)
            << "backend " << dsp::simd::backendName(b);
    }
    dsp::simd::setBackend(ambient);
}

TEST(Adaptive, BypassCoversTheFlatRegion)
{
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const AdaptiveCompressor comp(cfg);
    const auto ac = comp.compress(testFlatTop());
    // The 1360-sample pulse has ~960 flat samples; window alignment
    // keeps at least 900 of them on the bypass path.
    EXPECT_GT(ac.i.bypassSamples(), 900u);
    EXPECT_EQ(ac.i.bypassSamples() + ac.i.idctSamples(),
              16u * ((ac.i.idctSamples() / 16) +
                     ac.i.bypassSamples() / 16));
}

TEST(Adaptive, BeatsPlainCompressionOnFlatTops)
{
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const AdaptiveCompressor acomp(cfg);
    const Compressor comp(cfg);
    const auto wf = testFlatTop();
    EXPECT_GT(acomp.compress(wf).ratio(),
              comp.compress(wf).ratio());
}

TEST(Adaptive, PureGaussianStaysPlain)
{
    // No qualifying flat run: the plain windowed representation is
    // returned unchanged, so planners can test isAdaptive().
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const AdaptiveCompressor comp(cfg);
    const auto ac = comp.compress(testDrag());
    EXPECT_FALSE(ac.i.isAdaptive());
    EXPECT_FALSE(ac.q.isAdaptive());
    EXPECT_EQ(ac.i.bypassSamples(), 0u);
    EXPECT_FALSE(ac.i.windows.empty());
}

// ---------------------------------------------------- compressed library

TEST(CompressedLibrary, BuildCoversAllGates)
{
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    FidelityAwareConfig cfg;
    cfg.base.codec = "int-dct";
    cfg.base.windowSize = 16;
    const auto clib = LibraryCompiler({.fidelity = cfg,
                                       .workers = 1,
                                       .planPerChannel = false})
                          .compile(lib)
                          .library;
    EXPECT_EQ(clib.size(), lib.size());
    for (const auto &[id, wf] : lib.entries()) {
        ASSERT_TRUE(clib.contains(id));
        EXPECT_TRUE(clib.entry(id).converged);
    }
}

TEST(CompressedLibrary, PaperOperatingPoint)
{
    // The headline numbers of Section VII-A at the default target:
    // worst window <= 3 words, per-gate R in [5.33-ish, 8.3].
    const auto dev = waveform::DeviceModel::ibm("guadalupe");
    const auto lib = waveform::PulseLibrary::build(dev);
    FidelityAwareConfig cfg;
    cfg.base.codec = "int-dct";
    cfg.base.windowSize = 16;
    const auto clib = LibraryCompiler({.fidelity = cfg,
                                       .workers = 1,
                                       .planPerChannel = false})
                          .compile(lib)
                          .library;
    EXPECT_LE(clib.worstCaseWindowWords(), 3u);
    const auto rs = clib.ratios();
    const double min_r = *std::min_element(rs.begin(), rs.end());
    const double max_r = *std::max_element(rs.begin(), rs.end());
    EXPECT_GT(min_r, 4.5);
    EXPECT_LT(max_r, 9.0);
    EXPECT_GT(clib.ratio(), 5.0);
}

TEST(CompressedLibrary, SerializationRoundTrips)
{
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    FidelityAwareConfig cfg;
    cfg.base.codec = "int-dct";
    cfg.base.windowSize = 16;
    auto clib = LibraryCompiler({.fidelity = cfg,
                                 .workers = 1,
                                 .planPerChannel = false})
                    .compile(lib)
                    .library;
    // The calibration-epoch stamp rides the container format (v5+).
    clib.setVersion(42);

    std::stringstream ss;
    clib.save(ss);
    const auto loaded = CompressedLibrary::load(ss);
    ASSERT_EQ(loaded.size(), clib.size());
    EXPECT_EQ(loaded.version(), 42u);

    Decompressor dec;
    for (const auto &[id, e] : clib.entries()) {
        ASSERT_TRUE(loaded.contains(id));
        const auto &l = loaded.entry(id);
        EXPECT_DOUBLE_EQ(l.threshold, e.threshold);
        EXPECT_DOUBLE_EQ(l.mse, e.mse);
        // Decoded waveforms are bit-identical.
        const auto a = dec.decompress(e.cw);
        const auto b = dec.decompress(l.cw);
        EXPECT_EQ(a.i, b.i);
        EXPECT_EQ(a.q, b.q);
    }
}

TEST(CompressedLibrary, LoadRejectsGarbage)
{
    std::stringstream ss;
    ss << "not a compressed library";
    EXPECT_DEATH({ auto l = CompressedLibrary::load(ss); }, "magic");
}

// -------------------------------------------------- library compile plane

/** A small flat-top-heavy device library: CR-style CX pulses with a
 *  long constant middle plus DRAG 1Q gates. */
waveform::PulseLibrary
flatTopHeavyLibrary()
{
    waveform::PulseLibrary lib;
    for (int q = 0; q < 3; ++q) {
        lib.insert({waveform::GateType::X, q, -1},
                   waveform::drag(160, 40.0, 0.15 + 0.01 * q, 0.8));
        lib.insert({waveform::GateType::CX, q, q + 1},
                   waveform::gaussianSquare(1360, 200,
                                            0.10 + 0.01 * q, 0.12));
    }
    // A mixed-representation gate: flat-top I, Hann Q with no flat
    // run — the planner must be able to ship I adaptive and Q plain.
    waveform::IqWaveform mixed =
        waveform::gaussianSquare(1360, 200, 0.11, 0.0);
    mixed.q = waveform::raisedCosine(1360, 0.08);
    lib.insert({waveform::GateType::Measure, 0, -1},
               std::move(mixed));
    return lib;
}

LibraryCompilerConfig
compilerConfig(bool plan, int workers)
{
    LibraryCompilerConfig cfg;
    cfg.fidelity.base.codec = "int-dct";
    cfg.fidelity.base.windowSize = 16;
    cfg.planPerChannel = plan;
    cfg.workers = workers;
    return cfg;
}

std::string
serialized(const CompressedLibrary &lib)
{
    std::stringstream ss;
    lib.save(ss);
    return ss.str();
}

TEST(LibraryCompiler, WorkerCountDoesNotChangeTheLibrary)
{
    const auto lib = flatTopHeavyLibrary();
    const auto one =
        LibraryCompiler(compilerConfig(true, 1)).compile(lib);
    const auto eight =
        LibraryCompiler(compilerConfig(true, 8)).compile(lib);
    // Bit-identical serialized bytes, not just equal stats.
    EXPECT_EQ(serialized(one.library), serialized(eight.library));
    EXPECT_EQ(one.stats.plannedWords, eight.stats.plannedWords);
    EXPECT_EQ(one.stats.adaptiveChannels,
              eight.stats.adaptiveChannels);
    EXPECT_EQ(eight.stats.workers, 8);
}

TEST(LibraryCompiler, PerChannelPlanningSavesWordsOnFlatTops)
{
    const auto lib = flatTopHeavyLibrary();
    const auto plain =
        LibraryCompiler(compilerConfig(false, 1)).compile(lib);
    const auto planned =
        LibraryCompiler(compilerConfig(true, 2)).compile(lib);

    // Planning never runs when disabled...
    EXPECT_EQ(plain.stats.adaptiveChannels, 0u);
    EXPECT_EQ(plain.stats.plannedWords, plain.stats.windowCodecWords);
    // ...and on a flat-top-heavy library it ships adaptive channels
    // that cost strictly fewer memory words.
    EXPECT_GT(planned.stats.adaptiveChannels, 0u);
    EXPECT_LT(planned.stats.plannedWords,
              plain.stats.plannedWords);
    EXPECT_GT(planned.stats.wordsSavedFraction(), 0.0);

    // Every shipped representation still meets the MSE target.
    Decompressor dec;
    for (const auto &[id, e] : planned.library.entries()) {
        const auto &wf = lib.waveform(id);
        const auto rt = dec.decompress(e.cw);
        const double worst =
            std::max(dsp::mse(wf.i, rt.i), dsp::mse(wf.q, rt.q));
        EXPECT_LE(worst, compilerConfig(true, 1).fidelity.targetMse)
            << waveform::toString(id);
        EXPECT_NEAR(e.mse, worst, 1e-12);
        // When exactly one channel ships adaptively, the surviving
        // plain channel must have shed its equalization padding:
        // no explicit trailing zeros left in any window prefix.
        if (e.cw.i.isAdaptive() != e.cw.q.isAdaptive()) {
            const auto &plainCh =
                e.cw.i.isAdaptive() ? e.cw.q : e.cw.i;
            for (const auto &w : plainCh.windows)
                if (!w.icoeffs.empty())
                    EXPECT_NE(w.icoeffs.back(), 0)
                        << waveform::toString(id);
        }
    }
    // The fixture's Measure gate exists to pin the mixed case down.
    const auto &mixed =
        planned.library.entry({waveform::GateType::Measure, 0, -1});
    EXPECT_TRUE(mixed.cw.i.isAdaptive());
    EXPECT_FALSE(mixed.cw.q.isAdaptive());
}

TEST(LibraryCompiler, PlanningIsANoOpForNonIntegerCodecs)
{
    auto cfg = compilerConfig(true, 2);
    cfg.fidelity.base.codec = "dct-w";
    const auto r = LibraryCompiler(cfg).compile(flatTopHeavyLibrary());
    EXPECT_EQ(r.stats.adaptiveChannels, 0u);
    EXPECT_EQ(r.stats.plannedWords, r.stats.windowCodecWords);
}

TEST(LibraryCompiler, PlannedLibrarySerializationRoundTrips)
{
    const auto lib = flatTopHeavyLibrary();
    const auto planned =
        LibraryCompiler(compilerConfig(true, 2)).compile(lib);
    ASSERT_GT(planned.stats.adaptiveChannels, 0u);

    std::stringstream ss;
    planned.library.save(ss);
    const auto loaded = CompressedLibrary::load(ss);
    ASSERT_EQ(loaded.size(), planned.library.size());
    // A second save produces the same bytes (stable v4 encoding)...
    EXPECT_EQ(serialized(loaded), serialized(planned.library));
    // ...and adaptive channels decode bit-identically after the trip.
    Decompressor dec;
    for (const auto &[id, e] : planned.library.entries()) {
        const auto a = dec.decompress(e.cw);
        const auto b = dec.decompress(loaded.entry(id).cw);
        EXPECT_EQ(a.i, b.i);
        EXPECT_EQ(a.q, b.q);
    }
}

// ------------------------------------------------ format v5 streams

/** Byte-level writers of the v5 container. */
template <typename T>
void
put(std::string &s, T v)
{
    s.append(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
void
putVector(std::string &s, const std::vector<T> &v)
{
    put<std::uint64_t>(s, v.size());
    if (!v.empty())
        s.append(reinterpret_cast<const char *>(v.data()),
                 v.size() * sizeof(T));
}

/** Magic, format version, calibration stamp and entry count. */
void
putHeader(std::string &s, std::uint64_t entries)
{
    put<std::uint32_t>(s, 0x43505154); // "CPQT"
    put<std::uint32_t>(s, 5);
    put<std::uint64_t>(s, 0); // calibration version stamp
    put<std::uint64_t>(s, entries);
}

/** Gate id, Algorithm-1 results, codec name and window size of one
 *  int-dct entry. */
void
putEntryHeader(std::string &s, std::uint8_t gate_type,
               std::int32_t q0, std::int32_t q1, double threshold,
               double mse)
{
    put<std::uint8_t>(s, gate_type);
    put<std::int32_t>(s, q0);
    put<std::int32_t>(s, q1);
    put<double>(s, threshold);
    put<double>(s, mse);
    put<std::uint8_t>(s, 1); // converged
    put<std::uint8_t>(s, 7); // codec name length
    s.append("int-dct");
    put<std::uint64_t>(s, 16); // waveform windowSize
}

/** An empty delta record with its checkpoint side index. */
void
putEmptyDelta(std::string &s)
{
    put<std::uint16_t>(s, 0); // base
    put<std::int32_t>(s, 0);  // deltaWidth
    put<std::uint64_t>(s, 0); // originalCount
    put<std::uint8_t>(s, 0);  // hasZeroCrossing
    putVector<std::int32_t>(s, {});
    put<std::uint64_t>(s, 0); // checkpointStride
    putVector<std::uint16_t>(s, {});
}

TEST(LibraryFormat, CorruptSegmentTrailerDiesLoudly)
{
    // A hostile stream whose flat segment claims a million samples
    // against a 32-sample channel must die at load — not as an
    // out-of-bounds write during playback.
    std::string s;
    putHeader(s, 1);
    putEntryHeader(s, 0 /* X */, 0, -1, 0.01, 1e-6);
    // I channel body: adaptive (no top-level windows).
    put<std::uint64_t>(s, 32); // numSamples
    put<std::uint64_t>(s, 16); // windowSize
    put<std::uint64_t>(s, 0);  // no windows
    putEmptyDelta(s);
    // Segment trailer: one flat segment with a hostile count.
    put<std::uint64_t>(s, 1);
    put<std::uint8_t>(s, 1);
    put<double>(s, 0.5);
    put<std::uint64_t>(s, 1000000);
    // Nested (empty) ramp body.
    put<std::uint64_t>(s, 0);
    put<std::uint64_t>(s, 0);
    put<std::uint64_t>(s, 0);
    putEmptyDelta(s);

    std::stringstream in(s);
    EXPECT_DEATH({ auto l = CompressedLibrary::load(in); },
                 "overrun");
}

TEST(LibraryFormat, LyingLengthFieldsDieTruncated)
{
    // A one-entry library whose channels hold one plain window; the
    // offsets of its u64 length fields are recorded as it is written.
    std::string s;
    std::vector<std::size_t> fields;
    putHeader(s, 1);
    putEntryHeader(s, 0 /* X */, 0, -1, 0.01, 1e-6);
    for (int ch = 0; ch < 2; ++ch) {
        put<std::uint64_t>(s, 16); // numSamples
        put<std::uint64_t>(s, 16); // windowSize
        fields.push_back(s.size());
        put<std::uint64_t>(s, 1); // window count
        fields.push_back(s.size());
        putVector<double>(s, {});
        fields.push_back(s.size());
        putVector<std::int32_t>(s, {812, -44});
        put<std::uint32_t>(s, 14); // zeros
        put<std::uint16_t>(s, 0);  // delta base
        put<std::int32_t>(s, 0);   // deltaWidth
        put<std::uint64_t>(s, 0);  // originalCount
        put<std::uint8_t>(s, 0);   // hasZeroCrossing
        fields.push_back(s.size());
        putVector<std::int32_t>(s, {});
        put<std::uint64_t>(s, 0); // checkpointStride
        fields.push_back(s.size());
        putVector<std::uint16_t>(s, {});
        fields.push_back(s.size());
        put<std::uint64_t>(s, 0); // segment count
    }
    {
        std::stringstream in(s);
        const auto lib = CompressedLibrary::load(in);
        EXPECT_EQ(lib.entry({waveform::GateType::X, 0, -1})
                      .cw.q.windows[0]
                      .icoeffs,
                  (std::vector<std::int32_t>{812, -44}));
    }

    // Each field in turn claims 2^40 (then 2^63) elements, with 64 KiB
    // of zeros behind the record: the reader grows its containers
    // only as elements arrive, so every such stream dies at its end
    // instead of allocating what the field claims.
    for (const std::uint64_t count : {std::uint64_t{1} << 40,
                                      std::uint64_t{1} << 63}) {
        for (const std::size_t at : fields) {
            std::string bad = s;
            std::memcpy(bad.data() + at, &count, sizeof(count));
            bad.append(std::size_t{1} << 16, '\0');
            std::stringstream in(bad);
            EXPECT_DEATH({ auto l = CompressedLibrary::load(in); },
                         "truncated compressed library stream")
                << "field at byte " << at << ", count " << count;
        }
    }
}

} // namespace
} // namespace compaqt::core
