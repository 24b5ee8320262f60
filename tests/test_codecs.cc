/**
 * @file
 * Tests for the pluggable codec layer: CodecRegistry lookup and
 * validation, round-trip property tests iterating every registered
 * codec over window sizes and pulse shapes, the CompressionPipeline
 * facade, registration extensibility (a codec registered in this
 * translation unit is usable from the pipeline, Algorithm 1, and
 * CompressedLibrary without modifying any of them), and the versioned
 * serialization header.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "compaqt.hh"
#include "dsp/int_dct.hh"
#include "dsp/simd.hh"
#include "dsp/metrics.hh"
#include "waveform/complex_gates.hh"

namespace compaqt::core
{
namespace
{

// ------------------------------------------------ a codec of our own
//
// "unit-raw": stores every window's samples verbatim (identity
// transform + trailing-zero RLE). Registered from this translation
// unit only — none of the core entry points know about it. It
// implements only the two required span primitives, so it also
// exercises the base-class decode-and-slice fallback for
// decompressWindowInto.

class RawCodec final : public ICodec
{
  public:
    explicit RawCodec(std::size_t ws)
        : ws_(ws)
    {
    }

    std::string_view name() const override { return "unit-raw"; }
    std::string_view label() const override { return "unit-RAW"; }
    bool isInteger() const override { return false; }
    std::size_t windowSize() const override { return ws_; }

    void
    encodeInto(ConstSampleSpan x, double threshold,
               CompressedChannel &out) const override
    {
        out.numSamples = x.size();
        out.windowSize = ws_;
        out.delta = {};
        const std::size_t nwin = (x.size() + ws_ - 1) / ws_;
        out.windows.resize(nwin);
        for (std::size_t w = 0; w < nwin; ++w) {
            const std::size_t begin = w * ws_;
            const std::size_t len = std::min(ws_, x.size() - begin);
            std::vector<double> win(ws_, 0.0);
            for (std::size_t k = 0; k < len; ++k)
                win[k] = std::abs(x[begin + k]) < threshold
                             ? 0.0
                             : x[begin + k];
            packWindow<double>(win, out.windows[w]);
        }
    }

    void
    decodeInto(const CompressedChannel &ch,
               SampleSpan out) const override
    {
        ASSERT_EQ(out.size(), ch.numSamples);
        std::size_t n = 0;
        for (const auto &w : ch.windows) {
            for (double c : w.fcoeffs) {
                if (n >= ch.numSamples)
                    return;
                out[n++] = c;
            }
            for (std::uint32_t z = 0; z < w.zeros; ++z) {
                if (n >= ch.numSamples)
                    return;
                out[n++] = 0.0;
            }
        }
    }

  private:
    std::size_t ws_;
};

const CodecRegistrar kRawRegistrar("unit-raw", [](std::size_t ws) {
    return std::make_unique<RawCodec>(ws == 0 ? 16 : ws);
});

// ------------------------------------------------------- pulse shapes

struct Shape
{
    const char *name;
    waveform::IqWaveform wf;
};

std::vector<Shape>
testShapes()
{
    std::vector<Shape> shapes;
    waveform::IqWaveform gauss;
    gauss.i = waveform::liftedGaussian(144, 36.0, 0.2);
    gauss.q.assign(144, 0.0);
    shapes.push_back({"gaussian", std::move(gauss)});
    shapes.push_back({"drag", waveform::drag(144, 36.0, 0.2, 1.2)});
    shapes.push_back(
        {"flat-top", waveform::gaussianSquare(1360, 200, 0.12, 0.15)});
    // Optimal-control (GRAPE-like) pulse with high harmonic content.
    shapes.push_back({"grape-like", waveform::toffoliPulse()});
    return shapes;
}

// --------------------------------------------------------- registry

TEST(CodecRegistry, BuiltinsAreRegistered)
{
    auto &reg = CodecRegistry::instance();
    for (const char *name : {"delta", "dct-n", "dct-w", "int-dct"})
        EXPECT_TRUE(reg.contains(name)) << name;
    const auto names = reg.names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_GE(names.size(), 5u); // four builtins + unit-raw
}

TEST(CodecRegistry, AliasResolvesToSameCodec)
{
    auto &reg = CodecRegistry::instance();
    ASSERT_TRUE(reg.contains("int-dct-w"));
    const auto a = reg.create("int-dct-w", 16);
    const auto b = reg.create("int-dct", 16);
    EXPECT_EQ(a->name(), b->name());
}

TEST(CodecRegistry, UnknownCodecIsFatal)
{
    EXPECT_DEATH(
        { auto c = CodecRegistry::instance().create("nope", 16); },
        "unknown codec");
}

TEST(CodecRegistry, DuplicateRegistrationIsFatal)
{
    EXPECT_DEATH(
        {
            CodecRegistry::instance().add(
                "delta", [](std::size_t) -> std::unique_ptr<ICodec> {
                    return nullptr;
                });
        },
        "duplicate");
}

TEST(CodecRegistry, IntDctRejectsBadWindowSize)
{
    EXPECT_DEATH(
        { auto c = CodecRegistry::instance().create("int-dct", 12); },
        "window size");
}

// --------------------------------------- round-trip property tests

class RegistryRoundTrip
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::size_t>>
{
};

TEST_P(RegistryRoundTrip, MeetsConfiguredMseTarget)
{
    const auto [codec, ws] = GetParam();
    if (codec == "int-dct" && !dsp::intDctSupported(ws))
        GTEST_SKIP() << "unsupported int-dct window";

    constexpr double kTarget = 1e-5;
    const auto pipe = CompressionPipeline::with(codec)
                          .window(ws)
                          .mseTarget(kTarget)
                          .build();
    for (const auto &shape : testShapes()) {
        const auto r = pipe.compressToTarget(shape.wf);
        EXPECT_TRUE(r.converged)
            << codec << " ws=" << ws << " " << shape.name;
        EXPECT_LE(r.mse, kTarget)
            << codec << " ws=" << ws << " " << shape.name;

        const auto rt = pipe.decompress(r.compressed);
        ASSERT_EQ(rt.i.size(), shape.wf.i.size());
        ASSERT_EQ(rt.q.size(), shape.wf.q.size());
        EXPECT_LE(std::max(dsp::mse(shape.wf.i, rt.i),
                           dsp::mse(shape.wf.q, rt.q)),
                  kTarget)
            << codec << " ws=" << ws << " " << shape.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredCodecs, RegistryRoundTrip,
    ::testing::Combine(
        ::testing::ValuesIn(CodecRegistry::instance().names()),
        ::testing::Values(std::size_t{4}, std::size_t{8},
                          std::size_t{16}, std::size_t{32})),
    [](const auto &info) {
        std::string name = std::get<0>(info.param);
        std::replace(name.begin(), name.end(), '-', '_');
        return name + "_ws" + std::to_string(std::get<1>(info.param));
    });

// -------------------------- span decode plane vs legacy vector path

class SpanPathEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::size_t>>
{
};

/**
 * Registry-driven property test: for every registered codec x window
 * size x pulse shape (trimmed to an odd length so every windowed
 * config has a clamped tail window), the span-based decode plane —
 * decodeInto and per-window decompressWindowInto — must be
 * bit-identical to the owned-output decompressChannel.
 */
TEST_P(SpanPathEquivalence, SpanDecodeBitIdenticalToVectorPath)
{
    const auto [codec_name, ws] = GetParam();
    if (codec_name == "int-dct" && !dsp::intDctSupported(ws))
        GTEST_SKIP() << "unsupported int-dct window";

    const auto codec =
        CodecRegistry::instance().create(codec_name, ws);
    for (const auto &shape : testShapes()) {
        // Odd-length trim: make numSamples % ws nonzero for every ws
        // under test (all are even), so the tail window is clamped.
        waveform::IqWaveform wf = shape.wf;
        ASSERT_GT(wf.i.size(), 1u);
        wf.i.resize(wf.i.size() - (wf.i.size() % 2 ? 2 : 1));
        wf.q.resize(wf.i.size());

        CompressedWaveform cw;
        codec->compress(wf, 1e-3, cw);

        for (const CompressedChannel *ch : {&cw.i, &cw.q}) {
            // Whole-channel: decodeInto == decompressChannel.
            std::vector<double> golden;
            codec->decompressChannel(*ch, golden);
            ASSERT_EQ(golden.size(), ch->numSamples);
            std::vector<double> span_out(ch->numSamples, -7.0);
            codec->decodeInto(*ch, span_out);
            ASSERT_EQ(span_out, golden)
                << codec_name << " ws=" << ws << " " << shape.name;

            // Per-window: the assembled windows reproduce the
            // channel exactly, including the odd-length tail.
            if (ch->windowSize == 0)
                continue;
            std::vector<double> assembled;
            std::vector<double> win(ch->windowSize, -7.0);
            for (std::size_t w = 0; w < ch->numWindows(); ++w) {
                const std::size_t n =
                    codec->decompressWindowInto(*ch, w, win);
                ASSERT_EQ(n, ch->windowSamples(w))
                    << codec_name << " ws=" << ws << " w=" << w;
                assembled.insert(
                    assembled.end(), win.begin(),
                    win.begin() + static_cast<std::ptrdiff_t>(n));
            }
            ASSERT_EQ(assembled, golden)
                << codec_name << " ws=" << ws << " " << shape.name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredCodecs, SpanPathEquivalence,
    ::testing::Combine(
        ::testing::ValuesIn(CodecRegistry::instance().names()),
        ::testing::Values(std::size_t{4}, std::size_t{8},
                          std::size_t{16}, std::size_t{32})),
    [](const auto &info) {
        std::string name = std::get<0>(info.param);
        std::replace(name.begin(), name.end(), '-', '_');
        return name + "_ws" + std::to_string(std::get<1>(info.param));
    });

// ------------------------- batch-of-windows decode vs window path

/** Forces a dsp::simd dispatch backend for one scope. */
class BackendGuard
{
  public:
    explicit BackendGuard(dsp::simd::Backend b)
        : prev_(dsp::simd::activeBackend())
    {
        dsp::simd::setBackend(b);
    }
    ~BackendGuard() { dsp::simd::setBackend(prev_); }
    BackendGuard(const BackendGuard &) = delete;
    BackendGuard &operator=(const BackendGuard &) = delete;

  private:
    dsp::simd::Backend prev_;
};

std::vector<dsp::simd::Backend>
supportedBackends()
{
    std::vector<dsp::simd::Backend> v;
    for (dsp::simd::Backend b :
         {dsp::simd::Backend::Scalar, dsp::simd::Backend::Avx2,
          dsp::simd::Backend::Neon})
        if (dsp::simd::backendSupported(b))
            v.push_back(b);
    return v;
}

class BatchDecodeEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::size_t>>
{
};

/**
 * Registry-driven property test for the batch decode plane: for
 * every registered codec x window size x pulse shape (odd-trimmed so
 * the tail window is clamped), decodeWindowsInto at every batch size
 * must be bit-identical to decompressWindowInto assembled per window
 * — and the result must be backend-independent: exact across every
 * supported SIMD backend for the integer codec paths, epsilon-equal
 * for the float-DCT codecs (their documented contract).
 */
TEST_P(BatchDecodeEquivalence, BatchMatchesPerWindowAcrossBackends)
{
    const auto [codec_name, ws] = GetParam();
    if (codec_name == "int-dct" && !dsp::intDctSupported(ws))
        GTEST_SKIP() << "unsupported int-dct window";
    const auto codec =
        CodecRegistry::instance().create(codec_name, ws);
    // Float-DCT codecs ("dct-*") carry the epsilon contract; every
    // other registered codec decodes through integer kernels and
    // must be bit-exact across backends.
    const bool float_codec = codec_name.rfind("dct", 0) == 0;

    for (const auto &shape : testShapes()) {
        waveform::IqWaveform wf = shape.wf;
        ASSERT_GT(wf.i.size(), 1u);
        wf.i.resize(wf.i.size() - (wf.i.size() % 2 ? 2 : 1));
        wf.q.resize(wf.i.size());
        CompressedWaveform cw;
        codec->compress(wf, 1e-3, cw);

        for (const CompressedChannel *ch : {&cw.i, &cw.q}) {
            if (ch->windowSize == 0)
                continue;
            const std::size_t nwin = ch->numWindows();

            // Per-window golden assembly (ambient backend).
            std::vector<double> golden;
            std::vector<double> win(ch->windowSize, -7.0);
            for (std::size_t w = 0; w < nwin; ++w) {
                const std::size_t n =
                    codec->decompressWindowInto(*ch, w, win);
                golden.insert(golden.end(), win.begin(),
                              win.begin() +
                                  static_cast<std::ptrdiff_t>(n));
            }

            // Every batch size, including ragged final chunks, must
            // reassemble the channel bit-identically.
            for (const std::size_t k : {1u, 2u, 3u, 5u, 8u}) {
                std::vector<double> assembled(golden.size(), -7.0);
                std::size_t written = 0;
                for (std::size_t w = 0; w < nwin;) {
                    const std::size_t run = std::min(k, nwin - w);
                    written += codec->decodeWindowsInto(
                        *ch, w, run,
                        SampleSpan(assembled).subspan(written));
                    w += run;
                }
                ASSERT_EQ(written, golden.size());
                ASSERT_EQ(assembled, golden)
                    << codec_name << " ws=" << ws << " k=" << k
                    << " " << shape.name;
            }

            // Backend sweep on the whole-channel batch.
            std::vector<double> scalar_out(golden.size(), -7.0);
            {
                BackendGuard g(dsp::simd::Backend::Scalar);
                codec->decodeWindowsInto(*ch, 0, nwin,
                                         SampleSpan(scalar_out));
            }
            for (dsp::simd::Backend b : supportedBackends()) {
                BackendGuard g(b);
                std::vector<double> out(golden.size(), -7.0);
                codec->decodeWindowsInto(*ch, 0, nwin,
                                         SampleSpan(out));
                if (float_codec) {
                    for (std::size_t i = 0; i < out.size(); ++i)
                        ASSERT_NEAR(out[i], scalar_out[i], 1e-12)
                            << codec_name << " ws=" << ws << " i="
                            << i << " backend "
                            << dsp::simd::backendName(b);
                } else {
                    ASSERT_EQ(out, scalar_out)
                        << codec_name << " ws=" << ws << " backend "
                        << dsp::simd::backendName(b);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredCodecs, BatchDecodeEquivalence,
    ::testing::Combine(
        ::testing::ValuesIn(CodecRegistry::instance().names()),
        ::testing::Values(std::size_t{4}, std::size_t{8},
                          std::size_t{16}, std::size_t{32})),
    [](const auto &info) {
        std::string name = std::get<0>(info.param);
        std::replace(name.begin(), name.end(), '-', '_');
        return name + "_ws" + std::to_string(std::get<1>(info.param));
    });

TEST(BatchDecode, RejectsOutOfRangeWindows)
{
    const auto codec = CodecRegistry::instance().create("int-dct", 16);
    const auto wf = waveform::drag(144, 36.0, 0.2, 1.2);
    CompressedWaveform cw;
    codec->compress(wf, 1e-3, cw);
    const std::size_t nwin = cw.i.numWindows();
    std::vector<double> out(cw.i.numSamples);
    EXPECT_DEATH(codec->decodeWindowsInto(cw.i, nwin, 1,
                                          SampleSpan(out)),
                 "window");
    EXPECT_DEATH(codec->decodeWindowsInto(cw.i, 0, nwin + 1,
                                          SampleSpan(out)),
                 "window");
}

TEST(SpanPath, NonWindowedChannelThrowsLogicErrorNamingTheCodec)
{
    // A delta stream encoded without a window size has no random-
    // access structure: per-window decode must fail loudly with the
    // codec's name, not silently mis-stream.
    const auto codec = CodecRegistry::instance().create("delta", 0);
    const auto wf = waveform::drag(144, 36.0, 0.2, 1.2);
    CompressedWaveform cw;
    codec->compress(wf, 0.0, cw);
    ASSERT_EQ(cw.i.windowSize, 0u);
    std::vector<double> out(16);
    try {
        codec->decompressWindowInto(cw.i, 0, SampleSpan(out));
        FAIL() << "expected std::logic_error";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find("delta"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SpanPath, DeltaWindowDecodeIsCheckpointed)
{
    // Windowed delta stores one pattern checkpoint per boundary, so
    // window w decodes in O(ws) without replaying deltas 0..w*ws.
    const auto codec = CodecRegistry::instance().create("delta", 16);
    const auto wf = waveform::gaussianSquare(1360, 200, 0.12, 0.15);
    CompressedWaveform cw;
    codec->compress(wf, 0.0, cw);
    ASSERT_EQ(cw.i.windowSize, 16u);
    ASSERT_EQ(cw.i.delta.checkpointStride, 16u);
    EXPECT_EQ(cw.i.delta.checkpoints.size(),
              (wf.i.size() - 1) / 16);
    // The side index is accounted in the compressed size.
    EXPECT_GT(dsp::deltaCompressedBits(cw.i.delta),
              dsp::deltaCompressedBits(dsp::deltaEncode(wf.i)));
}

// ------------------------------------------------- pipeline facade

TEST(CompressionPipeline, FixedThresholdCompressRoundTrips)
{
    const auto pipe = CompressionPipeline::with("int-dct")
                          .window(16)
                          .threshold(1e-3)
                          .build();
    const auto wf = waveform::drag(144, 36.0, 0.2, 1.2);
    const auto cw = pipe.compress(wf);
    EXPECT_EQ(cw.codec, "int-dct");
    EXPECT_GE(cw.ratio(), 1.0);
    EXPECT_LT(pipe.roundTripMse(wf), 1e-4);
}

TEST(CompressionPipeline, ReusedBuffersMatchOneShot)
{
    const auto pipe = CompressionPipeline::with("dct-w")
                          .window(8)
                          .threshold(1e-3)
                          .build();
    const auto a = waveform::drag(144, 36.0, 0.2, 1.2);
    const auto b = waveform::gaussianSquare(1360, 200, 0.12, 0.15);

    CompressedWaveform cw;
    waveform::IqWaveform rt;
    // Run b through the same buffers first, then a: results must be
    // identical to the allocating one-shot calls.
    pipe.compress(b, cw);
    pipe.decompress(cw, rt);
    pipe.compress(a, cw);
    pipe.decompress(cw, rt);

    const auto one_shot = pipe.decompress(pipe.compress(a));
    EXPECT_EQ(rt.i, one_shot.i);
    EXPECT_EQ(rt.q, one_shot.q);
}

TEST(CompressionPipeline, RejectsWaveformFromOtherCodec)
{
    const auto int_pipe = CompressionPipeline::with("int-dct")
                              .window(16)
                              .threshold(1e-3)
                              .build();
    const auto delta_pipe = CompressionPipeline::with("delta").build();
    const auto cw =
        int_pipe.compress(waveform::drag(144, 36.0, 0.2, 1.2));
    EXPECT_DEATH({ auto rt = delta_pipe.decompress(cw); },
                 "different codec");
}

TEST(CompressionPipeline, TargetModeLibraryMatchesSerialCompile)
{
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    FidelityAwareConfig cfg;
    cfg.base.codec = "int-dct";
    cfg.base.windowSize = 16;
    const auto built = LibraryCompiler({.fidelity = cfg,
                                        .workers = 1,
                                        .planPerChannel = false})
                           .compile(lib)
                           .library;
    const auto piped = CompressionPipeline::with("int-dct")
                           .window(16)
                           .mseTarget(cfg.targetMse)
                           .build()
                           .compressLibrary(lib);
    ASSERT_EQ(piped.size(), built.size());
    for (const auto &[id, e] : built.entries()) {
        const auto &p = piped.entry(id);
        EXPECT_DOUBLE_EQ(p.threshold, e.threshold);
        EXPECT_DOUBLE_EQ(p.mse, e.mse);
        EXPECT_EQ(p.cw.stats().compressedWords,
                  e.cw.stats().compressedWords);
    }
}

TEST(CompressionPipeline, CompressToTargetRequiresTarget)
{
    const auto pipe =
        CompressionPipeline::with("int-dct").window(16).build();
    const auto wf = waveform::drag(144, 36.0, 0.2, 1.2);
    EXPECT_FALSE(pipe.hasMseTarget());
    EXPECT_DEATH({ auto r = pipe.compressToTarget(wf); },
                 "mseTarget");
    const auto lib = waveform::PulseLibrary::build(
        waveform::DeviceModel::ibm("bogota"));
    EXPECT_DEATH({ auto clib = pipe.compressLibrary(lib); },
                 "mseTarget");
}

// ------------------------------------------------ extensibility seam

TEST(CodecExtensibility, CustomCodecWorksThroughEveryEntryPoint)
{
    const auto wf = waveform::drag(144, 36.0, 0.2, 1.2);

    // Pipeline facade (threshold 0: the verbatim codec is lossless).
    const auto pipe = CompressionPipeline::with("unit-raw")
                          .window(16)
                          .threshold(0.0)
                          .build();
    EXPECT_LT(pipe.roundTripMse(wf), 1e-12);

    // Fidelity-aware compression (Algorithm 1).
    FidelityAwareConfig cfg;
    cfg.base.codec = "unit-raw";
    cfg.base.windowSize = 16;
    const auto r = compressFidelityAware(wf, cfg);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.compressed.codec, "unit-raw");

    // Compressor/Decompressor pair.
    const Compressor comp({"unit-raw", 16, 0.0});
    Decompressor dec;
    const auto rt = dec.decompress(comp.compress(wf));
    EXPECT_EQ(rt.i, wf.i);
    EXPECT_EQ(rt.q, wf.q);

    // LibraryCompiler + save/load round trip.
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    const auto clib = LibraryCompiler({.fidelity = cfg,
                                       .workers = 1,
                                       .planPerChannel = false})
                          .compile(lib)
                          .library;
    EXPECT_EQ(clib.size(), lib.size());
    std::stringstream ss;
    clib.save(ss);
    const auto loaded = CompressedLibrary::load(ss);
    EXPECT_EQ(loaded.size(), clib.size());
    for (const auto &[id, e] : loaded.entries())
        EXPECT_EQ(e.cw.codec, "unit-raw");
}

// ------------------------------------------- versioned serialization

TEST(SerializationHeader, RejectsWrongMagic)
{
    std::stringstream ss;
    ss << "garbage bytes, definitely not a library";
    EXPECT_DEATH({ auto l = CompressedLibrary::load(ss); }, "magic");
}

TEST(SerializationHeader, RejectsWrongVersion)
{
    // Correct magic ("CPQT" little-endian), then every version but
    // v5: the older formats and one from the future.
    const std::uint32_t magic = 0x43505154;
    for (const std::uint32_t version : {1u, 2u, 3u, 4u, 99u}) {
        std::stringstream ss;
        ss.write(reinterpret_cast<const char *>(&magic), sizeof(magic));
        ss.write(reinterpret_cast<const char *>(&version),
                 sizeof(version));
        EXPECT_DEATH({ auto l = CompressedLibrary::load(ss); },
                     "version")
            << "version " << version;
    }
}

TEST(SerializationHeader, RejectsUnregisteredCodecName)
{
    // A library whose entry claims a codec this process doesn't have.
    CompressedLibrary clib;
    CompressedEntry e;
    e.cw.codec = "codec-from-the-future";
    clib.insert({waveform::GateType::X, 0, -1}, std::move(e));
    std::stringstream ss;
    clib.save(ss);
    EXPECT_DEATH({ auto l = CompressedLibrary::load(ss); },
                 "not registered");
}

TEST(SerializationHeader, RejectsTruncatedStream)
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
    std::stringstream full;
    clib.save(full);
    const std::string bytes = full.str();

    std::stringstream cut(bytes.substr(0, bytes.size() / 2));
    EXPECT_DEATH({ auto l = CompressedLibrary::load(cut); },
                 "truncated");
}

} // namespace
} // namespace compaqt::core
