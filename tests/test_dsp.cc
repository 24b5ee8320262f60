/**
 * @file
 * Unit and property tests for the DSP substrate: DCT/IDCT round
 * trips, HEVC integer-transform correctness (matrix values,
 * butterfly-vs-dense equivalence, round-trip error bounds), CSD
 * decomposition, RLE and delta codecs, and metric helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/rng.hh"
#include "dsp/dct.hh"
#include "dsp/delta.hh"
#include "dsp/int_dct.hh"
#include "dsp/metrics.hh"
#include "dsp/rle.hh"
#include "dsp/shift_add.hh"
#include "dsp/simd.hh"
#include "waveform/shapes.hh"

namespace compaqt::dsp
{
namespace
{

std::vector<double>
randomSignal(std::size_t n, Rng &rng, double amp = 1.0)
{
    std::vector<double> x(n);
    for (auto &v : x)
        v = rng.uniform(-amp, amp);
    return x;
}

// ---------------------------------------------------------------- DCT

TEST(Dct, RoundTripIsIdentity)
{
    Rng rng(1);
    for (std::size_t n : {1u, 2u, 3u, 8u, 16u, 37u, 144u}) {
        const auto x = randomSignal(n, rng);
        const auto y = dct(x);
        const auto z = idct(y);
        ASSERT_EQ(z.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(z[i], x[i], 1e-10) << "n=" << n << " i=" << i;
    }
}

TEST(Dct, PreservesEnergyParseval)
{
    Rng rng(2);
    const auto x = randomSignal(64, rng);
    const auto y = dct(x);
    EXPECT_NEAR(energy(x), energy(y), 1e-9);
}

TEST(Dct, ConstantSignalCompactsToDc)
{
    const std::vector<double> x(16, 0.5);
    const auto y = dct(x);
    EXPECT_NEAR(y[0], 0.5 * std::sqrt(16.0), 1e-12);
    for (std::size_t k = 1; k < y.size(); ++k)
        EXPECT_NEAR(y[k], 0.0, 1e-12);
}

TEST(Dct, IsLinear)
{
    Rng rng(3);
    const auto a = randomSignal(32, rng);
    const auto b = randomSignal(32, rng);
    std::vector<double> sum(32);
    for (std::size_t i = 0; i < 32; ++i)
        sum[i] = 2.0 * a[i] - 3.0 * b[i];
    const auto ya = dct(a);
    const auto yb = dct(b);
    const auto ys = dct(sum);
    for (std::size_t k = 0; k < 32; ++k)
        EXPECT_NEAR(ys[k], 2.0 * ya[k] - 3.0 * yb[k], 1e-10);
}

TEST(Dct, SmoothSignalHasCompactSpectrum)
{
    // A DRAG-style Gaussian: nearly all energy in low coefficients.
    const auto g = waveform::liftedGaussian(128, 32.0, 0.2);
    const auto y = dct(g);
    const double total = energy(y);
    double low = 0.0;
    for (std::size_t k = 0; k < 16; ++k)
        low += y[k] * y[k];
    EXPECT_GT(low / total, 0.9999);
}

TEST(DctPlan, MatchesFreeFunctions)
{
    Rng rng(4);
    const auto x = randomSignal(16, rng);
    DctPlan plan(16);
    std::vector<double> y(16), z(16);
    plan.forward(x, y);
    const auto y2 = dct(x);
    for (std::size_t k = 0; k < 16; ++k)
        EXPECT_NEAR(y[k], y2[k], 1e-12);
    plan.inverse(y, z);
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_NEAR(z[i], x[i], 1e-10);
}

// ---------------------------------------------------------- shift-add

TEST(Csd, MatchesPlainMultiplication)
{
    Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        const auto c = static_cast<std::int64_t>(
            rng.uniformInt(4096)) - 2048;
        const auto x = static_cast<std::int64_t>(
            rng.uniformInt(1 << 20)) - (1 << 19);
        EXPECT_EQ(multiplyShiftAdd(c, x), c * x)
            << "c=" << c << " x=" << x;
    }
}

TEST(Csd, NonAdjacentFormProperty)
{
    for (std::int64_t c : {1, 3, 7, 18, 36, 50, 64, 75, 83, 89, 90,
                           255, 1023}) {
        const auto digits = csd(c);
        for (std::size_t i = 1; i < digits.size(); ++i)
            EXPECT_GE(digits[i].shift - digits[i - 1].shift, 2)
                << "c=" << c;
        // Digits reconstruct the constant.
        std::int64_t sum = 0;
        for (const auto &d : digits)
            sum += d.sign * (std::int64_t{1} << d.shift);
        EXPECT_EQ(sum, c);
    }
}

TEST(Csd, KnownDigitCounts)
{
    EXPECT_EQ(csdDigits(64), 1);  // pure shift
    EXPECT_EQ(csdDigits(36), 2);  // 32 + 4
    EXPECT_EQ(csdDigits(18), 2);  // 16 + 2
    EXPECT_EQ(csdDigits(0), 0);
    EXPECT_EQ(csdDigits(7), 2);   // 8 - 1
}

TEST(OpCounter, SharesShiftTapsPerInput)
{
    OpCounter ops;
    ops.addConstantMultiply(0, 36); // shifts {5, 2}, 1 adder
    ops.addConstantMultiply(0, 18); // shifts {4, 1}, 1 adder
    ops.addConstantMultiply(0, 36); // taps already provisioned
    EXPECT_EQ(ops.adders(), 3);
    EXPECT_EQ(ops.shifters(), 4);
    ops.addConstantMultiply(1, 36); // new input: new taps
    EXPECT_EQ(ops.shifters(), 6);
    ops.reset();
    EXPECT_EQ(ops.adders(), 0);
    EXPECT_EQ(ops.shifters(), 0);
    EXPECT_EQ(ops.multipliers(), 0);
}

// ------------------------------------------------------------ int-DCT

TEST(IntDct, MatrixMatchesHevc8Point)
{
    // The canonical HEVC 8-point forward transform matrix.
    const int expected[8][8] = {
        {64, 64, 64, 64, 64, 64, 64, 64},
        {89, 75, 50, 18, -18, -50, -75, -89},
        {83, 36, -36, -83, -83, -36, 36, 83},
        {75, -18, -89, -50, 50, 89, 18, -75},
        {64, -64, -64, 64, 64, -64, -64, 64},
        {50, -89, 18, 75, -75, -18, 89, -50},
        {36, -83, 83, -36, -36, 83, -83, 36},
        {18, -50, 75, -89, 89, -75, 50, -18},
    };
    IntDct xform(8);
    for (std::size_t k = 0; k < 8; ++k)
        for (std::size_t i = 0; i < 8; ++i)
            EXPECT_EQ(xform.coeff(k, i), expected[k][i])
                << "k=" << k << " i=" << i;
}

TEST(IntDct, MatrixMatchesHevc4Point)
{
    const int expected[4][4] = {
        {64, 64, 64, 64},
        {83, 36, -36, -83},
        {64, -64, -64, 64},
        {36, -83, 83, -36},
    };
    IntDct xform(4);
    for (std::size_t k = 0; k < 4; ++k)
        for (std::size_t i = 0; i < 4; ++i)
            EXPECT_EQ(xform.coeff(k, i), expected[k][i]);
}

TEST(IntDct, RowsAreNearlyOrthogonal)
{
    for (std::size_t n : {4u, 8u, 16u, 32u}) {
        IntDct xform(n);
        const double scale = 4096.0 * static_cast<double>(n);
        for (std::size_t a = 0; a < n; ++a) {
            for (std::size_t b = 0; b < n; ++b) {
                double dot = 0.0;
                for (std::size_t i = 0; i < n; ++i)
                    dot += static_cast<double>(xform.coeff(a, i)) *
                           xform.coeff(b, i);
                if (a == b)
                    EXPECT_NEAR(dot / scale, 1.0, 0.01)
                        << "n=" << n << " row " << a;
                else
                    EXPECT_LT(std::abs(dot) / scale, 0.01)
                        << "n=" << n << " rows " << a << "," << b;
            }
        }
    }
}

TEST(IntDct, QuantizeDequantizeBounds)
{
    EXPECT_EQ(IntDct::quantize(0.0), 0);
    EXPECT_EQ(IntDct::quantize(1.0), 32767);
    EXPECT_EQ(IntDct::quantize(-1.0), -32767);
    EXPECT_EQ(IntDct::quantize(2.0), 32767); // saturates
    EXPECT_NEAR(IntDct::dequantize(IntDct::quantize(0.123)), 0.123,
                1e-4);
}

class IntDctSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(IntDctSizes, RoundTripWithinApproximationError)
{
    // The HEVC matrices are deliberately tuned away from exact
    // orthogonality, so the round trip carries a ~0.5% relative error
    // on white inputs (plus shift rounding); smooth waveforms do much
    // better (see the core-module MSE tests).
    const std::size_t n = GetParam();
    Rng rng(100 + n);
    IntDct xform(n);
    std::vector<std::int32_t> x(n), y(n), z(n);
    for (int trial = 0; trial < 50; ++trial) {
        for (auto &v : x)
            v = IntDct::quantize(rng.uniform(-0.5, 0.5));
        xform.forward(x, y);
        xform.inverse(y, z);
        double err2 = 0.0, sig2 = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            err2 += static_cast<double>(z[i] - x[i]) * (z[i] - x[i]);
            sig2 += static_cast<double>(x[i]) * x[i];
        }
        const double rel = std::sqrt(err2) / std::sqrt(sig2);
        EXPECT_LT(rel, 0.01) << "n=" << n;
    }
}

TEST(IntDct, RoundTripTightOnSmoothWaveforms)
{
    // The signals COMPAQT actually stores are smooth; there the
    // integer round trip is within a few LSB.
    const auto g = waveform::liftedGaussian(144, 36.0, 0.2);
    IntDct xform(16);
    std::vector<std::int32_t> x(16), y(16), z(16);
    for (std::size_t w = 0; w < 9; ++w) {
        for (std::size_t i = 0; i < 16; ++i)
            x[i] = IntDct::quantize(g[w * 16 + i]);
        xform.forward(x, y);
        xform.inverse(y, z);
        for (std::size_t i = 0; i < 16; ++i)
            EXPECT_NEAR(z[i], x[i], 8.0) << "w=" << w;
    }
}

TEST_P(IntDctSizes, ButterflyMatchesDenseInverse)
{
    const std::size_t n = GetParam();
    Rng rng(200 + n);
    IntDct xform(n);
    std::vector<std::int32_t> y(n), a(n), b(n);
    for (int trial = 0; trial < 50; ++trial) {
        for (auto &v : y)
            v = static_cast<std::int32_t>(rng.uniformInt(65536)) -
                32768;
        xform.inverse(y, a);
        xform.inverseButterfly(y, b);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(a[i], b[i]) << "n=" << n << " i=" << i;
    }
}

TEST_P(IntDctSizes, PrefixInverseMatchesDenseInverse)
{
    // The prefix-sparse window decode (the decode-plane hot kernel)
    // must be bit-exact with the dense product on the zero-extended
    // window followed by dequantize, at every possible prefix length
    // including 0 and n.
    const std::size_t n = GetParam();
    Rng rng(300 + n);
    IntDct xform(n);
    std::vector<std::int32_t> y(n), a(n);
    std::vector<double> b(n);
    for (std::size_t prefix = 0; prefix <= n; ++prefix) {
        for (int trial = 0; trial < 10; ++trial) {
            for (std::size_t k = 0; k < n; ++k)
                y[k] = k < prefix
                           ? static_cast<std::int32_t>(
                                 rng.uniformInt(65536)) -
                                 32768
                           : 0;
            xform.inverse(y, a);
            xform.decodePrefix(
                std::span<const std::int32_t>(y).first(prefix), b);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(IntDct::dequantize(a[i]), b[i])
                    << "n=" << n << " prefix=" << prefix
                    << " i=" << i;
        }
    }
}

TEST_P(IntDctSizes, CoefficientScaleMapsAmplitudes)
{
    const std::size_t n = GetParam();
    IntDct xform(n);
    // A constant window of amplitude a yields a DC coefficient of
    // about a * sqrt(n) in orthonormal units.
    std::vector<std::int32_t> x(n, IntDct::quantize(0.25)), y(n);
    xform.forward(x, y);
    const double expected =
        0.25 * std::sqrt(static_cast<double>(n)) *
        xform.coefficientScale();
    EXPECT_NEAR(y[0], expected, std::abs(expected) * 0.01 + 2.0);
}

INSTANTIATE_TEST_SUITE_P(AllSizes, IntDctSizes,
                         ::testing::Values(4, 8, 16, 32));

TEST(IntDct, RejectsUnsupportedSizes)
{
    EXPECT_FALSE(intDctSupported(6));
    EXPECT_FALSE(intDctSupported(64));
    EXPECT_TRUE(intDctSupported(8));
}

TEST(IntDct, OpCountsAreMultiplierless)
{
    IntDct xform(8);
    OpCounter ops;
    std::vector<std::int32_t> y(8, 100), x(8);
    xform.inverseButterfly(y, x, &ops);
    EXPECT_EQ(ops.multipliers(), 0);
    EXPECT_GT(ops.adders(), 0);
    EXPECT_GT(ops.shifters(), 0);
}

// ----------------------------------------------------------------- RLE

TEST(Rle, EncodesTrailingZerosOnly)
{
    const std::vector<std::int32_t> win = {5, 0, 3, 0, 0, 0, 0, 0};
    const auto words = rleEncode(std::span<const std::int32_t>(win));
    // Prefix 5,0,3 + one codeword for the 5 trailing zeros.
    ASSERT_EQ(words.size(), 4u);
    EXPECT_FALSE(words[0].isRle);
    EXPECT_EQ(words[0].value, 5);
    EXPECT_FALSE(words[1].isRle);
    EXPECT_EQ(words[1].value, 0);
    EXPECT_TRUE(words[3].isRle);
    EXPECT_EQ(words[3].count, 5u);
}

TEST(Rle, AllZeroWindowIsOneCodeword)
{
    const std::vector<std::int32_t> win(16, 0);
    const auto words = rleEncode(std::span<const std::int32_t>(win));
    ASSERT_EQ(words.size(), 1u);
    EXPECT_TRUE(words[0].isRle);
    EXPECT_EQ(words[0].count, 16u);
}

TEST(Rle, NoTrailingZerosOmitsCodeword)
{
    const std::vector<std::int32_t> win = {1, 2, 3, 4};
    const auto words = rleEncode(std::span<const std::int32_t>(win));
    EXPECT_EQ(words.size(), 4u);
    for (const auto &w : words)
        EXPECT_FALSE(w.isRle);
}

TEST(Rle, RoundTripProperty)
{
    Rng rng(9);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::int32_t> win(16, 0);
        // Random sparse prefix with a random trailing run.
        const std::size_t nz = rng.uniformInt(17);
        for (std::size_t i = 0; i < nz; ++i)
            win[i] = static_cast<std::int32_t>(rng.uniformInt(1000)) -
                     500;
        const auto words =
            rleEncode(std::span<const std::int32_t>(win));
        const auto decoded = rleDecode(
            std::span<const RleWord<std::int32_t>>(words), 16);
        EXPECT_EQ(decoded, win);
    }
}

TEST(Rle, DoubleSpecializationWorks)
{
    const std::vector<double> win = {0.5, 0.0, 0.0};
    const auto words = rleEncode(std::span<const double>(win));
    ASSERT_EQ(words.size(), 2u);
    const auto decoded =
        rleDecode(std::span<const RleWord<double>>(words), 3);
    EXPECT_EQ(decoded, win);
}

// --------------------------------------------------------------- delta

TEST(Delta, RoundTripIsLosslessAtQuantizedResolution)
{
    Rng rng(10);
    std::vector<double> x(200);
    for (auto &v : x)
        v = rng.uniform(-0.9, 0.9);
    const auto enc = deltaEncode(x);
    const auto dec = deltaDecode(enc);
    ASSERT_EQ(dec.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(dec[i], x[i], 1.0 / 32767.0);
}

TEST(Delta, SmoothPositiveWaveformCompressesNearTwofold)
{
    // A Gaussian never crossing zero: deltas are small.
    const auto g = waveform::liftedGaussian(256, 64.0, 0.3);
    const auto enc = deltaEncode(g);
    EXPECT_FALSE(enc.hasZeroCrossing);
    EXPECT_GT(deltaRatio(enc), 1.5);
}

TEST(Delta, ZeroCrossingKillsCompression)
{
    // A DRAG quadrature channel crosses zero at the pulse center;
    // the sign-magnitude delta blows up to the full bit-field.
    const auto d = waveform::gaussianDerivative(256, 64.0, 0.3);
    const auto enc = deltaEncode(d);
    EXPECT_TRUE(enc.hasZeroCrossing);
    EXPECT_LT(deltaRatio(enc), 1.2);
    EXPECT_GE(enc.deltaWidth, 15);
}

TEST(Delta, EmptyAndSingleSample)
{
    EXPECT_EQ(deltaEncode({}).originalCount, 0u);
    const std::vector<double> one = {0.25};
    const auto enc = deltaEncode(one);
    EXPECT_EQ(enc.originalCount, 1u);
    const auto dec = deltaDecode(enc);
    ASSERT_EQ(dec.size(), 1u);
    EXPECT_NEAR(dec[0], 0.25, 1e-4);
}

TEST(Delta, CheckpointedWindowDecodeMatchesFullDecode)
{
    Rng rng(77);
    std::vector<double> x(203); // odd length: clamped tail window
    for (auto &v : x)
        v = rng.uniform(-0.9, 0.9);
    const std::size_t stride = 16;
    const auto enc = deltaEncode(x, stride);
    EXPECT_EQ(enc.checkpointStride, stride);
    EXPECT_EQ(enc.checkpoints.size(), (x.size() - 1) / stride);

    const auto full = deltaDecode(enc);
    std::vector<double> win(stride, -9.0);
    const std::size_t nwin = (x.size() + stride - 1) / stride;
    for (std::size_t w = 0; w < nwin; ++w) {
        const std::size_t n = deltaDecodeWindowInto(enc, w, win);
        const std::size_t begin = w * stride;
        ASSERT_EQ(n, std::min(stride, x.size() - begin)) << w;
        for (std::size_t k = 0; k < n; ++k)
            EXPECT_EQ(win[k], full[begin + k])
                << "w=" << w << " k=" << k;
    }
}

TEST(Delta, SpanDecodeMatchesVectorDecode)
{
    Rng rng(78);
    std::vector<double> x(120);
    for (auto &v : x)
        v = rng.uniform(-0.9, 0.9);
    const auto enc = deltaEncode(x, 8);
    const auto golden = deltaDecode(enc);
    std::vector<double> out(x.size(), -9.0);
    deltaDecodeInto(enc, out);
    EXPECT_EQ(out, golden);
    // The checkpoint side index is charged to the compressed size.
    EXPECT_GT(deltaCompressedBits(enc),
              deltaCompressedBits(deltaEncode(x)));
}

// ----------------------------------------------------- simd kernels

/** Forces a dispatch backend for one scope, restoring the ambient
 *  backend on destruction — property tests sweep backends without
 *  leaking the override into later tests. */
class BackendGuard
{
  public:
    explicit BackendGuard(simd::Backend b)
        : prev_(simd::activeBackend())
    {
        simd::setBackend(b);
    }
    ~BackendGuard() { simd::setBackend(prev_); }
    BackendGuard(const BackendGuard &) = delete;
    BackendGuard &operator=(const BackendGuard &) = delete;

  private:
    simd::Backend prev_;
};

/** Every backend this build AND this host can actually run. */
std::vector<simd::Backend>
supportedBackends()
{
    std::vector<simd::Backend> v;
    for (simd::Backend b :
         {simd::Backend::Scalar, simd::Backend::Avx2,
          simd::Backend::Neon})
        if (simd::backendSupported(b))
            v.push_back(b);
    return v;
}

TEST(Simd, DispatchReportingAndUnsupportedClamp)
{
    using simd::Backend;
    EXPECT_TRUE(simd::backendSupported(Backend::Scalar));
    EXPECT_TRUE(simd::backendSupported(simd::detectedBackend()));
    EXPECT_TRUE(simd::backendSupported(simd::activeBackend()));
    EXPECT_STREQ(simd::kBackendEnvVar, "COMPAQT_SIMD");
    for (Backend b : {Backend::Scalar, Backend::Avx2, Backend::Neon}) {
        EXPECT_FALSE(simd::backendName(b).empty());
        EXPECT_GE(simd::int32Lanes(b), std::size_t{1});
        EXPECT_GE(simd::doubleLanes(b), std::size_t{1});
    }
    // Forcing a backend the host cannot run clamps to scalar rather
    // than faulting, and the guard restores the ambient choice.
    const Backend ambient = simd::activeBackend();
    for (Backend b : {Backend::Avx2, Backend::Neon}) {
        if (simd::backendSupported(b))
            continue;
        BackendGuard guard(b);
        EXPECT_EQ(simd::activeBackend(), Backend::Scalar);
    }
    EXPECT_EQ(simd::activeBackend(), ambient);
}

TEST(Simd, IdctPrefixBitIdenticalAcrossBackends)
{
    // The integer-IDCT kernel contract: bit-exact across backends at
    // every transform size and every prefix count 0..n, on the real
    // HEVC matrices with full-range Q15-scaled coefficients.
    for (const std::size_t n : {4u, 8u, 16u, 32u}) {
        Rng rng(900 + n);
        IntDct xform(n);
        std::vector<std::int32_t> m(n * n);
        for (std::size_t k = 0; k < n; ++k)
            for (std::size_t i = 0; i < n; ++i)
                m[k * n + i] = xform.coeff(k, i);
        std::vector<std::int32_t> y(n);
        for (auto &v : y)
            v = static_cast<std::int32_t>(rng.uniformInt(65536)) -
                32768;
        std::vector<std::int32_t> golden(n), out(n);
        for (std::size_t p = 0; p <= n; ++p) {
            {
                BackendGuard g(simd::Backend::Scalar);
                simd::idctPrefixInto(m.data(), n, y.data(), p,
                                     xform.inverseShift(),
                                     golden.data());
            }
            for (simd::Backend b : supportedBackends()) {
                BackendGuard g(b);
                std::fill(out.begin(), out.end(), -1);
                simd::idctPrefixInto(m.data(), n, y.data(), p,
                                     xform.inverseShift(),
                                     out.data());
                EXPECT_EQ(out, golden)
                    << "n=" << n << " p=" << p << " backend "
                    << simd::backendName(b);
            }
        }
    }
}

TEST(Simd, IntDctClassPathBitIdenticalAcrossBackends)
{
    // Same contract through the public IntDct entry point the codec
    // calls: the prefix window decode under each backend matches the
    // scalar-forced result exactly.
    for (const std::size_t n : {4u, 8u, 16u, 32u}) {
        Rng rng(910 + n);
        IntDct xform(n);
        std::vector<std::int32_t> y(n);
        for (auto &v : y)
            v = static_cast<std::int32_t>(rng.uniformInt(65536)) -
                32768;
        for (std::size_t p = 0; p <= n; ++p) {
            const auto prefix =
                std::span<const std::int32_t>(y).first(p);
            std::vector<double> golden(n), out(n);
            {
                BackendGuard g(simd::Backend::Scalar);
                xform.decodePrefix(prefix, golden);
            }
            for (simd::Backend b : supportedBackends()) {
                BackendGuard g(b);
                xform.decodePrefix(prefix, out);
                EXPECT_EQ(out, golden)
                    << "n=" << n << " p=" << p << " backend "
                    << simd::backendName(b);
            }
        }
    }
}

/** A coefficient drawn from the whole int32 range. */
std::int32_t
anyInt32(Rng &rng)
{
    return static_cast<std::int32_t>(
        static_cast<std::uint32_t>(rng.next()));
}

TEST(Simd, FusedIdctDequantizeMatchesInverseThenDequantize)
{
    // The fused window-decode kernel against its definition: scalar
    // IntDct::inverse on the zero-extended window, then
    // IntDct::dequantize per sample. Every backend, size, prefix
    // 0..n and output length 1..n (tail windows), on coefficients
    // from the whole int32 range: a library from outside may carry
    // any int32, and the shifted sum then overflows int32 and must
    // wrap exactly as the scalar cast does. Outputs past `len` stay
    // untouched. IntDct::decodePrefix runs on the same draws: its
    // constant branch (prefix length <= 1, one fill) must match too.
    constexpr double kSentinel = -7.0;
    for (const std::size_t n : {4u, 8u, 16u, 32u}) {
        Rng rng(940 + n);
        IntDct xform(n);
        std::vector<std::int32_t> m(n * n);
        for (std::size_t k = 0; k < n; ++k)
            for (std::size_t i = 0; i < n; ++i)
                m[k * n + i] = xform.coeff(k, i);
        std::vector<std::vector<std::int32_t>> draws = {
            std::vector<std::int32_t>(n, INT32_MIN),
            std::vector<std::int32_t>(n, INT32_MAX)};
        std::vector<std::int32_t> alternating(n);
        for (std::size_t k = 0; k < n; ++k)
            alternating[k] = k % 2 ? INT32_MIN : INT32_MAX;
        draws.push_back(alternating);
        for (int trial = 0; trial < 6; ++trial) {
            std::vector<std::int32_t> y(n);
            for (auto &v : y)
                v = trial % 2 ? anyInt32(rng)
                              : static_cast<std::int32_t>(
                                    rng.uniformInt(65536)) -
                                    32768;
            draws.push_back(y);
        }
        for (const auto &y : draws) {
            for (std::size_t p = 0; p <= n; ++p) {
                std::vector<std::int32_t> ext(n, 0), x(n);
                std::copy_n(y.begin(), p, ext.begin());
                std::vector<double> golden(n);
                {
                    BackendGuard g(simd::Backend::Scalar);
                    xform.inverse(ext, x);
                }
                for (std::size_t i = 0; i < n; ++i)
                    golden[i] = IntDct::dequantize(x[i]);
                const auto prefix =
                    std::span<const std::int32_t>(y).first(p);
                for (simd::Backend b : supportedBackends()) {
                    BackendGuard g(b);
                    for (std::size_t len = 1; len <= n; ++len) {
                        std::vector<double> fused(n, kSentinel);
                        simd::idctPrefixDequantizeInto(
                            m.data(), n, y.data(), p,
                            xform.inverseShift(), fused.data(), len);
                        std::vector<double> decoded(n, kSentinel);
                        xform.decodePrefix(
                            prefix, std::span<double>(decoded).first(len));
                        for (std::size_t i = 0; i < n; ++i) {
                            const double want =
                                i < len ? golden[i] : kSentinel;
                            ASSERT_EQ(
                                std::bit_cast<std::uint64_t>(fused[i]),
                                std::bit_cast<std::uint64_t>(want))
                                << "fused n=" << n << " p=" << p
                                << " len=" << len << " i=" << i
                                << " backend " << simd::backendName(b);
                            ASSERT_EQ(
                                std::bit_cast<std::uint64_t>(decoded[i]),
                                std::bit_cast<std::uint64_t>(want))
                                << "decodePrefix n=" << n << " p=" << p
                                << " len=" << len << " i=" << i
                                << " backend " << simd::backendName(b);
                        }
                    }
                }
            }
        }
    }
}

TEST(Simd, PointwiseConversionsBitIdenticalAcrossBackends)
{
    // Sign-magnitude expansion is bit-exact on any length, including
    // the odd tails the vector paths peel.
    Rng rng(920);
    for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 15u, 33u,
                                128u}) {
        std::vector<std::int32_t> sm(n);
        for (std::size_t i = 0; i < n; ++i)
            sm[i] =
                static_cast<std::int32_t>(rng.uniformInt(0x10000));
        std::vector<double> gs(n), os(n);
        {
            BackendGuard g(simd::Backend::Scalar);
            simd::signMagnitudeToDoubles(sm.data(), n, gs.data());
        }
        for (simd::Backend b : supportedBackends()) {
            BackendGuard g(b);
            simd::signMagnitudeToDoubles(sm.data(), n, os.data());
            EXPECT_EQ(os, gs)
                << "n=" << n << " backend " << simd::backendName(b);
        }
    }
}

TEST(Simd, FloatIdctPrefixWithinEpsilonOfScalar)
{
    // The float-kernel contract is epsilon-bounded equality against
    // the scalar reference (in practice bit-exact — the kernels keep
    // the scalar accumulation order and use no FMA contraction).
    for (const std::size_t n : {4u, 8u, 16u, 32u}) {
        Rng rng(930 + n);
        std::vector<double> basis(n * n), y(n);
        for (auto &v : basis)
            v = rng.uniform(-1.0, 1.0);
        for (auto &v : y)
            v = rng.uniform(-1.0, 1.0);
        for (const std::size_t p : {std::size_t{0}, std::size_t{1},
                                    n / 2, n}) {
            std::vector<double> golden(n), out(n);
            {
                BackendGuard g(simd::Backend::Scalar);
                simd::floatIdctPrefixInto(basis.data(), n, y.data(),
                                          p, golden.data());
            }
            for (simd::Backend b : supportedBackends()) {
                BackendGuard g(b);
                simd::floatIdctPrefixInto(basis.data(), n, y.data(),
                                          p, out.data());
                for (std::size_t i = 0; i < n; ++i)
                    EXPECT_NEAR(out[i], golden[i], 1e-12)
                        << "n=" << n << " p=" << p << " i=" << i
                        << " backend " << simd::backendName(b);
            }
        }
    }
}

TEST(Simd, ZeroRunsAndFillsWriteExactlyTheRequestedRange)
{
    // The RLE integer zero run and the constant-fill kernel must write
    // the run and nothing else, on every length a vector path peels.
    // The fill copies its value bit for bit, exactly as std::fill_n:
    // a -0.0 keeps its sign and a NaN its payload.
    const double values[] = {
        0.0, -0.0, -7.5, 0x1p-15,
        std::bit_cast<double>(std::uint64_t{0xFFF800000000BEEF}),
        std::bit_cast<double>(std::uint64_t{0x7FF0000000000001})};
    constexpr double kSentinel = 123.25;
    for (simd::Backend b : supportedBackends()) {
        BackendGuard g(b);
        for (std::size_t n = 0; n <= 67; ++n) {
            std::vector<std::int32_t> vi(n + 8, 123);
            simd::zeroRunInt32(vi.data() + 4, n);
            for (std::size_t i = 0; i < vi.size(); ++i)
                ASSERT_EQ(vi[i], i >= 4 && i < 4 + n ? 0 : 123)
                    << "n=" << n << " i=" << i << " backend "
                    << simd::backendName(b);
            for (const double v : values) {
                std::vector<double> got(n + 8, kSentinel);
                std::vector<double> want(n + 8, kSentinel);
                simd::fillDoubles(got.data() + 4, n, v);
                std::fill_n(want.data() + 4, n, v);
                for (std::size_t i = 0; i < got.size(); ++i)
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                              std::bit_cast<std::uint64_t>(want[i]))
                        << "n=" << n << " i=" << i << " value bits "
                        << std::hex << std::bit_cast<std::uint64_t>(v)
                        << std::dec << " backend "
                        << simd::backendName(b);
            }
        }
    }
}

// -------------------------------------------------------------- metrics

TEST(Metrics, MseAndMaxError)
{
    const std::vector<double> a = {1.0, 2.0, 3.0};
    const std::vector<double> b = {1.0, 2.5, 2.0};
    EXPECT_NEAR(mse(a, b), (0.25 + 1.0) / 3.0, 1e-12);
    EXPECT_NEAR(maxAbsError(a, b), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(mse(a, a), 0.0);
}

TEST(Metrics, CompressionStatsRatio)
{
    CompressionStats s{160, 25};
    EXPECT_NEAR(s.ratio(), 6.4, 1e-12);
    CompressionStats t{160, 0};
    EXPECT_DOUBLE_EQ(t.ratio(), 1.0);
    s += CompressionStats{40, 25};
    EXPECT_NEAR(s.ratio(), 4.0, 1e-12);
}

} // namespace
} // namespace compaqt::dsp
