#include "dsp/int_dct.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "dsp/simd.hh"

namespace compaqt::dsp
{

namespace
{

// Canonical HEVC coefficient arrays: the distinct magnitudes appearing
// in the odd rows of each transform size. These are the standardized
// values (slightly tuned away from round(64*sqrt(N)*cos) for
// orthogonality), see Sze/Budagavi/Sullivan, "High Efficiency Video
// Coding", ch. 6.
constexpr std::array<int, 1> kOdd2 = {64};
constexpr std::array<int, 2> kOdd4 = {83, 36};
constexpr std::array<int, 4> kOdd8 = {89, 75, 50, 18};
constexpr std::array<int, 8> kOdd16 = {90, 87, 80, 70, 57, 43, 25, 9};
constexpr std::array<int, 16> kOdd32 = {90, 90, 88, 85, 82, 78, 73, 67,
                                        61, 54, 46, 38, 31, 22, 13, 4};

int
oddCoeff(std::size_t n_eff, std::size_t idx)
{
    switch (n_eff) {
      case 2:
        return kOdd2[idx];
      case 4:
        return kOdd4[idx];
      case 8:
        return kOdd8[idx];
      case 16:
        return kOdd16[idx];
      case 32:
        return kOdd32[idx];
      default:
        COMPAQT_PANIC("unsupported integer DCT size");
    }
}

/**
 * Entry [k][i] of the n-point HEVC transform matrix, built from the
 * canonical arrays. Row 0 is all 64s; any other row k reduces to the
 * odd row k' = k >> countr_zero(k) of the (n >> countr_zero(k))-point
 * matrix, whose entries are signed folds of the canonical array.
 */
int
matrixEntry(std::size_t n, std::size_t k, std::size_t i)
{
    if (k == 0)
        return 64;
    const int a = std::countr_zero(k);
    const std::size_t k_odd = k >> a;
    const std::size_t n_eff = n >> a;

    // Angle in units of pi / (2 * n_eff): cos(m * pi / (2 n_eff)).
    std::size_t m = ((2 * i + 1) * k_odd) % (4 * n_eff);
    int sign = 1;
    if (m > 2 * n_eff)
        m = 4 * n_eff - m; // cos(2pi - t) == cos(t)
    if (m > n_eff) {
        sign = -1; // cos(pi - t) == -cos(t)
        m = 2 * n_eff - m;
    }
    // m is odd (product of odd factors), so m != n_eff and the lookup
    // index (m - 1) / 2 addresses the canonical array directly.
    return sign * oddCoeff(n_eff, (m - 1) / 2);
}

int
log2Size(std::size_t n)
{
    return std::countr_zero(n);
}

} // namespace

bool
intDctSupported(std::size_t n)
{
    return n == 4 || n == 8 || n == 16 || n == 32;
}

IntDct::IntDct(std::size_t n)
    : n_(n)
{
    COMPAQT_REQUIRE(intDctSupported(n),
                    "IntDct supports only N in {4, 8, 16, 32}");
    // Forward and inverse shifts split the total matrix gain
    // M M^T = (64 sqrt(N))^2 = 2^(12 + log2 N).
    const int total = 12 + log2Size(n);
    fshift_ = (total + 1) / 2;
    ishift_ = total - fshift_;

    m_.resize(n * n);
    for (std::size_t k = 0; k < n; ++k)
        for (std::size_t i = 0; i < n; ++i)
            m_[k * n + i] = matrixEntry(n, k, i);
}

int
IntDct::coeff(std::size_t k, std::size_t i) const
{
    COMPAQT_REQUIRE(k < n_ && i < n_, "IntDct::coeff out of range");
    return m_[k * n_ + i];
}

double
IntDct::coefficientScale() const
{
    const double s = 64.0 * std::sqrt(static_cast<double>(n_));
    return s * std::ldexp(1.0, kInputFractionBits - fshift_);
}

std::int32_t
IntDct::quantize(double x)
{
    const double scaled = std::round(std::ldexp(x, kInputFractionBits));
    const double limit = std::ldexp(1.0, kInputFractionBits) - 1.0;
    return static_cast<std::int32_t>(std::clamp(scaled, -limit, limit));
}

double
IntDct::dequantize(std::int32_t x)
{
    return std::ldexp(static_cast<double>(x), -kInputFractionBits);
}

void
IntDct::forward(std::span<const std::int32_t> x,
                std::span<std::int32_t> y) const
{
    COMPAQT_REQUIRE(x.size() == n_ && y.size() == n_,
                    "IntDct::forward size mismatch");
    const std::int64_t round = std::int64_t{1} << (fshift_ - 1);
    for (std::size_t k = 0; k < n_; ++k) {
        std::int64_t acc = 0;
        for (std::size_t i = 0; i < n_; ++i)
            acc += std::int64_t{m_[k * n_ + i]} * x[i];
        y[k] = static_cast<std::int32_t>((acc + round) >> fshift_);
    }
}

void
IntDct::inverse(std::span<const std::int32_t> y,
                std::span<std::int32_t> x) const
{
    COMPAQT_REQUIRE(x.size() == n_ && y.size() == n_,
                    "IntDct::inverse size mismatch");
    simd::idctPrefixInto(m_.data(), n_, y.data(), n_, ishift_,
                         x.data());
}

void
IntDct::decodePrefix(std::span<const std::int32_t> prefix,
                     std::span<double> out) const
{
    COMPAQT_REQUIRE(prefix.size() <= n_ && out.size() <= n_,
                    "IntDct::decodePrefix size mismatch");
    // A window that kept at most its DC term is one constant: row 0
    // is all 64s, so every sample is the fused kernel's value for
    // i = 0 (0.0 for an empty prefix), written by one fill. Scaling
    // by 2^-15 is exact, so it equals dequantize() without its libm
    // call.
    if (prefix.size() <= 1) {
        const std::int64_t dc =
            prefix.empty() ? 0 : std::int64_t{64} * prefix[0];
        const std::int64_t round = std::int64_t{1} << (ishift_ - 1);
        const auto x = static_cast<std::int32_t>((dc + round) >> ishift_);
        simd::fillDoubles(out.data(), out.size(),
                          static_cast<double>(x) * 0x1p-15);
        return;
    }
    // Column-major walk of the same terms inverse() accumulates; the
    // k >= prefix.size() terms are zero and drop out exactly.
    simd::idctPrefixDequantizeInto(m_.data(), n_, prefix.data(),
                                   prefix.size(), ishift_, out.data(),
                                   out.size());
}

void
IntDct::butterflyCore(std::span<const std::int64_t> y,
                      std::span<std::int64_t> x, std::size_t n,
                      OpCounter *counter, int id_base) const
{
    if (n == 2) {
        // 2-point base: x0 = 64 y0 + 64 y1, x1 = 64 y0 - 64 y1.
        const std::int64_t a = multiplyShiftAdd(64, y[0]);
        const std::int64_t b = multiplyShiftAdd(64, y[1]);
        x[0] = a + b;
        x[1] = a - b;
        if (counter) {
            counter->addConstantMultiply(id_base + 0, 64);
            counter->addConstantMultiply(id_base + 1, 64);
            counter->addAdder(2);
        }
        return;
    }

    const std::size_t half = n / 2;

    // Even part: recurse on the even-indexed coefficients, which see
    // exactly the (n/2)-point matrix.
    std::vector<std::int64_t> ye(half), e(half);
    for (std::size_t j = 0; j < half; ++j)
        ye[j] = y[2 * j];
    butterflyCore(ye, e, half, counter, id_base + static_cast<int>(n));

    // Odd part: dense product with the odd rows (first-half columns).
    std::vector<std::int64_t> o(half, 0);
    for (std::size_t i = 0; i < half; ++i) {
        for (std::size_t j = 0; j < half; ++j) {
            const int c = matrixEntry(n, 2 * j + 1, i);
            o[i] += multiplyShiftAdd(c, y[2 * j + 1]);
            if (counter)
                counter->addConstantMultiply(
                    id_base + static_cast<int>(j), c);
        }
        if (counter)
            counter->addAdder(static_cast<int>(half) - 1);
    }

    // Output butterfly.
    for (std::size_t i = 0; i < half; ++i) {
        x[i] = e[i] + o[i];
        x[n - 1 - i] = e[i] - o[i];
    }
    if (counter)
        counter->addAdder(static_cast<int>(n));
}

void
IntDct::inverseButterfly(std::span<const std::int32_t> y,
                         std::span<std::int32_t> x,
                         OpCounter *counter) const
{
    COMPAQT_REQUIRE(x.size() == n_ && y.size() == n_,
                    "IntDct::inverseButterfly size mismatch");
    std::vector<std::int64_t> yw(n_), xw(n_);
    for (std::size_t i = 0; i < n_; ++i)
        yw[i] = y[i];
    butterflyCore(yw, xw, n_, counter, 0);
    const std::int64_t round = std::int64_t{1} << (ishift_ - 1);
    for (std::size_t i = 0; i < n_; ++i)
        x[i] = static_cast<std::int32_t>((xw[i] + round) >> ishift_);
}

void
IntDct::countMultiplierIdct(OpCounter &counter) const
{
    // Published minimum-multiplier factorizations (Loeffler [42] for 8,
    // its 16-point extension quoted by the paper in Section IV-C).
    if (n_ == 8) {
        for (int i = 0; i < 11; ++i)
            counter.addMultiplier();
        counter.addAdder(29);
        return;
    }
    if (n_ == 16) {
        for (int i = 0; i < 26; ++i)
            counter.addMultiplier();
        counter.addAdder(81);
        return;
    }
    // Fallback: dense odd part plus recursive even part.
    std::size_t n = n_;
    int mults = 0, adds = 0;
    while (n > 2) {
        const int half = static_cast<int>(n / 2);
        mults += half * half;
        adds += half * (half - 1) + static_cast<int>(n);
        n /= 2;
    }
    mults += 2;
    adds += 2;
    for (int i = 0; i < mults; ++i)
        counter.addMultiplier();
    counter.addAdder(adds);
}

} // namespace compaqt::dsp
