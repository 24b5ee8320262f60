#include "dsp/simd.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define COMPAQT_SIMD_X86 1
#include <immintrin.h>
#endif

#if defined(__aarch64__) && defined(__ARM_NEON)
#define COMPAQT_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace compaqt::dsp::simd
{

namespace
{

// ------------------------------------------------------ scalar kernels
//
// These are the reference semantics every vector kernel must
// reproduce (bit-exact for the integer/exact-arithmetic kernels,
// within epsilon for the float IDCT). They are the former inner
// loops of IntDct / DctPlan / delta decode, moved here so the
// modeled-hardware and software paths share one definition.

void
idctPrefixScalar(const std::int32_t *m, std::size_t n,
                 const std::int32_t *y, std::size_t p, int ishift,
                 std::int32_t *x)
{
    const std::int64_t round = std::int64_t{1} << (ishift - 1);
    for (std::size_t i = 0; i < n; ++i) {
        std::int64_t acc = 0;
        for (std::size_t k = 0; k < p; ++k)
            acc += std::int64_t{m[k * n + i]} * y[k];
        x[i] = static_cast<std::int32_t>((acc + round) >> ishift);
    }
}

void
idctPrefixDequantizeScalar(const std::int32_t *m, std::size_t n,
                           const std::int32_t *y, std::size_t p,
                           int ishift, double *out, std::size_t len)
{
    // Multiplying by the power of two 2^-15 is exact, identical to
    // IntDct::dequantize's ldexp(v, -15).
    const std::int64_t round = std::int64_t{1} << (ishift - 1);
    for (std::size_t i = 0; i < len; ++i) {
        std::int64_t acc = 0;
        for (std::size_t k = 0; k < p; ++k)
            acc += std::int64_t{m[k * n + i]} * y[k];
        out[i] = static_cast<double>(static_cast<std::int32_t>(
                     (acc + round) >> ishift)) *
                 0x1p-15;
    }
}

void
floatIdctPrefixScalar(const double *basis, std::size_t n,
                      const double *y, std::size_t p, double *x)
{
    for (std::size_t i = 0; i < n; ++i)
        x[i] = 0.0;
    for (std::size_t k = 0; k < p; ++k) {
        const double *row = basis + k * n;
        const double yk = y[k];
        for (std::size_t i = 0; i < n; ++i)
            x[i] += row[i] * yk;
    }
}

void
signMagnitudeScalar(const std::int32_t *patterns, std::size_t n,
                    double *out)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t p = patterns[i];
        const double mag =
            static_cast<double>(p & 0x7fff) / 32767.0;
        out[i] = (p & 0x8000) ? -mag : mag;
    }
}

// -------------------------------------------------------- AVX2 kernels
//
// Compiled with function-level target attributes so this TU needs no
// -mavx2 baseline; GCC/Clang will not inline them into untargeted
// callers, and the dispatcher only selects them on CPUs with AVX2.

#if COMPAQT_SIMD_X86

__attribute__((target("avx2"))) void
idctPrefixAvx2(const std::int32_t *m, std::size_t n,
               const std::int32_t *y, std::size_t p, int ishift,
               std::int32_t *x)
{
    // Vectorize over the output index: 4 int64 accumulators per
    // iteration, one per output element, so the per-element term
    // order is exactly the scalar kernel's. vpmuldq sign-extends the
    // low 32 bits of each 64-bit lane — an exact int32 x int32 ->
    // int64 product — and int64 adds cannot round, so the result is
    // bit-exact by construction. AVX2 has no 64-bit arithmetic right
    // shift; the final rounded shift runs scalar on the spilled
    // accumulators.
    const std::int64_t round = std::int64_t{1} << (ishift - 1);
    for (std::size_t i = 0; i < n; i += 4) {
        __m256i acc = _mm256_setzero_si256();
        for (std::size_t k = 0; k < p; ++k) {
            const __m128i row = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(m + k * n + i));
            const __m256i row64 = _mm256_cvtepi32_epi64(row);
            const __m256i yk = _mm256_set1_epi64x(y[k]);
            acc = _mm256_add_epi64(acc,
                                   _mm256_mul_epi32(row64, yk));
        }
        alignas(32) std::int64_t lanes[4];
        _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
        x[i + 0] =
            static_cast<std::int32_t>((lanes[0] + round) >> ishift);
        x[i + 1] =
            static_cast<std::int32_t>((lanes[1] + round) >> ishift);
        x[i + 2] =
            static_cast<std::int32_t>((lanes[2] + round) >> ishift);
        x[i + 3] =
            static_cast<std::int32_t>((lanes[3] + round) >> ishift);
    }
}

__attribute__((target("avx2"))) void
idctPrefixDequantizeAvx2(const std::int32_t *m, std::size_t n,
                         const std::int32_t *y, std::size_t p,
                         int ishift, double *out, std::size_t len)
{
    // idctPrefixAvx2's accumulation, seeded with the rounding term
    // (integer adds commute), then finished in registers. AVX2 has no
    // 64-bit arithmetic right shift, and none is needed: the scalar
    // kernel keeps only the low 32 bits of the shifted sum, and a
    // logical shift by ishift <= 32 differs from the arithmetic one
    // only in the top ishift bits. vpermd gathers the low dwords;
    // int32 -> double and the 2^-15 scale are exact.
    const __m256i round =
        _mm256_set1_epi64x(std::int64_t{1} << (ishift - 1));
    const __m128i shift = _mm_cvtsi32_si128(ishift);
    const __m256i lowDwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    const __m256d scale = _mm256_set1_pd(0x1p-15);
    for (std::size_t i = 0; i < len; i += 4) {
        __m256i acc = round;
        for (std::size_t k = 0; k < p; ++k) {
            const __m128i row = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(m + k * n + i));
            acc = _mm256_add_epi64(
                acc, _mm256_mul_epi32(_mm256_cvtepi32_epi64(row),
                                      _mm256_set1_epi64x(y[k])));
        }
        const __m128i x = _mm256_castsi256_si128(
            _mm256_permutevar8x32_epi32(_mm256_srl_epi64(acc, shift),
                                        lowDwords));
        const __m256d d = _mm256_mul_pd(_mm256_cvtepi32_pd(x), scale);
        if (i + 4 <= len) {
            _mm256_storeu_pd(out + i, d);
        } else {
            alignas(32) double tail[4];
            _mm256_store_pd(tail, d);
            std::memcpy(out + i, tail, (len - i) * sizeof(double));
        }
    }
}

__attribute__((target("avx2"))) void
floatIdctPrefixAvx2(const double *basis, std::size_t n,
                    const double *y, std::size_t p, double *x)
{
    // 4 output elements per iteration, accumulating k in ascending
    // order with separate mul + add (no FMA contraction), so each
    // lane performs the scalar kernel's operation sequence verbatim.
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256d acc = _mm256_setzero_pd();
        for (std::size_t k = 0; k < p; ++k) {
            const __m256d row = _mm256_loadu_pd(basis + k * n + i);
            const __m256d yk = _mm256_set1_pd(y[k]);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(row, yk));
        }
        _mm256_storeu_pd(x + i, acc);
    }
    for (; i < n; ++i) {
        double acc = 0.0;
        for (std::size_t k = 0; k < p; ++k)
            acc += basis[k * n + i] * y[k];
        x[i] = acc;
    }
}

__attribute__((target("avx2"))) void
signMagnitudeAvx2(const std::int32_t *patterns, std::size_t n,
                  double *out)
{
    // A true vdivpd by 32767.0 keeps the rounding identical to the
    // scalar division (a reciprocal multiply would not); the sign is
    // applied by XORing the IEEE sign bit, exactly the scalar
    // negation.
    const __m128i magMask = _mm_set1_epi32(0x7fff);
    const __m128i signBit = _mm_set1_epi32(0x8000);
    const __m256d denom = _mm256_set1_pd(32767.0);
    const __m256d negZero = _mm256_set1_pd(-0.0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(patterns + i));
        const __m256d mag = _mm256_cvtepi32_pd(
            _mm_and_si128(v, magMask));
        const __m256d d = _mm256_div_pd(mag, denom);
        // Per-lane 64-bit all-ones where the sign bit was set.
        const __m256i neg64 = _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(
            _mm_and_si128(v, signBit), signBit));
        const __m256d flip = _mm256_and_pd(
            _mm256_castsi256_pd(neg64), negZero);
        _mm256_storeu_pd(out + i, _mm256_xor_pd(d, flip));
    }
    for (; i < n; ++i) {
        const std::int32_t p = patterns[i];
        const double mag =
            static_cast<double>(p & 0x7fff) / 32767.0;
        out[i] = (p & 0x8000) ? -mag : mag;
    }
}

__attribute__((target("avx2"))) void
fillAvx2(double *out, std::size_t n, double value)
{
    // Every lane holds the same bits, so the last four samples are
    // one unaligned store that may overlap the loop's final store;
    // only runs shorter than a vector store one sample at a time.
    if (n < 4) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = value;
        return;
    }
    const __m256d v = _mm256_set1_pd(value);
    for (std::size_t i = 0; i + 4 < n; i += 4)
        _mm256_storeu_pd(out + i, v);
    _mm256_storeu_pd(out + n - 4, v);
}

#endif // COMPAQT_SIMD_X86

// -------------------------------------------------------- NEON kernels

#if COMPAQT_SIMD_NEON

void
idctPrefixNeon(const std::int32_t *m, std::size_t n,
               const std::int32_t *y, std::size_t p, int ishift,
               std::int32_t *x)
{
    // Two int64 accumulator lanes per iteration via smull (exact
    // widening multiply); same bit-exactness argument as AVX2.
    const std::int64_t round = std::int64_t{1} << (ishift - 1);
    for (std::size_t i = 0; i < n; i += 4) {
        int64x2_t accLo = vdupq_n_s64(0);
        int64x2_t accHi = vdupq_n_s64(0);
        for (std::size_t k = 0; k < p; ++k) {
            const int32x4_t row = vld1q_s32(m + k * n + i);
            accLo = vaddq_s64(
                accLo, vmull_n_s32(vget_low_s32(row), y[k]));
            accHi = vaddq_s64(
                accHi, vmull_n_s32(vget_high_s32(row), y[k]));
        }
        std::int64_t lanes[4];
        vst1q_s64(lanes, accLo);
        vst1q_s64(lanes + 2, accHi);
        x[i + 0] =
            static_cast<std::int32_t>((lanes[0] + round) >> ishift);
        x[i + 1] =
            static_cast<std::int32_t>((lanes[1] + round) >> ishift);
        x[i + 2] =
            static_cast<std::int32_t>((lanes[2] + round) >> ishift);
        x[i + 3] =
            static_cast<std::int32_t>((lanes[3] + round) >> ishift);
    }
}

void
idctPrefixDequantizeNeon(const std::int32_t *m, std::size_t n,
                         const std::int32_t *y, std::size_t p,
                         int ishift, double *out, std::size_t len)
{
    // idctPrefixNeon's accumulation seeded with the rounding term;
    // sshl by -ishift is the arithmetic right shift and xtn keeps the
    // low 32 bits, exactly the scalar int32 cast.
    const int64x2_t round = vdupq_n_s64(std::int64_t{1} << (ishift - 1));
    const int64x2_t shift = vdupq_n_s64(-ishift);
    const float64x2_t scale = vdupq_n_f64(0x1p-15);
    for (std::size_t i = 0; i < len; i += 4) {
        int64x2_t accLo = round;
        int64x2_t accHi = round;
        for (std::size_t k = 0; k < p; ++k) {
            const int32x4_t row = vld1q_s32(m + k * n + i);
            accLo = vaddq_s64(
                accLo, vmull_n_s32(vget_low_s32(row), y[k]));
            accHi = vaddq_s64(
                accHi, vmull_n_s32(vget_high_s32(row), y[k]));
        }
        const int32x2_t lo = vmovn_s64(vshlq_s64(accLo, shift));
        const int32x2_t hi = vmovn_s64(vshlq_s64(accHi, shift));
        double lanes[4];
        vst1q_f64(lanes,
                  vmulq_f64(vcvtq_f64_s64(vmovl_s32(lo)), scale));
        vst1q_f64(lanes + 2,
                  vmulq_f64(vcvtq_f64_s64(vmovl_s32(hi)), scale));
        std::memcpy(out + i, lanes,
                    std::min<std::size_t>(4, len - i) * sizeof(double));
    }
}

void
floatIdctPrefixNeon(const double *basis, std::size_t n,
                    const double *y, std::size_t p, double *x)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        float64x2_t acc = vdupq_n_f64(0.0);
        for (std::size_t k = 0; k < p; ++k) {
            const float64x2_t row = vld1q_f64(basis + k * n + i);
            acc = vaddq_f64(acc, vmulq_n_f64(row, y[k]));
        }
        vst1q_f64(x + i, acc);
    }
    for (; i < n; ++i) {
        double acc = 0.0;
        for (std::size_t k = 0; k < p; ++k)
            acc += basis[k * n + i] * y[k];
        x[i] = acc;
    }
}

void
signMagnitudeNeon(const std::int32_t *patterns, std::size_t n,
                  double *out)
{
    const float64x2_t denom = vdupq_n_f64(32767.0);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const int32x2_t v = vld1_s32(patterns + i);
        const int32x2_t mag32 = vand_s32(v, vdup_n_s32(0x7fff));
        const float64x2_t mag =
            vcvtq_f64_s64(vmovl_s32(mag32));
        const float64x2_t d = vdivq_f64(mag, denom);
        // 64-bit all-ones per lane whose sign bit was set; AND with
        // -0.0 then XOR flips exactly the IEEE sign bit.
        const uint64x2_t neg = vmovl_u32(vceq_u32(
            vand_u32(vreinterpret_u32_s32(v), vdup_n_u32(0x8000u)),
            vdup_n_u32(0x8000u)));
        const uint64x2_t flip = vandq_u64(
            neg, vreinterpretq_u64_f64(vdupq_n_f64(-0.0)));
        vst1q_f64(out + i,
                  vreinterpretq_f64_u64(veorq_u64(
                      vreinterpretq_u64_f64(d), flip)));
    }
    for (; i < n; ++i) {
        const std::int32_t p = patterns[i];
        const double mag =
            static_cast<double>(p & 0x7fff) / 32767.0;
        out[i] = (p & 0x8000) ? -mag : mag;
    }
}

#endif // COMPAQT_SIMD_NEON

// ----------------------------------------------------------- dispatch

bool
cpuHasAvx2()
{
#if COMPAQT_SIMD_X86 && defined(__GNUC__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

Backend
parseBackend(const char *name, bool &ok)
{
    ok = true;
    if (std::strcmp(name, "scalar") == 0)
        return Backend::Scalar;
    if (std::strcmp(name, "avx2") == 0)
        return Backend::Avx2;
    if (std::strcmp(name, "neon") == 0)
        return Backend::Neon;
    if (std::strcmp(name, "auto") == 0)
        return detectedBackend();
    ok = false;
    return Backend::Scalar;
}

Backend
resolveInitial()
{
    const char *env = std::getenv(kBackendEnvVar);
    if (env == nullptr || *env == '\0')
        return detectedBackend();
    bool ok = false;
    const Backend requested = parseBackend(env, ok);
    if (!ok) {
        std::fprintf(stderr,
                     "compaqt: unknown %s value \"%s\" "
                     "(scalar|avx2|neon|auto); using scalar\n",
                     kBackendEnvVar, env);
        return Backend::Scalar;
    }
    if (!backendSupported(requested)) {
        std::fprintf(
            stderr,
            "compaqt: %s=%s not supported on this host; "
            "falling back to scalar\n",
            kBackendEnvVar, env);
        return Backend::Scalar;
    }
    return requested;
}

std::atomic<Backend> &
backendState()
{
    // Function-local so the env override resolves exactly once, on
    // the first kernel call or query, regardless of static-init
    // order across TUs.
    static std::atomic<Backend> state{resolveInitial()};
    return state;
}

} // namespace

std::string_view
backendName(Backend b)
{
    switch (b) {
    case Backend::Avx2:
        return "avx2";
    case Backend::Neon:
        return "neon";
    case Backend::Scalar:
        break;
    }
    return "scalar";
}

bool
backendSupported(Backend b)
{
    switch (b) {
    case Backend::Scalar:
        return true;
    case Backend::Avx2:
        return cpuHasAvx2();
    case Backend::Neon:
#if COMPAQT_SIMD_NEON
        return true;
#else
        return false;
#endif
    }
    return false;
}

Backend
detectedBackend()
{
#if COMPAQT_SIMD_NEON
    return Backend::Neon;
#else
    return cpuHasAvx2() ? Backend::Avx2 : Backend::Scalar;
#endif
}

Backend
activeBackend()
{
    return backendState().load(std::memory_order_relaxed);
}

void
setBackend(Backend b)
{
    if (!backendSupported(b))
        b = Backend::Scalar;
    backendState().store(b, std::memory_order_relaxed);
}

std::size_t
int32Lanes(Backend b)
{
    switch (b) {
    case Backend::Avx2:
    case Backend::Neon:
        return 4; // 4 int64 accumulator lanes per iteration
    case Backend::Scalar:
        break;
    }
    return 1;
}

std::size_t
doubleLanes(Backend b)
{
    switch (b) {
    case Backend::Avx2:
        return 4;
    case Backend::Neon:
        return 2;
    case Backend::Scalar:
        break;
    }
    return 1;
}

void
idctPrefixInto(const std::int32_t *m, std::size_t n,
               const std::int32_t *y, std::size_t p, int ishift,
               std::int32_t *x)
{
    // The vector paths assume n % 4 == 0 (true for every HEVC size);
    // anything else falls through to scalar.
    switch (n % 4 == 0 ? activeBackend() : Backend::Scalar) {
#if COMPAQT_SIMD_X86
    case Backend::Avx2:
        idctPrefixAvx2(m, n, y, p, ishift, x);
        return;
#endif
#if COMPAQT_SIMD_NEON
    case Backend::Neon:
        idctPrefixNeon(m, n, y, p, ishift, x);
        return;
#endif
    default:
        idctPrefixScalar(m, n, y, p, ishift, x);
        return;
    }
}

void
idctPrefixDequantizeInto(const std::int32_t *m, std::size_t n,
                         const std::int32_t *y, std::size_t p,
                         int ishift, double *out, std::size_t len)
{
    switch (n % 4 == 0 ? activeBackend() : Backend::Scalar) {
#if COMPAQT_SIMD_X86
    case Backend::Avx2:
        idctPrefixDequantizeAvx2(m, n, y, p, ishift, out, len);
        return;
#endif
#if COMPAQT_SIMD_NEON
    case Backend::Neon:
        idctPrefixDequantizeNeon(m, n, y, p, ishift, out, len);
        return;
#endif
    default:
        idctPrefixDequantizeScalar(m, n, y, p, ishift, out, len);
        return;
    }
}

void
floatIdctPrefixInto(const double *basis, std::size_t n,
                    const double *y, std::size_t p, double *x)
{
    switch (activeBackend()) {
#if COMPAQT_SIMD_X86
    case Backend::Avx2:
        floatIdctPrefixAvx2(basis, n, y, p, x);
        return;
#endif
#if COMPAQT_SIMD_NEON
    case Backend::Neon:
        floatIdctPrefixNeon(basis, n, y, p, x);
        return;
#endif
    default:
        floatIdctPrefixScalar(basis, n, y, p, x);
        return;
    }
}

void
signMagnitudeToDoubles(const std::int32_t *patterns, std::size_t n,
                       double *out)
{
    switch (activeBackend()) {
#if COMPAQT_SIMD_X86
    case Backend::Avx2:
        signMagnitudeAvx2(patterns, n, out);
        return;
#endif
#if COMPAQT_SIMD_NEON
    case Backend::Neon:
        signMagnitudeNeon(patterns, n, out);
        return;
#endif
    default:
        signMagnitudeScalar(patterns, n, out);
        return;
    }
}

void
zeroRunInt32(std::int32_t *out, std::size_t n)
{
    if (n > 0)
        std::memset(out, 0, n * sizeof(std::int32_t));
}

void
fillDoubles(double *out, std::size_t n, double value)
{
    switch (activeBackend()) {
#if COMPAQT_SIMD_X86
    case Backend::Avx2:
        fillAvx2(out, n, value);
        return;
#endif
    default:
        std::fill_n(out, n, value);
        return;
    }
}

} // namespace compaqt::dsp::simd
