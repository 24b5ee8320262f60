/**
 * @file
 * Runtime-dispatched SIMD decode kernels — the arithmetic inner loops
 * of every decode path (int-DCT inverse, the fused int-DCT window
 * decode, float DCT inverse, delta sign-magnitude expansion, RLE zero
 * runs, constant fills) behind one backend switch.
 *
 * The HEVC-style integer transform of Section IV-C was designed for
 * wide fixed-point SIMD: 32-bit coefficient lanes with 64-bit
 * accumulation map directly onto AVX2's vpmuldq/vpaddq and NEON's
 * smull/saddl, and integer addition is associative, so the vector
 * kernels are REQUIRED to be bit-exact with the scalar reference —
 * the registry property tests assert it for every size, prefix count
 * and backend. The float kernels keep the scalar accumulation order
 * per output element (no FMA contraction, no horizontal sums), so in
 * practice they too reproduce the scalar results exactly; the test
 * contract for them is epsilon-bounded equality.
 *
 * Dispatch: the backend is resolved once at startup from CPU feature
 * detection (__builtin_cpu_supports("avx2") on x86, __ARM_NEON on
 * aarch64), overridable with the COMPAQT_SIMD environment variable
 * ("scalar" | "avx2" | "neon" | "auto") for debugging and CI matrix
 * legs; a forced backend the host cannot run falls back to scalar
 * rather than faulting. setBackend() re-points the dispatch at
 * runtime (tests and benches use it to compare backends); each kernel
 * call costs one relaxed atomic load for the decision.
 *
 * The AVX2 kernels are compiled with function-level target
 * attributes, so the translation unit builds without -mavx2 and the
 * binary stays runnable on any x86-64; the dispatcher simply never
 * selects a backend the CPU lacks.
 */

#ifndef COMPAQT_DSP_SIMD_HH
#define COMPAQT_DSP_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace compaqt::dsp::simd
{

/** Kernel implementation family the dispatcher can select. */
enum class Backend
{
    Scalar, ///< portable reference loops (always available)
    Avx2,   ///< x86-64 AVX2 (4x64-bit accumulate, 4x double lanes)
    Neon,   ///< aarch64 Advanced SIMD (2x64-bit accumulate lanes)
};

/** Display name: "scalar" / "avx2" / "neon". */
std::string_view backendName(Backend b);

/** True when this build AND this CPU can run `b`'s kernels. */
bool backendSupported(Backend b);

/** Best backend the host supports (ignores the env override). */
Backend detectedBackend();

/**
 * The backend kernels currently dispatch to. First use resolves it:
 * the COMPAQT_SIMD environment variable if set (an unsupported
 * request falls back to scalar with a one-time stderr warning),
 * otherwise detectedBackend().
 */
Backend activeBackend();

/** Re-point the dispatch (tests/benches comparing backends). An
 *  unsupported backend clamps to scalar. Takes effect on the next
 *  kernel call in any thread. */
void setBackend(Backend b);

/** Environment variable consulted on first dispatch. */
inline constexpr const char *kBackendEnvVar = "COMPAQT_SIMD";

/** int32 output elements each int-IDCT inner iteration produces. */
std::size_t int32Lanes(Backend b);

/** double output elements each float-kernel iteration produces. */
std::size_t doubleLanes(Backend b);

// ------------------------------------------------------------ kernels
//
// All kernels tolerate n == 0 and overlapping is never allowed
// between inputs and outputs.

/**
 * Prefix-sparse integer IDCT: x[i] = (sum_{k<p} m[k*n+i]*y[k] +
 * round) >> ishift with int64 accumulation — the transposed-matrix
 * times coefficient-prefix product of dsp::IntDct::inverse.
 * Bit-exact across backends (integer adds commute). p == n is the
 * dense inverse. @pre ishift >= 1; n a multiple of 4 for the vector
 * paths (the dispatcher falls back to scalar otherwise).
 */
void idctPrefixInto(const std::int32_t *m, std::size_t n,
                    const std::int32_t *y, std::size_t p, int ishift,
                    std::int32_t *x);

/**
 * The int-dct window decode in one dispatch: the prefix-sparse IDCT
 * of idctPrefixInto, narrowed to int32, then converted from Q15 to
 * normalized doubles, written straight to `out` for the first `len`
 * outputs: out[i] = int32((sum_{k<p} m[k*n+i]*y[k] + round) >>
 * ishift) * 2^-15. Bit-exact on every backend with
 * dsp::IntDct::inverse followed by dsp::IntDct::dequantize, for any
 * int32 coefficients: the narrowing wraps exactly as the scalar cast
 * does, and int32 -> double and the power-of-two scale are exact.
 * @pre 1 <= ishift <= 32, len <= n; n a multiple of 4 for the vector
 *      paths (the dispatcher falls back to scalar otherwise)
 */
void idctPrefixDequantizeInto(const std::int32_t *m, std::size_t n,
                              const std::int32_t *y, std::size_t p,
                              int ishift, double *out, std::size_t len);

/**
 * Prefix-sparse float IDCT: x[i] = sum_{k<p} basis[k*n+i] * y[k],
 * accumulated in ascending k per output element — the accumulation
 * order of dsp::DctPlan::inverse, so results match the scalar kernel
 * to the last bit on backends without FMA contraction; the asserted
 * contract is epsilon-bounded equality.
 */
void floatIdctPrefixInto(const double *basis, std::size_t n,
                         const double *y, std::size_t p, double *x);

/**
 * Sign-magnitude sample patterns (bit 15 = sign, bits 0..14 =
 * magnitude) to normalized doubles: out[i] = +-(patterns[i] & 0x7fff)
 * / 32767.0. Uses a true division so the vector paths round
 * identically to the scalar one (bit-exact). @pre patterns in
 * [0, 0xffff]
 */
void signMagnitudeToDoubles(const std::int32_t *patterns,
                            std::size_t n, double *out);

/** RLE zero-run expansion, integer coefficients (memset fast path). */
void zeroRunInt32(std::int32_t *out, std::size_t n);

/**
 * Constant run: out[i] = value for i < n, bit for bit (a -0.0 or a
 * NaN payload is copied, never canonicalized). The one kernel behind
 * every constant the decode plane writes — adaptive flat segments
 * (the IDCT bypass), int-dct windows whose kept prefix is empty or
 * DC-only, and float RLE zero runs. AVX2 issues 32-byte broadcast
 * stores; the scalar path (also NEON's) is std::fill_n.
 */
void fillDoubles(double *out, std::size_t n, double value);

} // namespace compaqt::dsp::simd

#endif // COMPAQT_DSP_SIMD_HH
