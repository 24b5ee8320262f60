/**
 * @file
 * Integer DCT/IDCT consistent with the HEVC core transform (Section
 * IV-C, citing [72]). Supported sizes: 4, 8, 16, 32.
 *
 * The transform matrix M approximates S * C where C is the orthonormal
 * DCT-II basis and S = 2^(6 + log2(N)/2) = 64*sqrt(N) is the constant
 * scaling factor from the paper. Matrix entries are built from the
 * canonical HEVC coefficient arrays (e.g.\ {64, 83, 36} for N=4,
 * {89, 75, 50, 18} for the odd rows of N=8), not from naive rounding —
 * HEVC tuned several entries away from round(S*C) for orthogonality.
 *
 * Fixed-point pipeline (bit-exact across software compress and the
 * hardware decompression engine):
 *   - input samples are Q15: x_int = round(x * 2^15), |x| <= 1
 *   - forward:  y = (M  x_int) >> fshift   (compile-time, int64 accum)
 *   - inverse:  x = (M^T y  + r) >> ishift (runtime engine, rounded)
 * with fshift + ishift = 12 + log2(N) so that M M^T = 4096*N*I cancels
 * exactly and idct(dct(x)) == x up to rounding.
 */

#ifndef COMPAQT_DSP_INT_DCT_HH
#define COMPAQT_DSP_INT_DCT_HH

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/shift_add.hh"

namespace compaqt::dsp
{

/** True for the HEVC-supported sizes 4, 8, 16, 32. */
bool intDctSupported(std::size_t n);

/**
 * N-point HEVC-style integer transform pair.
 */
class IntDct
{
  public:
    /** Fraction bits of the Q-format sample representation. */
    static constexpr int kInputFractionBits = 15;

    /** Largest supported transform size. */
    static constexpr std::size_t kMaxSize = 32;

    /** @param n transform size; must satisfy intDctSupported(n). */
    explicit IntDct(std::size_t n);

    std::size_t size() const { return n_; }

    /** Transform matrix entry M[k][i]. */
    int coeff(std::size_t k, std::size_t i) const;

    /** Right-shift applied after the forward matrix product. */
    int forwardShift() const { return fshift_; }

    /** Right-shift applied after the inverse matrix product. */
    int inverseShift() const { return ishift_; }

    /**
     * Conversion factor between normalized waveform amplitude and
     * integer coefficient units: a pure orthonormal-domain coefficient
     * of magnitude m maps to an integer coefficient of about
     * m * coefficientScale().
     */
    double coefficientScale() const;

    /** Quantize a normalized sample to Q15 with saturation. */
    static std::int32_t quantize(double x);

    /** Dequantize a Q15 sample back to a normalized double. */
    static double dequantize(std::int32_t x);

    /** Forward transform of one window. @pre sizes == size() */
    void forward(std::span<const std::int32_t> x,
                 std::span<std::int32_t> y) const;

    /**
     * Inverse transform via the full matrix product (reference
     * model), dispatched through the dsp::simd kernels — every
     * backend is bit-exact with the scalar integer accumulation.
     * @pre sizes == size()
     */
    void inverse(std::span<const std::int32_t> y,
                 std::span<std::int32_t> x) const;

    /**
     * Decode one window from its coefficient prefix: the remaining
     * size() - prefix.size() coefficients are an implied zero run
     * (exactly what the RLE codeword encodes), and zero terms
     * contribute nothing to an integer accumulation, so out[i] is
     * bit-exact with dequantize(inverse(zero-extended window)[i])
     * while doing only prefix.size() multiplies per sample. Writes
     * the first out.size() samples (a clamped tail window asks for
     * fewer). This is the decode-plane hot kernel, one fused
     * dsp::simd dispatch: thresholded windows keep only a few
     * coefficients, so skipping the zeros is where COMPAQT's
     * compression pays off in decode throughput too. A prefix of
     * length <= 1 is a constant window (row 0 of the matrix is all
     * 64s): one computed value written by dsp::simd::fillDoubles,
     * bit-exact with the fused kernel.
     * @pre prefix.size() <= size(), out.size() <= size()
     */
    void decodePrefix(std::span<const std::int32_t> prefix,
                      std::span<double> out) const;

    /**
     * Inverse transform via the HEVC partial butterfly with every
     * constant multiply expanded to CSD shift-adds — the functional
     * model of the hardware engine. Bit-exact with inverse().
     *
     * @param counter if non-null, tallies the adders/shifters the
     *        engine would instantiate (Table IV).
     */
    void inverseButterfly(std::span<const std::int32_t> y,
                          std::span<std::int32_t> x,
                          OpCounter *counter = nullptr) const;

    /**
     * Tally the operations of a multiplier-based (Loeffler-style) IDCT
     * at this size, for the DCT-W rows of Table IV. The 8- and
     * 16-point counts are the published minima from Loeffler [42]
     * (11 mult / 29 add and 26 mult / 81 add); other sizes fall back
     * to the dense even/odd factorization.
     */
    void countMultiplierIdct(OpCounter &counter) const;

  private:
    /** Unshifted inverse butterfly used by the recursion. */
    void butterflyCore(std::span<const std::int64_t> y,
                       std::span<std::int64_t> x, std::size_t n,
                       OpCounter *counter, int id_base) const;

    std::size_t n_;
    int fshift_;
    int ishift_;
    /** Row-major n_ x n_ transform matrix (int32 lanes, the layout
     *  the dsp::simd IDCT kernels consume directly). */
    std::vector<std::int32_t> m_;
};

} // namespace compaqt::dsp

#endif // COMPAQT_DSP_INT_DCT_HH
