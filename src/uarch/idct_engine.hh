/**
 * @file
 * Stage 2 of the decompression pipeline (Fig 10): the hardware IDCT.
 * The int-DCT-W engine is the multiplierless shift-add datapath with
 * a constant one-cycle latency (Section V-B); the DCT-W engine is the
 * multiplier-based (Loeffler-style) alternative, pipelined with a
 * deeper latency, kept for the Fig 16 / Table IV comparisons.
 */

#ifndef COMPAQT_UARCH_IDCT_ENGINE_HH
#define COMPAQT_UARCH_IDCT_ENGINE_HH

#include <cstdint>
#include <memory>
#include <span>

#include "dsp/int_dct.hh"

namespace compaqt::uarch
{

/** Engine flavor (Table II). */
enum class EngineKind
{
    IntDctW, ///< shift-add, 1-cycle latency
    DctW,    ///< multiplier-based, pipelined (latency 4)
};

/**
 * Cycle- and op-counting IDCT engine; functionally bit-exact with
 * dsp::IntDct::inverse (the software golden model).
 */
class IdctEngine
{
  public:
    IdctEngine(EngineKind kind, std::size_t window_size);

    EngineKind kind() const { return kind_; }
    std::size_t windowSize() const { return ws_; }

    /** Pipeline latency in fabric cycles. */
    int latency() const;

    /**
     * Transform one expanded coefficient window into caller-owned
     * memory — the zero-allocation primitive the streaming pipeline
     * drives. @pre coeffs.size() == out.size() == windowSize()
     *
     * The first int-DCT-W invocation runs the shift-add butterfly
     * (which tallies the Table IV datapath into ops()); steady-state
     * invocations run the dsp::simd-dispatched matrix inverse, which
     * is bit-exact with the butterfly, so the functional model keeps
     * hardware fidelity while decoding at SIMD speed.
     */
    void transformInto(std::span<const std::int32_t> coeffs,
                       std::span<std::int32_t> out);

    /**
     * Transform `nwin` consecutive expanded windows — coeffs packed
     * at windowSize() stride, outputs likewise. Equivalent to nwin
     * transformInto() calls (cycle/op accounting included); the
     * batch form exists so the fused decompression pipeline drives
     * one engine call per miss run.
     * @pre coeffs.size() == out.size() == nwin * windowSize()
     */
    void transformBatchInto(std::span<const std::int32_t> coeffs,
                            std::span<std::int32_t> out,
                            std::size_t nwin);

    /** Windows transformed. */
    std::uint64_t invocations() const { return invocations_; }

    /** Datapath operation tallies (Table IV). */
    const dsp::OpCounter &ops() const { return ops_; }

  private:
    EngineKind kind_;
    std::size_t ws_;
    dsp::IntDct xform_;
    dsp::OpCounter ops_;
    std::uint64_t invocations_ = 0;
    bool opsCounted_ = false;
};

} // namespace compaqt::uarch

#endif // COMPAQT_UARCH_IDCT_ENGINE_HH
