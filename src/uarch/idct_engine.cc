#include "uarch/idct_engine.hh"

#include "common/logging.hh"

namespace compaqt::uarch
{

IdctEngine::IdctEngine(EngineKind kind, std::size_t window_size)
    : kind_(kind), ws_(window_size), xform_(window_size)
{
}

int
IdctEngine::latency() const
{
    // int-DCT-W: constant one-cycle latency (Section V-B). DCT-W:
    // multiplier + accumulation stages pipelined over four cycles.
    return kind_ == EngineKind::IntDctW ? 1 : 4;
}

void
IdctEngine::transformInto(std::span<const std::int32_t> coeffs,
                          std::span<std::int32_t> out)
{
    COMPAQT_REQUIRE(coeffs.size() == ws_,
                    "IDCT engine fed wrong window size");
    COMPAQT_REQUIRE(out.size() == ws_,
                    "IDCT engine output span has wrong size");
    if (kind_ == EngineKind::IntDctW) {
        // First window: run the shift-add butterfly and tally the
        // datapath it instantiates (counted once — hardware is
        // instantiated, not re-built, per window). Steady state runs
        // the simd-dispatched matrix inverse, bit-exact with the
        // butterfly by the IntDct contract, so nothing downstream
        // can tell which path produced a window.
        if (!opsCounted_) {
            xform_.inverseButterfly(coeffs, out, &ops_);
            opsCounted_ = true;
        } else {
            xform_.inverse(coeffs, out);
        }
    } else {
        if (!opsCounted_) {
            xform_.countMultiplierIdct(ops_);
            opsCounted_ = true;
        }
        xform_.inverse(coeffs, out);
    }
    ++invocations_;
}

void
IdctEngine::transformBatchInto(std::span<const std::int32_t> coeffs,
                               std::span<std::int32_t> out,
                               std::size_t nwin)
{
    COMPAQT_REQUIRE(coeffs.size() == nwin * ws_ &&
                        out.size() == nwin * ws_,
                    "IDCT engine batch spans have wrong size");
    for (std::size_t w = 0; w < nwin; ++w)
        transformInto(coeffs.subspan(w * ws_, ws_),
                      out.subspan(w * ws_, ws_));
}

} // namespace compaqt::uarch
