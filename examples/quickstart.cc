/**
 * @file
 * Quickstart: the COMPAQT flow on a single gate pulse.
 *
 *   1. Build a calibrated DRAG X pulse.
 *   2. Compress it with fidelity-aware int-DCT-W (Algorithm 1).
 *   3. Decompress it through the cycle-level hardware pipeline.
 *   4. Check distortion, compression ratio, bandwidth boost, and the
 *      pulse-level gate error the distortion would cause.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "compaqt.hh"
#include "dsp/int_dct.hh"
#include "dsp/metrics.hh"
#include "fidelity/pulse_sim.hh"
#include "uarch/pipeline.hh"

using namespace compaqt;

int
main()
{
    // 1. A calibrated X pulse: 144 samples (~32 ns at 4.54 GS/s).
    const IqWaveform pulse = waveform::drag(144, 36.0, 0.18, 1.1);
    std::cout << "pulse: " << pulse.size()
              << " samples x 2 channels (I/Q)\n";

    // 2. Compile-time compression to a 1e-5 MSE budget: the hardware
    //    codec ("int-dct"), WS=16, Algorithm-1 threshold search.
    const auto compaqt_pipe = Pipeline::with("int-dct")
                                  .window(16)
                                  .mseTarget(1e-5)
                                  .build();
    const auto result = compaqt_pipe.compressToTarget(pulse);
    std::cout << "compressed: R = " << result.compressed.ratio()
              << " (threshold " << result.threshold << ", MSE "
              << result.mse << ", " << result.iterations
              << " Algorithm-1 iterations)\n";

    // 3. Stream the I channel through the hardware pipeline.
    uarch::DecompressionPipeline pipe(
        uarch::EngineKind::IntDctW, 16,
        result.compressed.worstCaseWindowWords());
    pipe.load(result.compressed.i);
    // The DAC buffer holds whole windows; the waveform is its first
    // loadedSamples() samples.
    std::vector<std::int32_t> samples(pipe.numWindows() * 16);
    const auto stats = pipe.streamInto(samples);
    std::cout << "hardware stream: " << stats.samplesOut
              << " samples in " << stats.cycles
              << " fabric cycles (" << stats.samplesPerCycle()
              << " samples/cycle bandwidth boost), "
              << stats.wordsRead << " memory words read\n";

    // Verify the pipeline against the software golden model.
    const auto golden = compaqt_pipe.decompress(result.compressed);
    bool exact = stats.samplesOut == golden.i.size();
    for (std::size_t k = 0; exact && k < golden.i.size(); ++k)
        exact &= dsp::IntDct::dequantize(samples[k]) == golden.i[k];
    std::cout << "pipeline matches software decoder: "
              << (exact ? "yes (bit-exact)" : "NO") << "\n";

    // 4. What the distortion means for the gate.
    const double err =
        fidelity::pulseGateError(pulse, golden, M_PI);
    std::cout << "pulse-level average gate error from compression: "
              << err << " (paper: fidelity impact < 0.1%)\n";
    return exact ? 0 : 1;
}
