/**
 * @file
 * Adaptive decompression on flat-top waveforms (Section V-D) through
 * the library compile plane: the compiler runs Algorithm 1 per gate,
 * then plans per channel whether the flat-top segmentation (one
 * repeat codeword for the constant middle, IDCT bypassed) beats the
 * plain window codec in memory words at the same fidelity target. No
 * adaptive structure is built by hand — the planner decides.
 *
 * Build & run:  ./build/adaptive_flattop
 */

#include <cstdint>
#include <iostream>
#include <vector>

#include "common/table.hh"
#include "common/units.hh"
#include "compaqt.hh"
#include "dsp/metrics.hh"
#include "power/system.hh"
#include "uarch/pipeline.hh"

using namespace compaqt;

int
main()
{
    // A two-gate library: an echoed-CR style flat-top (300 ns, 100+
    // ns constant section) and a DRAG X with nothing to bypass.
    const waveform::GateId cr{waveform::GateType::CX, 0, 1};
    const waveform::GateId x{waveform::GateType::X, 0, -1};
    PulseLibrary lib;
    lib.insert(cr, waveform::gaussianSquare(1360, 200, 0.12, 0.12));
    lib.insert(x, waveform::drag(160, 40, 0.18, 0.2));

    // Single-codec compile vs the per-channel planning compile.
    const auto plain = Pipeline::with("int-dct")
                           .window(16)
                           .mseTarget(1e-5)
                           .build()
                           .compileLibrary(lib);
    const auto planned = Pipeline::with("int-dct")
                             .window(16)
                             .mseTarget(1e-5)
                             .planAdaptive()
                             .workers(2)
                             .build()
                             .compileLibrary(lib);

    Table t("flat-top library compile");
    t.header({"plan", "memory words", "adaptive channels", "R"});
    t.row({"int-DCT-W only",
           std::to_string(plain.stats.plannedWords),
           std::to_string(plain.stats.adaptiveChannels),
           Table::num(plain.library.ratio(), 2)});
    t.row({"per-channel", std::to_string(planned.stats.plannedWords),
           std::to_string(planned.stats.adaptiveChannels),
           Table::num(planned.library.ratio(), 2)});
    t.print(std::cout);

    // The planner put the CR channels on the adaptive path; stream
    // one through the hardware pipeline — the flat section is served
    // by the bypass, the IDCT engine only runs for the ramps.
    const core::CompressedEntry &e = planned.library.entry(cr);
    uarch::DecompressionPipeline pipe(uarch::EngineKind::IntDctW, 16,
                                      16);
    std::vector<std::int32_t> samples(e.cw.i.numWindows() * 16);
    const auto stats = pipe.streamAdaptiveInto(e.cw.i, samples);
    std::cout << "\nCX(q0,q1) I channel: adaptive="
              << (e.cw.i.isAdaptive() ? "yes" : "no") << ", "
              << stats.samplesOut << " samples, "
              << stats.bypassSamples << " via bypass, "
              << stats.idctWindows << " IDCT windows, "
              << stats.wordsRead << " words read\n";

    // Power: Fig 19's comparison, driven by the shipped channel.
    const double frac = power::idctFraction(e.cw.i);
    const auto base = power::uncompressedPower();
    const auto padapt = power::adaptivePower(16, 2.5, frac);
    std::cout << "\ncryo-ASIC power (per channel pair):\n"
              << "  uncompressed "
              << Table::num(units::toMW(base.total()), 2)
              << " mW -> adaptive "
              << Table::num(units::toMW(padapt.total()), 2) << " mW ("
              << Table::num(base.total() / padapt.total(), 1)
              << "x reduction; paper: ~4x)\n";
    return 0;
}
