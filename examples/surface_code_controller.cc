/**
 * @file
 * Driving quantum error correction from one RFSoC: schedule a
 * distance-3 surface-code syndrome cycle, execute it on the COMPAQT
 * controller model, and compare how many logical qubits the same
 * platform supports with and without compressed waveform memory —
 * the paper's headline QEC result (Fig 17).
 *
 * Build & run:  ./build/examples/surface_code_controller
 */

#include <iostream>

#include "circuits/scheduler.hh"
#include "circuits/surface_code.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "core/pipeline.hh"
#include "uarch/controller.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"

using namespace compaqt;

int
main()
{
    // The patch: rotated d=3, 17 qubits, 3 syndrome rounds.
    const auto sc =
        circuits::makeSurfaceCode(3, circuits::SurfaceLayout::Rotated,
                                  3);
    std::cout << "surface-17 patch: " << sc.dataQubits.size()
              << " data + " << sc.xAncillas.size() << " X + "
              << sc.zAncillas.size() << " Z ancillas, "
              << sc.circuit.countCx() << " CX over 3 rounds\n";

    // A device with the patch's native connectivity, and its
    // compressed pulse library.
    const auto map = sc.nativeCoupling();
    const auto dev = waveform::DeviceModel::synthetic(
        "surface17-device", sc.totalQubits(), map.edges());
    const auto lib = waveform::PulseLibrary::build(dev);
    const auto clib = core::CompressionPipeline::with("int-dct")
                          .window(16)
                          .mseTarget(1e-5)
                          .build()
                          .compressLibrary(lib);

    // Schedule the syndrome cycle and execute it on the controller.
    const auto sched = circuits::schedule(sc.circuit, {});
    const auto prof = circuits::concurrency(sched);
    std::cout << "syndrome cycle: makespan "
              << Table::num(sched.makespan * 1e6, 2) << " us, peak "
              << prof.peakChannels << " concurrent channels ("
              << Table::num(100.0 * prof.peakChannels /
                                static_cast<double>(sc.totalQubits()),
                            0)
              << "% of the patch)\n\n";

    uarch::ControllerConfig cc;
    cc.compressed = true;
    cc.windowSize = 16;
    cc.memoryWidth = clib.worstCaseWindowWords();
    // The controller holds no library: validate the contract once,
    // then pass the library to each call.
    uarch::Controller::validateLibrary(cc, clib);
    const uarch::Controller ctl(cc);
    const auto stats = ctl.execute(sched, clib);
    std::cout << "COMPAQT controller execution:\n"
              << "  peak banks " << stats.peakBanks << " / "
              << cc.totalBrams << " ("
              << (stats.feasible ? "feasible" : "INFEASIBLE") << ")\n"
              << "  peak memory bandwidth "
              << Table::num(
                     units::toGBs(stats.peakBandwidthBytesPerSec), 1)
              << " GB/s at the DACs, words fetched "
              << stats.totalWordsRead << " for "
              << stats.totalSamples << " samples ("
              << Table::num(static_cast<double>(stats.totalSamples) /
                                static_cast<double>(
                                    stats.totalWordsRead),
                            2)
              << "x expansion)\n\n";

    // How many such patches fit per controller?
    uarch::ControllerConfig uc = cc;
    uc.compressed = false;
    const uarch::Controller base(uc);
    Table t("logical qubits per RFSoC controller (surface-17)");
    t.header({"design", "physical qubits", "logical qubits"});
    t.row({"uncompressed",
           std::to_string(base.maxConcurrentQubits()),
           std::to_string(base.maxConcurrentQubits() /
                          sc.totalQubits())});
    t.row({"COMPAQT WS=16",
           std::to_string(ctl.maxConcurrentQubits()),
           std::to_string(ctl.maxConcurrentQubits() /
                          sc.totalQubits())});
    t.print(std::cout);
    return stats.feasible ? 0 : 1;
}
