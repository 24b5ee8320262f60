/**
 * @file
 * Driving a multi-patch QEC machine from a rack of controllers:
 * sweep surface-code distance, shard each patch's device across a
 * fleet of COMPAQT controllers (locality-aware, so ancilla-data CX
 * pulses stay on their owning RFSoC), and execute syndrome-cycle
 * batches through the runtime with the shared decoded-window cache.
 *
 * This is the layer above the Fig-6 single-controller model: the
 * same bank/bandwidth accounting, multiplied out to fleet scale, plus
 * the caching and concurrency a real control rack needs.
 *
 * Build & run:  ./build/rack_surface_code
 */

#include <iostream>

#include "circuits/scheduler.hh"
#include "circuits/surface_code.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "core/pipeline.hh"
#include "runtime/rack.hh"
#include "runtime/service.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"

using namespace compaqt;

int
main()
{
    Table t("surface-code distance sweep on a sharded control rack");
    t.header({"d", "qubits", "shards", "fleet banks", "peak GB/s",
              "gates/s", "hit rate", "feasible"});

    bool all_feasible = true;
    for (const int d : {3, 5}) {
        const auto sc = circuits::makeSurfaceCode(
            d, circuits::SurfaceLayout::Rotated, 1);
        const auto dev = waveform::DeviceModel::synthetic(
            "rack-surface-" + std::to_string(sc.totalQubits()),
            sc.totalQubits(), sc.nativeCoupling().edges());
        const auto lib = waveform::PulseLibrary::build(dev);
        const auto clib = core::CompressionPipeline::with("int-dct")
                              .window(16)
                              .mseTarget(1e-5)
                              .build()
                              .compressLibrary(lib);

        // One shard per ~16 qubits: the per-RFSoC granularity of the
        // paper's Table V capacity numbers.
        const int shards =
            static_cast<int>((sc.totalQubits() + 15) / 16);
        runtime::RackConfig rc;
        rc.numShards = shards;
        rc.policy = runtime::ShardPolicy::LocalityAware;
        rc.controller.compressed = true;
        rc.controller.windowSize = 16;
        rc.controller.memoryWidth = clib.worstCaseWindowWords();
        rc.cacheWindows = 1u << 15;
        const runtime::Rack rack(dev, clib, rc);
        runtime::RuntimeService svc(rack, {.workers = 4});

        // A batch of syndrome cycles; the first fills the cache, the
        // measured run replays hot pulse windows from it.
        const auto sched = circuits::schedule(sc.circuit, {});
        const std::vector<circuits::Schedule> batch(4, sched);
        svc.executeBatchCompiledPerJob(batch);
        const auto stats = svc.executeBatchCompiledPerJob(batch).total;

        t.row({std::to_string(d), std::to_string(sc.totalQubits()),
               std::to_string(shards),
               std::to_string(stats.fleetPeakBanks),
               Table::num(units::toGBs(
                              stats.fleetPeakBandwidthBytesPerSec),
                          1),
               Table::num(stats.gatesPerSec, 0),
               Table::num(stats.cacheHitRate, 3),
               stats.feasible ? "yes" : "NO"});
        all_feasible = all_feasible && stats.feasible;

        if (d == 5) {
            Table st("per-shard demand, d=5 (49 qubits)");
            st.header({"shard", "qubits", "peak banks",
                       "peak channels", "gates", "Msamples"});
            for (std::size_t s = 0; s < stats.shards.size(); ++s) {
                const auto &sh = stats.shards[s];
                st.row({std::to_string(s),
                        std::to_string(
                            rack.plan().shards[s].size()),
                        std::to_string(sh.demand.peakBanks),
                        std::to_string(sh.demand.peakChannels),
                        std::to_string(sh.gatesPlayed),
                        Table::num(static_cast<double>(
                                       sh.samplesDecoded) /
                                       1e6,
                                   2)});
            }
            st.print(std::cout);
            std::cout << '\n';
        }
    }
    t.print(std::cout);
    return all_feasible ? 0 : 1;
}
