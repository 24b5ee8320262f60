/**
 * @file
 * The reference a rack's execution is checked against, computed from
 * the schedules and the library alone rather than by a second back
 * end: test_isa's identity suite and bench_istream_compile's
 * `stats_identity` both compare RuntimeService batches with it.
 */

#ifndef COMPAQT_TESTS_RACK_ORACLE_HH
#define COMPAQT_TESTS_RACK_ORACLE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "circuits/scheduler.hh"
#include "runtime/rack.hh"
#include "runtime/service.hh"
#include "uarch/controller.hh"

namespace compaqt::oracle
{

/**
 * What a batch on `rack` must report. Per shard slice, each event
 * whose gate the library holds adds one gate and
 * cw.stats().originalSamples samples; on a compressed rack it also
 * adds every window of both channels and their adaptive bypass
 * samples. Demand is the shard controller's stats-only execute().
 * Model counters, wall clock and prefetchesIssued are not part of it.
 */
inline runtime::RackStats
rackStats(const runtime::Rack &rack,
          const std::vector<circuits::Schedule> &batch)
{
    const runtime::VersionedLibrary vlib = rack.currentLibrary();
    const bool compressed = rack.config().controller.compressed;
    const int n = rack.numShards();
    runtime::RackStats st;
    st.shards.resize(static_cast<std::size_t>(n));
    for (const auto &sched : batch) {
        const auto parts =
            circuits::partitionByOwner(sched, rack.plan().owner, n);
        std::uint64_t kept = 0;
        for (int s = 0; s < n; ++s) {
            const auto &part = parts[static_cast<std::size_t>(s)];
            kept += part.events.size();
            auto &sh = st.shards[static_cast<std::size_t>(s)];
            const auto d = rack.controller(s).execute(part, *vlib);
            sh.demand.peakBanks =
                std::max(sh.demand.peakBanks, d.peakBanks);
            sh.demand.peakChannels =
                std::max(sh.demand.peakChannels, d.peakChannels);
            sh.demand.peakBandwidthBytesPerSec =
                std::max(sh.demand.peakBandwidthBytesPerSec,
                         d.peakBandwidthBytesPerSec);
            sh.demand.feasible = sh.demand.feasible && d.feasible;
            sh.demand.totalSamples += d.totalSamples;
            sh.demand.totalWordsRead += d.totalWordsRead;
            sh.demand.missingGates += d.missingGates;
            sh.demand.bypassSamples += d.bypassSamples;
            for (const auto &e : part.events) {
                const auto id = uarch::gateIdFor(e.gate);
                const core::CompressedEntry *entry =
                    id ? vlib.find(*id) : nullptr;
                if (!entry)
                    continue;
                const auto &cw = entry->cw;
                ++sh.gatesPlayed;
                sh.samplesDecoded += cw.stats().originalSamples;
                if (!compressed)
                    continue;
                sh.windowsDecoded +=
                    cw.i.numWindows() + cw.q.numWindows();
                sh.samplesBypassed +=
                    cw.i.bypassSamples() + cw.q.bypassSamples();
            }
        }
        st.unownedEvents += sched.events.size() - kept;
    }
    for (const auto &sh : st.shards) {
        st.fleetPeakBanks += sh.demand.peakBanks;
        st.fleetPeakChannels += sh.demand.peakChannels;
        st.fleetPeakBandwidthBytesPerSec +=
            sh.demand.peakBandwidthBytesPerSec;
        st.feasible = st.feasible && sh.demand.feasible;
        st.totalGates += sh.gatesPlayed;
        st.totalWindows += sh.windowsDecoded;
        st.totalSamples += sh.samplesDecoded;
        st.totalBypassSamples += sh.samplesBypassed;
        st.missingGates += sh.demand.missingGates;
    }
    return st;
}

} // namespace compaqt::oracle

#endif // COMPAQT_TESTS_RACK_ORACLE_HH
