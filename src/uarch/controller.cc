#include "uarch/controller.hh"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"
#include "core/codec.hh"

namespace compaqt::uarch
{

namespace
{

[[noreturn]] void
rejectLibrary(const std::string &why)
{
    throw std::invalid_argument("uarch::Controller: " + why);
}

} // namespace

void
Controller::validateLibrary(const ControllerConfig &cfg,
                            const core::CompressedLibrary &lib)
{
    if (!cfg.compressed)
        return;
    if (!dsp::intDctSupported(cfg.windowSize))
        rejectLibrary("window size must be 4/8/16/32");
    // A library compressed with the wrong codec or window size would
    // stream garbage through the int-DCT pipeline; fail construction
    // instead.
    const auto &reg = core::CodecRegistry::instance();
    for (const auto &[id, e] : lib.entries()) {
        const auto canonical = reg.canonicalName(e.cw.codec);
        if (canonical != "int-dct") {
            std::ostringstream ss;
            ss << waveform::toString(id) << " was compressed with '"
               << e.cw.codec
               << "'; the hardware pipeline decodes int-dct only";
            rejectLibrary(ss.str());
        }
        if (e.cw.windowSize != cfg.windowSize) {
            std::ostringstream ss;
            ss << waveform::toString(id) << " uses window size "
               << e.cw.windowSize << ", controller is configured for "
               << cfg.windowSize;
            rejectLibrary(ss.str());
        }
    }
    if (lib.worstCaseWindowWords() > cfg.memoryWidth) {
        std::ostringstream ss;
        ss << "library needs " << lib.worstCaseWindowWords()
           << " words/window but the compressed memory width is "
           << cfg.memoryWidth;
        rejectLibrary(ss.str());
    }
}

std::size_t
Controller::banksPerChannel() const
{
    RfsocPlatform rf;
    rf.clockRatio = cfg_.clockRatio();
    rf.totalBrams = cfg_.totalBrams;
    rf.channelsPerQubit = cfg_.channelsPerQubit;
    return uarch::banksPerChannel(rf, cfg_.compressed, cfg_.windowSize,
                                  cfg_.memoryWidth);
}

std::size_t
Controller::maxConcurrentQubits() const
{
    return cfg_.totalBrams /
           (banksPerChannel() *
            static_cast<std::size_t>(cfg_.channelsPerQubit));
}

StreamStats
Controller::playGateInto(const core::CompressedLibrary &lib,
                         const waveform::GateId &id,
                         std::span<std::int32_t> out) const
{
    COMPAQT_REQUIRE(cfg_.compressed,
                    "playGateInto models the compressed datapath");
    DecompressionPipeline pipe(EngineKind::IntDctW, cfg_.windowSize,
                               cfg_.memoryWidth);
    // streamAdaptiveInto degrades to load() + streamInto() for plain
    // channels, so one call covers both library representations.
    return pipe.streamAdaptiveInto(lib.entry(id).cw.i, out);
}

std::optional<waveform::GateId>
gateIdFor(const circuits::Gate &g)
{
    switch (g.op) {
      case circuits::Op::X:
        return waveform::GateId{waveform::GateType::X, g.qubits[0], -1};
      case circuits::Op::SX:
        return waveform::GateId{waveform::GateType::SX, g.qubits[0],
                                -1};
      case circuits::Op::CX:
        return waveform::GateId{waveform::GateType::CX, g.qubits[0],
                                g.qubits[1]};
      case circuits::Op::Measure:
        return waveform::GateId{waveform::GateType::Measure,
                                g.qubits[0], -1};
      default:
        return std::nullopt;
    }
}

ExecutionStats
Controller::execute(const circuits::Schedule &sched,
                    const core::CompressedLibrary &lib) const
{
    ExecutionStats stats;
    if (sched.events.empty())
        return stats; // zeroed, trivially feasible
    const std::size_t banks_per_channel = banksPerChannel();
    const double bytes_per_channel_per_sec =
        cfg_.dacRateHz * 2.0; // 16-bit samples per channel

    // Event-boundary sweep of channel demand.
    std::map<double, int> deltas;
    for (const auto &e : sched.events) {
        const auto id = gateIdFor(e.gate);
        if (!id)
            continue;
        const core::CompressedEntry *entry = lib.find(*id);
        if (!entry) {
            // No waveform to play: skip the event but report it, so a
            // schedule/library mismatch is visible instead of garbage.
            ++stats.missingGates;
            continue;
        }
        // Every gate drives the I/Q pair of one qubit channel group
        // (the CR drive lives on the control qubit's channels).
        const int ch = cfg_.channelsPerQubit;
        deltas[e.start] += ch;
        deltas[e.start + e.duration] -= ch;

        const auto s = entry->cw.stats();
        stats.totalSamples += s.originalSamples;
        stats.totalWordsRead += s.compressedWords;
        // Flat segments of adaptive channels are served through the
        // IDCT bypass; charge them so the power split is visible.
        stats.bypassSamples += entry->cw.i.bypassSamples() +
                               entry->cw.q.bypassSamples();
    }
    int chan = 0;
    for (const auto &[t, d] : deltas) {
        chan += d;
        stats.peakChannels = std::max(stats.peakChannels, chan);
    }
    stats.peakBanks =
        static_cast<std::size_t>(stats.peakChannels) * banks_per_channel;
    stats.feasible = stats.peakBanks <= cfg_.totalBrams;
    stats.peakBandwidthBytesPerSec =
        stats.peakChannels * bytes_per_channel_per_sec;
    return stats;
}

} // namespace compaqt::uarch
