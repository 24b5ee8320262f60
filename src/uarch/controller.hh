/**
 * @file
 * The COMPAQT controller (Fig 6): per-channel decompression pipelines
 * in front of the DACs, a pulse sequencer that plays scheduled gates,
 * and the bank-budget accounting that decides how many qubits one
 * RFSoC can drive concurrently.
 */

#ifndef COMPAQT_UARCH_CONTROLLER_HH
#define COMPAQT_UARCH_CONTROLLER_HH

#include <cstdint>
#include <optional>
#include <span>

#include "circuits/scheduler.hh"
#include "core/compressed_library.hh"
#include "uarch/pipeline.hh"
#include "uarch/scaling.hh"

namespace compaqt::uarch
{

/** Static configuration of one controller instance. */
struct ControllerConfig
{
    double fabricClockHz = 294e6;
    /** Per-channel DAC consumption rate, samples/s. */
    double dacRateHz = 4.7e9;
    std::size_t totalBrams = 1260;
    /** Streams per qubit (I and Q). */
    int channelsPerQubit = 2;
    /** False = uncompressed baseline controller. */
    bool compressed = true;
    std::size_t windowSize = 16;
    /** Uniform compressed-memory width (words per window). */
    std::size_t memoryWidth = 3;

    /** DAC-to-fabric clock ratio (samples needed per fabric cycle). */
    int
    clockRatio() const
    {
        return static_cast<int>(dacRateHz / fabricClockHz + 0.5);
    }
};

/** Outcome of executing a schedule on the controller. */
struct ExecutionStats
{
    /** Peak BRAM banks demanded at any instant. */
    std::size_t peakBanks = 0;
    /** Peak concurrently driven channels. */
    int peakChannels = 0;
    /** True if the bank budget was never exceeded. */
    bool feasible = true;
    /** Total samples streamed to DACs. */
    std::uint64_t totalSamples = 0;
    /** Samples served through the adaptive IDCT bypass (flat
     *  segments of adaptively compressed channels, Section V-D);
     *  the rest of totalSamples went through the IDCT engine. The
     *  power model reads this split (power::idctFraction). */
    std::uint64_t bypassSamples = 0;
    /** Total memory words fetched. */
    std::uint64_t totalWordsRead = 0;
    /** Peak waveform-memory bandwidth demand, bytes/s. */
    double peakBandwidthBytesPerSec = 0.0;
    /** Scheduled physical gates whose waveform is absent from the
     *  library (skipped, not played). */
    std::size_t missingGates = 0;
};

/**
 * A controller: the bank-budget accounting and playback of one
 * RFSoC. It never holds a library; every call that needs one takes
 * it, so a hot-swapping rack passes its epoch-pinned library and a
 * controller never extends a retired calibration's lifetime.
 */
class Controller
{
  public:
    explicit Controller(const ControllerConfig &cfg) : cfg_(cfg) {}

    /**
     * The library contract, checked once per library (a rack runs it
     * at construction and at every hot-swap publish).
     * @throws std::invalid_argument when compressed mode is on and
     *         the library does not match the config: a codec other
     *         than the hardware int-DCT, a window size differing from
     *         cfg.windowSize, or windows wider than cfg.memoryWidth.
     *         A mismatched library would silently mis-stream.
     */
    static void validateLibrary(const ControllerConfig &cfg,
                                const core::CompressedLibrary &lib);

    const ControllerConfig &config() const { return cfg_; }

    /** Banks one channel occupies (Section V-C interleaving). */
    std::size_t banksPerChannel() const;

    /** Concurrent-qubit capacity under the bank budget. */
    std::size_t maxConcurrentQubits() const;

    /**
     * Stream one gate's I channel through the decompression pipeline
     * into caller-owned memory (compressed mode). Samples are
     * bit-exact with the software decoder.
     * @pre out.size() >= numWindows * windowSize of the gate's I
     *      channel in `lib`
     */
    StreamStats playGateInto(const core::CompressedLibrary &lib,
                             const waveform::GateId &id,
                             std::span<std::int32_t> out) const;

    /**
     * Execute a scheduled circuit against `lib`: sweep event
     * boundaries, account bank demand and bandwidth, and verify the
     * budget.
     *
     * This is the stats-only fast path: no samples are produced, no
     * controller state is mutated, and the method is safe to call
     * concurrently from runtime worker threads. Edge cases are
     * well-defined: an empty schedule returns zeroed feasible stats,
     * gates absent from the library are counted in
     * ExecutionStats::missingGates and skipped, and an exceeded bank
     * budget reports feasible = false with the demand that broke it.
     */
    ExecutionStats execute(const circuits::Schedule &sched,
                           const core::CompressedLibrary &lib) const;

  private:
    ControllerConfig cfg_;
};

/** Map a scheduled event's gate to the waveform it plays (nullopt for
 *  virtual ops). */
std::optional<waveform::GateId>
gateIdFor(const circuits::Gate &g);

} // namespace compaqt::uarch

#endif // COMPAQT_UARCH_CONTROLLER_HH
