/**
 * @file
 * ASAP pulse scheduling and the concurrency/bandwidth accounting
 * behind Figs 5(c) and 17(a): how many drive channels a circuit keeps
 * busy at once determines the waveform-memory bandwidth the
 * controller must sustain.
 */

#ifndef COMPAQT_CIRCUITS_SCHEDULER_HH
#define COMPAQT_CIRCUITS_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "circuits/circuit.hh"

namespace compaqt::circuits
{

/** Gate durations in seconds (Table I latencies). */
struct Durations
{
    double t1q = 30e-9;
    double t2q = 300e-9;
    double tMeasure = 300e-9;

    double forOp(Op op) const;
};

/** One scheduled pulse event. */
struct ScheduledEvent
{
    Gate gate;
    double start = 0.0;
    double duration = 0.0;
    /** Drive channels (qubits) the event occupies. */
    std::vector<int> channels;
};

/** A fully scheduled circuit. */
struct Schedule
{
    std::vector<ScheduledEvent> events;
    double makespan = 0.0;
};

/**
 * ASAP schedule: every gate starts as soon as all its operand qubits
 * are free. RZ is virtual (zero duration); Barrier synchronizes all
 * qubits.
 */
Schedule schedule(const Circuit &c, const Durations &dur);

/**
 * Event indices of `s` in deterministic time order: ascending start,
 * ties broken by position in the event list. Schedules produced by
 * schedule() are already nearly sorted (ASAP emits in circuit order),
 * but partitioned slices and hand-built schedules are not guaranteed
 * to be — consumers that lower a schedule to a linear instruction
 * stream (isa::Compiler) need one canonical issue order that is a
 * pure function of the schedule.
 */
std::vector<std::size_t> eventOrderByStart(const Schedule &s);

/**
 * One step of the fingerprint's word fold: xor a 64-bit word into the
 * state, multiply, xor-shift. For a fixed word each step is a
 * bijection of the state, so two word sequences of equal length that
 * differ in one word always end in different states.
 */
constexpr std::uint64_t
fingerprintFold(std::uint64_t h, std::uint64_t v)
{
    h = (h ^ v) * 0x9E3779B97F4A7C15ull;
    return h ^ (h >> 32);
}

/**
 * 64-bit content hash of a schedule: every event's op, qubits, param,
 * timing, and channels, plus the makespan, folded in list order one
 * 64-bit word at a time (fingerprintFold). Two schedules with equal
 * fingerprints compile to the same instruction program (against the
 * same library/config), which is what lets the runtime cache compiled
 * programs as persistent artifacts keyed by (fingerprint, shard,
 * library version) instead of recompiling per job.
 */
std::uint64_t scheduleFingerprint(const Schedule &s);

/** Channel-occupancy statistics of a schedule. */
struct ConcurrencyProfile
{
    /** Maximum simultaneously driven channels. */
    int peakChannels = 0;
    /** Time-averaged driven channels over the makespan. */
    double avgChannels = 0.0;
    /** Maximum simultaneously executing gates. */
    int peakGates = 0;
};

ConcurrencyProfile concurrency(const Schedule &s);

/** Peak/average waveform-memory bandwidth demand in bytes/second. */
struct BandwidthProfile
{
    double peak = 0.0;
    double avg = 0.0;
};

/**
 * @param bytes_per_channel_per_sec DAC consumption rate per channel
 *        (sampling rate x sample size; Section III's BW = fs * s)
 */
BandwidthProfile bandwidth(const Schedule &s,
                           double bytes_per_channel_per_sec);

/**
 * Split a schedule across controllers by qubit ownership: event e
 * goes to part owner[e.gate.qubits[0]] — the gate's drive qubit
 * (control qubit for CX), matching the channel-group accounting of
 * uarch::Controller::execute. Event start times are preserved, so
 * each part is exactly the owning controller's slice of the global
 * timeline; per-part makespans are recomputed from the surviving
 * events. Events whose owner is out of [0, num_parts) are dropped.
 *
 * @param owner qubit -> owning part, one entry per qubit
 */
std::vector<Schedule> partitionByOwner(const Schedule &s,
                                       const std::vector<int> &owner,
                                       int num_parts);

} // namespace compaqt::circuits

#endif // COMPAQT_CIRCUITS_SCHEDULER_HH
