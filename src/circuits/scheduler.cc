#include "circuits/scheduler.hh"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/logging.hh"

namespace compaqt::circuits
{

double
Durations::forOp(Op op) const
{
    switch (op) {
      case Op::Measure:
        return tMeasure;
      case Op::RZ:
      case Op::Z:
      case Op::S:
      case Op::Sdg:
      case Op::T:
      case Op::Tdg:
      case Op::Barrier:
        // Virtual Z-family rotations (software frame updates).
        return 0.0;
      case Op::Swap:
        return 3.0 * t2q; // three CX pulses back to back
      case Op::CCX:
        return 6.0 * t2q; // standard six-CX decomposition
      default:
        // Any other physical gate: one pulse of its arity's length.
        return opArity(op) == 1 ? t1q : t2q;
    }
}

Schedule
schedule(const Circuit &c, const Durations &dur)
{
    Schedule s;
    std::vector<double> ready(c.numQubits(), 0.0);

    for (const Gate &g : c.gates()) {
        if (g.op == Op::Barrier) {
            const double t =
                *std::max_element(ready.begin(), ready.end());
            std::fill(ready.begin(), ready.end(), t);
            continue;
        }
        const double d = dur.forOp(g.op);
        if (d == 0.0)
            continue; // virtual gate
        double start = 0.0;
        for (int q : g.qubits)
            start = std::max(start, ready[static_cast<std::size_t>(q)]);
        for (int q : g.qubits)
            ready[static_cast<std::size_t>(q)] = start + d;
        s.events.push_back({g, start, d, g.qubits});
        s.makespan = std::max(s.makespan, start + d);
    }
    return s;
}

std::vector<std::size_t>
eventOrderByStart(const Schedule &s)
{
    std::vector<std::size_t> order(s.events.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return s.events[a].start <
                                s.events[b].start;
                     });
    return order;
}

namespace
{

/**
 * Sweep event boundaries accumulating active channel/gate counts.
 * Returns (peak channels, peak gates, busy channel-time integral).
 */
struct SweepResult
{
    int peakChannels = 0;
    int peakGates = 0;
    double channelTime = 0.0;
};

SweepResult
sweep(const Schedule &s)
{
    // Delta counts at start/end boundaries.
    std::map<double, std::pair<int, int>> deltas; // t -> (dchan, dgate)
    SweepResult r;
    for (const auto &e : s.events) {
        const int ch = static_cast<int>(e.channels.size());
        deltas[e.start].first += ch;
        deltas[e.start].second += 1;
        deltas[e.start + e.duration].first -= ch;
        deltas[e.start + e.duration].second -= 1;
        r.channelTime += ch * e.duration;
    }
    int chan = 0, gates = 0;
    for (const auto &[t, d] : deltas) {
        chan += d.first;
        gates += d.second;
        r.peakChannels = std::max(r.peakChannels, chan);
        r.peakGates = std::max(r.peakGates, gates);
    }
    return r;
}

} // namespace

ConcurrencyProfile
concurrency(const Schedule &s)
{
    ConcurrencyProfile p;
    if (s.events.empty())
        return p;
    const SweepResult r = sweep(s);
    p.peakChannels = r.peakChannels;
    p.peakGates = r.peakGates;
    p.avgChannels = s.makespan > 0.0 ? r.channelTime / s.makespan : 0.0;
    return p;
}

std::vector<Schedule>
partitionByOwner(const Schedule &s, const std::vector<int> &owner,
                 int num_parts)
{
    COMPAQT_REQUIRE(num_parts > 0, "partition needs at least one part");
    std::vector<Schedule> parts(static_cast<std::size_t>(num_parts));
    for (const auto &e : s.events) {
        if (e.gate.qubits.empty())
            continue;
        const auto q = static_cast<std::size_t>(e.gate.qubits[0]);
        if (q >= owner.size())
            continue;
        const int p = owner[q];
        if (p < 0 || p >= num_parts)
            continue;
        auto &part = parts[static_cast<std::size_t>(p)];
        part.events.push_back(e);
        part.makespan =
            std::max(part.makespan, e.start + e.duration);
    }
    return parts;
}

BandwidthProfile
bandwidth(const Schedule &s, double bytes_per_channel_per_sec)
{
    const ConcurrencyProfile p = concurrency(s);
    return {p.peakChannels * bytes_per_channel_per_sec,
            p.avgChannels * bytes_per_channel_per_sec};
}

std::uint64_t
scheduleFingerprint(const Schedule &s)
{
    // A word-wise fold over the schedule's content. Doubles are
    // folded by bit pattern, so the fingerprint is exact, not
    // tolerance-based: a cache keyed by it can only collapse
    // byte-identical schedules.
    std::uint64_t h = 0xCBF29CE484222325ull;
    const auto fold = [&h](std::uint64_t v) { h = fingerprintFold(h, v); };
    const auto foldDouble = [&fold](double d) {
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof d);
        std::memcpy(&bits, &d, sizeof bits);
        fold(bits);
    };
    fold(s.events.size());
    foldDouble(s.makespan);
    for (const ScheduledEvent &e : s.events) {
        fold(static_cast<std::uint64_t>(e.gate.op));
        fold(e.gate.qubits.size());
        for (const int q : e.gate.qubits)
            fold(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(q)));
        foldDouble(e.gate.param);
        foldDouble(e.start);
        foldDouble(e.duration);
        fold(e.channels.size());
        for (const int c : e.channels)
            fold(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(c)));
    }
    return h;
}

} // namespace compaqt::circuits
