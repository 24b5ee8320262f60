/**
 * @file
 * Unit tests for the circuits substrate: IR validity, basis
 * decomposition (verified against exact unitaries via the statevector
 * simulator), routing on coupling maps, ASAP scheduling and
 * concurrency, benchmark generators (Table VI), and surface-code
 * construction.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "circuits/benchmarks.hh"
#include "circuits/circuit.hh"
#include "circuits/scheduler.hh"
#include "circuits/surface_code.hh"
#include "circuits/transpiler.hh"
#include "fidelity/noise.hh"
#include "fidelity/statevector.hh"
#include "fidelity/tvd.hh"

namespace compaqt::circuits
{
namespace
{

/** Exact statevector of a logical circuit (measure gates ignored). */
fidelity::Statevector
simulate(const Circuit &c)
{
    const Circuit basis = decompose(c);
    fidelity::Statevector sv(basis.numQubits());
    for (const auto &g : basis.gates()) {
        switch (g.op) {
          case Op::X:
            sv.apply1(fidelity::xGate(), g.qubits[0]);
            break;
          case Op::SX:
            sv.apply1(fidelity::sxGate(), g.qubits[0]);
            break;
          case Op::RZ:
            sv.apply1(fidelity::rzGate(g.param), g.qubits[0]);
            break;
          case Op::CX:
            sv.apply2(fidelity::cxGate(), g.qubits[0], g.qubits[1]);
            break;
          case Op::Measure:
          case Op::Barrier:
            break;
          default:
            ADD_FAILURE() << "non-basis op after decompose";
        }
    }
    return sv;
}

/** |amplitude|^2 of basis state `idx` after running c on |0...0>. */
double
probabilityOf(const Circuit &c, std::size_t idx)
{
    return simulate(c).probabilities()[idx];
}

// -------------------------------------------------------------- circuit

TEST(Circuit, CountsGates)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.measureAll();
    EXPECT_EQ(c.countCx(), 2u);
    EXPECT_EQ(c.count(Op::H), 1u);
    EXPECT_EQ(c.count(Op::Measure), 3u);
}

TEST(Circuit, RejectsBadOperands)
{
    Circuit c(2);
    EXPECT_DEATH(c.x(2), "out of range");
    EXPECT_DEATH(c.cx(0, 0), "duplicate");
}

// ------------------------------------------------------------ decompose

TEST(Decompose, OutputsOnlyBasisOps)
{
    Circuit c(3);
    c.h(0);
    c.t(1);
    c.ry(2, 0.7);
    c.ccx(0, 1, 2);
    c.swap(0, 2);
    const Circuit b = decompose(c);
    for (const auto &g : b.gates())
        EXPECT_TRUE(opInBasis(g.op)) << opName(g.op);
}

TEST(Decompose, HadamardActsCorrectly)
{
    Circuit c(1);
    c.h(0);
    const auto sv = simulate(c);
    EXPECT_NEAR(std::norm(sv.amplitudes()[0]), 0.5, 1e-10);
    EXPECT_NEAR(std::norm(sv.amplitudes()[1]), 0.5, 1e-10);
}

TEST(Decompose, RxRotationAngleIsExact)
{
    for (double theta : {0.3, 1.0, M_PI / 2, 2.5}) {
        Circuit c(1);
        c.rx(0, theta);
        const double p1 = probabilityOf(c, 1);
        EXPECT_NEAR(p1, std::sin(theta / 2) * std::sin(theta / 2),
                    1e-10)
            << "theta=" << theta;
    }
}

TEST(Decompose, RyRotationAngleIsExact)
{
    for (double theta : {0.4, 1.3, 2.9}) {
        Circuit c(1);
        c.ry(0, theta);
        const double p1 = probabilityOf(c, 1);
        EXPECT_NEAR(p1, std::sin(theta / 2) * std::sin(theta / 2),
                    1e-10);
    }
}

TEST(Decompose, ToffoliTruthTable)
{
    for (int input = 0; input < 8; ++input) {
        Circuit c(3);
        for (int b = 0; b < 3; ++b)
            if (input & (1 << b))
                c.x(b);
        c.ccx(0, 1, 2);
        // CCX flips bit 2 iff bits 0 and 1 are set.
        const int expected =
            (input & 3) == 3 ? input ^ 4 : input;
        EXPECT_NEAR(probabilityOf(c, static_cast<std::size_t>(
                                      expected)),
                    1.0, 1e-9)
            << "input=" << input;
    }
}

TEST(Decompose, SwapExchangesStates)
{
    Circuit c(2);
    c.x(0);
    c.swap(0, 1);
    EXPECT_NEAR(probabilityOf(c, 2), 1.0, 1e-10); // |10> (qubit1 set)
}

TEST(Decompose, CzPhaseIsCorrect)
{
    // CZ on |11> flips the sign; verify via interference: H(0), CZ,
    // H(0) with q1=|1> equals X on q0.
    Circuit c(2);
    c.x(1);
    c.h(0);
    c.cz(1, 0);
    c.h(0);
    EXPECT_NEAR(probabilityOf(c, 3), 1.0, 1e-10);
}

TEST(Decompose, CpMatchesControlledPhase)
{
    // CP(theta) on |11> adds phase e^{i theta}; use the same
    // interference trick with theta = pi to recover CZ.
    Circuit c(2);
    c.x(1);
    c.h(0);
    c.cp(1, 0, M_PI);
    c.h(0);
    EXPECT_NEAR(probabilityOf(c, 3), 1.0, 1e-10);
}

// ---------------------------------------------------------------- route

TEST(Route, PassesThroughWhenCoupled)
{
    CouplingMap map(3, {{0, 1}, {1, 2}});
    Circuit c(3);
    c.cx(0, 1);
    const Circuit r = route(decompose(c), map);
    EXPECT_EQ(r.countCx(), 1u);
}

TEST(Route, InsertsSwapsForDistantPairs)
{
    CouplingMap map(3, {{0, 1}, {1, 2}});
    Circuit c(3);
    c.cx(0, 2);
    const Circuit r = route(decompose(c), map);
    // One swap (3 CX) + the CX itself.
    EXPECT_EQ(r.countCx(), 4u);
    // Every emitted CX must respect the coupling map.
    for (const auto &g : r.gates())
        if (g.op == Op::CX)
            EXPECT_TRUE(map.connected(g.qubits[0], g.qubits[1]));
}

TEST(Route, PreservesSemanticsUpToLayout)
{
    // |10> swapped through a line: the excitation must end up on the
    // physical qubit holding logical 1 -- verified via distribution
    // over measured qubits of the routed circuit.
    CouplingMap map(3, {{0, 1}, {1, 2}});
    Circuit c(3);
    c.x(0);
    c.cx(0, 2); // entangles nothing: CX with control=1 flips target
    c.measureAll();
    const Circuit r = route(decompose(c), map);
    const auto result = fidelity::runIdeal(r);
    // Exactly one outcome with probability 1 and two bits set.
    double pmax = 0.0;
    std::size_t arg = 0;
    for (std::size_t i = 0; i < result.distribution.size(); ++i) {
        if (result.distribution[i] > pmax) {
            pmax = result.distribution[i];
            arg = i;
        }
    }
    EXPECT_NEAR(pmax, 1.0, 1e-9);
    EXPECT_EQ(__builtin_popcountll(arg), 2);
}

TEST(Route, BfsPathIsShortest)
{
    CouplingMap map(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}});
    EXPECT_EQ(map.path(0, 3).size(), 3u); // 0-4-3
    EXPECT_EQ(map.path(0, 2).size(), 3u); // 0-1-2
}

// ------------------------------------------------------------- schedule

TEST(Schedule, SerialGatesOnOneQubit)
{
    Circuit c(1);
    c.x(0);
    c.sx(0);
    c.measure(0);
    const Durations dur;
    const Schedule s = schedule(c, dur);
    ASSERT_EQ(s.events.size(), 3u);
    EXPECT_DOUBLE_EQ(s.events[0].start, 0.0);
    EXPECT_DOUBLE_EQ(s.events[1].start, dur.t1q);
    EXPECT_DOUBLE_EQ(s.events[2].start, 2 * dur.t1q);
    EXPECT_DOUBLE_EQ(s.makespan, 2 * dur.t1q + dur.tMeasure);
}

TEST(Schedule, IndependentGatesRunConcurrently)
{
    Circuit c(4);
    for (int q = 0; q < 4; ++q)
        c.x(q);
    const Schedule s = schedule(c, {});
    for (const auto &e : s.events)
        EXPECT_DOUBLE_EQ(e.start, 0.0);
    const auto prof = concurrency(s);
    EXPECT_EQ(prof.peakChannels, 4);
    EXPECT_EQ(prof.peakGates, 4);
}

TEST(Schedule, RzIsVirtual)
{
    Circuit c(1);
    c.rz(0, 1.0);
    c.x(0);
    const Schedule s = schedule(c, {});
    ASSERT_EQ(s.events.size(), 1u);
    EXPECT_DOUBLE_EQ(s.events[0].start, 0.0);
}

TEST(Schedule, BarrierSynchronizes)
{
    Circuit c(2);
    c.x(0);
    c.barrier();
    c.x(1);
    const Durations dur;
    const Schedule s = schedule(c, dur);
    EXPECT_DOUBLE_EQ(s.events[1].start, dur.t1q);
}

TEST(Schedule, CxOccupiesBothChannels)
{
    Circuit c(2);
    c.cx(0, 1);
    const Schedule s = schedule(c, {});
    const auto prof = concurrency(s);
    EXPECT_EQ(prof.peakChannels, 2);
    EXPECT_EQ(prof.peakGates, 1);
}

TEST(Schedule, ZeroGateCircuitYieldsEmptySchedule)
{
    const Schedule s = schedule(Circuit(3), {});
    EXPECT_TRUE(s.events.empty());
    EXPECT_DOUBLE_EQ(s.makespan, 0.0);
    EXPECT_TRUE(eventOrderByStart(s).empty());
    const auto prof = concurrency(s);
    EXPECT_EQ(prof.peakChannels, 0);
    EXPECT_EQ(prof.peakGates, 0);
}

TEST(Schedule, SingleChannelDeviceSerializesEverything)
{
    // One qubit means one drive channel: every event must follow the
    // previous back to back, with no concurrency anywhere.
    Circuit c(1);
    for (int i = 0; i < 6; ++i)
        c.x(0);
    const Durations dur;
    const Schedule s = schedule(c, dur);
    ASSERT_EQ(s.events.size(), 6u);
    for (std::size_t i = 1; i < s.events.size(); ++i) {
        EXPECT_GT(s.events[i].start, s.events[i - 1].start);
        EXPECT_DOUBLE_EQ(s.events[i].start,
                         s.events[i - 1].start +
                             s.events[i - 1].duration);
    }
    EXPECT_EQ(concurrency(s).peakChannels, 1);
}

TEST(Schedule, EventOrderByStartIsStableOnTies)
{
    // Hand-built (non-sorted) schedule: ascending start, ties broken
    // by event-list position — the canonical issue order the
    // instruction-stream compiler lowers in.
    Schedule s;
    const Gate g{Op::X, {0}, 0.0};
    for (const double start : {5.0, 0.0, 5.0, 3.0})
        s.events.push_back({g, start, 30e-9, {0}});
    s.makespan = 5.0 + 30e-9;
    const auto order = eventOrderByStart(s);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 1u);
    EXPECT_EQ(order[1], 3u);
    EXPECT_EQ(order[2], 0u);
    EXPECT_EQ(order[3], 2u);
}

TEST(Schedule, PartitionRoutesRepeatedGateToOneOwner)
{
    // All gates on the same (gate, channel): the partition must hand
    // every event to the drive qubit's owner and leave the other
    // parts empty.
    Circuit c(4);
    for (int i = 0; i < 5; ++i)
        c.x(2);
    const Schedule s = schedule(c, {});
    const std::vector<int> owner = {0, 0, 1, 1};
    const auto parts = partitionByOwner(s, owner, 2);
    ASSERT_EQ(parts.size(), 2u);
    EXPECT_TRUE(parts[0].events.empty());
    ASSERT_EQ(parts[1].events.size(), 5u);
    // Global start times are preserved in the owning slice.
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_DOUBLE_EQ(parts[1].events[i].start,
                         s.events[i].start);
    EXPECT_DOUBLE_EQ(parts[1].makespan, s.makespan);
}

TEST(Schedule, FingerprintCoversEveryField)
{
    // The program cache keys compiled programs by this fingerprint,
    // so it must separate any two schedules that differ in content:
    // byte-identical copies agree, and a change to any one field —
    // doubles by bit pattern, so 0.0 vs -0.0 too — moves it.
    Schedule base;
    base.events.push_back({{Op::X, {0}, 0.0}, 0.0, 30e-9, {0}});
    base.events.push_back({{Op::CX, {1, 2}, 0.0}, 0.0, 300e-9, {1, 2}});
    base.events.push_back({{Op::Rx, {3}, 0.25}, 30e-9, 30e-9, {3}});
    base.events.push_back({{Op::Measure, {0}, 0.0}, 30e-9, 300e-9, {0}});
    base.makespan = 330e-9;
    const std::uint64_t fp = scheduleFingerprint(base);
    const Schedule copy = base;
    EXPECT_EQ(scheduleFingerprint(copy), fp);

    const auto changed = [&](const char *what, auto edit) {
        Schedule s = base;
        edit(s);
        EXPECT_NE(scheduleFingerprint(s), fp) << what;
    };
    changed("op", [](Schedule &s) { s.events[0].gate.op = Op::SX; });
    changed("a qubit",
            [](Schedule &s) { s.events[1].gate.qubits[1] = 4; });
    changed("param",
            [](Schedule &s) { s.events[2].gate.param = 0.5; });
    changed("start", [](Schedule &s) { s.events[1].start += 1e-9; });
    changed("duration",
            [](Schedule &s) { s.events[0].duration *= 2.0; });
    changed("a channel",
            [](Schedule &s) { s.events[1].channels[0] = 3; });
    changed("event count",
            [](Schedule &s) { s.events.push_back(s.events.back()); });
    changed("event order", [](Schedule &s) {
        std::swap(s.events[0], s.events[1]);
    });
    changed("makespan", [](Schedule &s) { s.makespan += 1e-9; });

    Schedule pos = base;
    Schedule neg = base;
    pos.events[0].gate.param = 0.0;
    neg.events[0].gate.param = -0.0;
    EXPECT_NE(scheduleFingerprint(pos), scheduleFingerprint(neg));
}

TEST(Schedule, BandwidthScalesWithConcurrency)
{
    Circuit c(10);
    for (int q = 0; q < 10; ++q)
        c.x(q);
    const Schedule s = schedule(c, {});
    const auto bw = bandwidth(s, 24e9); // 6 GS/s x 4 B
    EXPECT_DOUBLE_EQ(bw.peak, 240e9);
    EXPECT_DOUBLE_EQ(bw.avg, 240e9);
}

// ------------------------------------------------------------ benchmarks

TEST(Benchmarks, TableVIQubitCounts)
{
    const auto specs = fidelityBenchmarks();
    ASSERT_EQ(specs.size(), 9u);
    EXPECT_EQ(specs[0].circuit.numQubits(), 2u); // swap
    EXPECT_EQ(specs[1].circuit.numQubits(), 3u); // toffoli
    EXPECT_EQ(specs[2].circuit.numQubits(), 4u); // qft-4
    EXPECT_EQ(specs[3].circuit.numQubits(), 4u); // adder-4
    EXPECT_EQ(specs[4].circuit.numQubits(), 6u); // bv-5
    EXPECT_EQ(specs[8].circuit.numQubits(), 10u); // qaoa-10
}

TEST(Benchmarks, BvHasTwoCx)
{
    const Circuit c = bernsteinVazirani("10100");
    EXPECT_EQ(c.countCx(), 2u);
}

TEST(Benchmarks, BvRecoversSecret)
{
    const Circuit c = bernsteinVazirani("1011");
    const auto result = fidelity::runIdeal(decompose(c));
    // The measured data bits reproduce the secret (LSB = bit 0).
    const std::size_t expected = 0b1101; // "1011" with bit0 = '1'
    EXPECT_NEAR(result.distribution[expected], 1.0, 1e-9);
}

TEST(Benchmarks, QftOnBasisStateIsUniform)
{
    Circuit c(3, "qft-input");
    c.x(0);
    const Circuit q = qft(3);
    for (const auto &g : q.gates())
        if (g.op != Op::Measure && g.op != Op::Barrier)
            c.add(g.op, g.qubits, g.param);
    const auto probs = simulate(c).probabilities();
    for (double p : probs)
        EXPECT_NEAR(p, 1.0 / 8.0, 1e-9);
}

TEST(Benchmarks, AdderComputesSum)
{
    // cin=1, a=1, b=0 -> sum=0 carry=1: qubits (0,1,2,3)=(1,1,0,1).
    const Circuit c = adder4();
    const auto result = fidelity::runIdeal(decompose(c));
    const std::size_t expected = 0b1011;
    EXPECT_NEAR(result.distribution[expected], 1.0, 1e-9);
}

TEST(Benchmarks, QaoaStructure)
{
    const auto edges = randomGraph(6, 1.0, 6);
    EXPECT_EQ(edges.size(), 15u); // K6
    const Circuit c = qaoa(6, edges, 2);
    EXPECT_EQ(c.countCx(), 2u * 15 * 2);
}

TEST(Benchmarks, RandomGraphIsConnectedAndDeterministic)
{
    const auto a = randomGraph(8, 0.3, 42);
    const auto b = randomGraph(8, 0.3, 42);
    EXPECT_EQ(a, b);
    // Ring backbone guarantees every vertex has degree >= 1.
    std::vector<int> deg(8, 0);
    for (const auto &[x, y] : a) {
        ++deg[static_cast<std::size_t>(x)];
        ++deg[static_cast<std::size_t>(y)];
    }
    for (int d : deg)
        EXPECT_GE(d, 1);
}

TEST(Benchmarks, TranspiledCxCountsInPaperBallpark)
{
    // Post-routing CX counts should be within ~2x of Table VI.
    const auto dev_map = CouplingMap(
        16, {{0, 1},   {1, 2},   {1, 4},   {2, 3},  {3, 5},
             {4, 7},   {5, 8},   {6, 7},   {7, 10}, {8, 9},
             {8, 11},  {10, 12}, {11, 14}, {12, 13},
             {12, 15}, {13, 14}});
    for (const auto &spec : fidelityBenchmarks()) {
        const Circuit t = transpile(spec.circuit, dev_map);
        EXPECT_GE(t.countCx(), spec.circuit.countCx());
        EXPECT_GT(t.countCx(), spec.paperCx / 3);
        EXPECT_LT(t.countCx(), spec.paperCx * 3 + 20)
            << spec.name;
    }
}

// ----------------------------------------------------------- surface code

TEST(SurfaceCode, QubitCountsMatchNames)
{
    EXPECT_EQ(surface17().totalQubits(), 17u);
    EXPECT_EQ(surface25().totalQubits(), 25u);
    EXPECT_EQ(surface49().totalQubits(), 49u);
    EXPECT_EQ(surface81().totalQubits(), 81u);
}

TEST(SurfaceCode, RotatedD3Structure)
{
    const auto sc = surface17();
    EXPECT_EQ(sc.dataQubits.size(), 9u);
    EXPECT_EQ(sc.xAncillas.size(), 4u);
    EXPECT_EQ(sc.zAncillas.size(), 4u);
    // Weight distribution: 4 weight-4 bulk + 4 weight-2 boundary.
    int w2 = 0, w4 = 0;
    for (const auto &s : sc.supports) {
        if (s.size() == 2)
            ++w2;
        else if (s.size() == 4)
            ++w4;
        else
            ADD_FAILURE() << "unexpected stabilizer weight "
                          << s.size();
    }
    EXPECT_EQ(w2, 4);
    EXPECT_EQ(w4, 4);
}

TEST(SurfaceCode, UnrotatedD3Structure)
{
    const auto sc = surface25();
    EXPECT_EQ(sc.dataQubits.size(), 13u);
    EXPECT_EQ(sc.xAncillas.size(), 6u);
    EXPECT_EQ(sc.zAncillas.size(), 6u);
}

TEST(SurfaceCode, EveryDataQubitIsCovered)
{
    for (const auto &sc : {surface17(), surface25()}) {
        std::set<int> covered;
        for (const auto &s : sc.supports)
            covered.insert(s.begin(), s.end());
        EXPECT_EQ(covered.size(), sc.dataQubits.size());
    }
}

TEST(SurfaceCode, SyndromeCircuitKeepsMostQubitsBusy)
{
    // Section VII-C: >80% of physical qubits driven concurrently.
    for (const auto &sc : {surface17(), surface25()}) {
        const Schedule s = schedule(sc.circuit, {});
        const auto prof = concurrency(s);
        EXPECT_GT(prof.peakChannels,
                  static_cast<int>(0.8 * sc.totalQubits()));
    }
}

TEST(SurfaceCode, MultipleRoundsScaleGateCount)
{
    const auto one = makeSurfaceCode(3, SurfaceLayout::Rotated, 1);
    const auto three = makeSurfaceCode(3, SurfaceLayout::Rotated, 3);
    EXPECT_EQ(three.circuit.countCx(), 3 * one.circuit.countCx());
}

TEST(SurfaceCode, NativeCouplingCoversInteractions)
{
    const auto sc = surface17();
    const auto map = sc.nativeCoupling();
    // Every CX in the circuit respects the native coupling.
    for (const auto &g : sc.circuit.gates())
        if (g.op == Op::CX)
            EXPECT_TRUE(map.connected(g.qubits[0], g.qubits[1]));
}

} // namespace
} // namespace compaqt::circuits
