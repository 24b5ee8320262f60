/**
 * @file
 * Unit tests for the fidelity substrate: gate algebra, pulse
 * integration, statevector simulation, Clifford groups, randomized
 * benchmarking, TVD, and the noise/gate-set machinery.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "circuits/circuit.hh"
#include "circuits/transpiler.hh"
#include "core/library_compiler.hh"
#include "fidelity/clifford.hh"
#include "fidelity/gates.hh"
#include "fidelity/noise.hh"
#include "fidelity/pulse_sim.hh"
#include "fidelity/rb.hh"
#include "fidelity/statevector.hh"
#include "fidelity/tvd.hh"
#include "waveform/library.hh"

namespace compaqt::fidelity
{
namespace
{

// ---------------------------------------------------------------- gates

TEST(Gates, PauliAlgebra)
{
    const Mat2 x = xGate(), y = yGate(), z = zGate();
    // XY = iZ
    const Mat2 xy = x * y;
    EXPECT_NEAR(std::abs(xy(0, 0) - Cplx(0, 1)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(xy(1, 1) - Cplx(0, -1)), 0.0, 1e-12);
    // X^2 = I
    const Mat2 xx = x * x;
    EXPECT_NEAR(std::abs(xx(0, 0) - 1.0), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(xx(0, 1)), 0.0, 1e-12);
    (void)z;
}

TEST(Gates, SxSquaredIsX)
{
    const Mat2 sx2 = sxGate() * sxGate();
    EXPECT_LT(phaseDistance(sx2, xGate()), 1e-12);
}

TEST(Gates, RotationsComposeAdditively)
{
    const Mat2 a = rxGate(0.4) * rxGate(0.7);
    EXPECT_LT(phaseDistance(a, rxGate(1.1)), 1e-12);
    const Mat2 b = rzGate(0.5) * rzGate(-1.2);
    EXPECT_LT(phaseDistance(b, rzGate(-0.7)), 1e-12);
}

TEST(Gates, HadamardConjugatesXToZ)
{
    const Mat2 hxh = hGate() * xGate() * hGate();
    EXPECT_LT(phaseDistance(hxh, zGate()), 1e-12);
}

TEST(Gates, XyRotationMatchesRxRy)
{
    EXPECT_LT(phaseDistance(xyRotation(0.8, 0.0), rxGate(0.8)),
              1e-12);
    EXPECT_LT(phaseDistance(xyRotation(0.8, M_PI / 2), ryGate(0.8)),
              1e-12);
}

TEST(Gates, KroneckerAndCx)
{
    const Mat4 xi = kron(xGate(), Mat2::identity());
    // CX * (X (x) I) * CX = X (x) X.
    const Mat4 conj = cxGate() * xi * cxGate();
    EXPECT_LT(phaseDistance(conj, kron(xGate(), xGate())), 1e-12);
}

TEST(Gates, CrUnitaryBlockStructure)
{
    // theta = pi/2, phi = 0: control |0> sees Rx(pi/2), control |1>
    // sees Rx(-pi/2).
    const Mat4 u = crUnitary(M_PI / 2, 0.0);
    const Mat2 rp = rxGate(M_PI / 2), rm = rxGate(-M_PI / 2);
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j) {
            EXPECT_NEAR(std::abs(u(i, j) - rp(i, j)), 0.0, 1e-12);
            EXPECT_NEAR(std::abs(u(2 + i, 2 + j) - rm(i, j)), 0.0,
                        1e-12);
        }
}

TEST(Gates, AvgFidelityBounds)
{
    EXPECT_NEAR(avgGateFidelity(xGate(), xGate()), 1.0, 1e-12);
    // Orthogonal Paulis: |tr(X Z)| = 0 -> F = 1/3 for d=2.
    EXPECT_NEAR(avgGateFidelity(xGate(), zGate()), 1.0 / 3.0, 1e-12);
    const Mat4 cx = cxGate();
    EXPECT_NEAR(avgGateFidelity(cx, cx), 1.0, 1e-12);
}

// ------------------------------------------------------------ pulse sim

TEST(PulseSim, CalibratedDragGivesTargetRotation)
{
    const auto wf = waveform::drag(144, 36.0, 0.2, 0.0); // beta=0
    const double scale = calibrateRabiScale(wf, M_PI);
    const Mat2 u = simulatePulse(wf, scale);
    EXPECT_LT(phaseDistance(u, rxGate(M_PI)), 1e-6);
}

TEST(PulseSim, HalfAreaGivesHalfRotation)
{
    const auto wf = waveform::drag(144, 36.0, 0.1, 0.0);
    const double scale = calibrateRabiScale(wf, M_PI / 2);
    const Mat2 u = simulatePulse(wf, scale);
    EXPECT_LT(phaseDistance(u, rxGate(M_PI / 2)), 1e-6);
}

TEST(PulseSim, DragBetaTiltsAxisSlightly)
{
    const auto plain = waveform::drag(144, 36.0, 0.2, 0.0);
    const auto dragged = waveform::drag(144, 36.0, 0.2, 1.5);
    const double scale = calibrateRabiScale(plain, M_PI);
    const Mat2 u = simulatePulse(dragged, scale);
    const double err = 1.0 - avgGateFidelity(rxGate(M_PI), u);
    EXPECT_GT(err, 0.0);
    EXPECT_LT(err, 1e-2); // small coherent deviation
}

TEST(PulseSim, IdenticalPulsesHaveZeroError)
{
    const auto wf = waveform::drag(144, 36.0, 0.2, 1.0);
    EXPECT_NEAR(pulseGateError(wf, wf, M_PI), 0.0, 1e-13);
}

TEST(PulseSim, DistortionRaisesGateError)
{
    const auto wf = waveform::drag(144, 36.0, 0.2, 1.0);
    auto distorted = wf;
    for (auto &v : distorted.i)
        v *= 1.02; // 2% amplitude error
    const double err = pulseGateError(wf, distorted, M_PI);
    EXPECT_GT(err, 1e-5);
    EXPECT_LT(err, 1e-2);
}

TEST(PulseSim, GateErrorTracksMse)
{
    // More distortion -> more gate error (the Algorithm 1 premise).
    const auto wf = waveform::drag(144, 36.0, 0.2, 1.0);
    double prev = -1.0;
    for (double eps : {1.001, 1.01, 1.05}) {
        auto d = wf;
        for (auto &v : d.i)
            v *= eps;
        const double err = pulseGateError(wf, d, M_PI);
        EXPECT_GT(err, prev);
        prev = err;
    }
}

TEST(PulseSim, CrPulseErrorIsSmallForSmallDistortion)
{
    const auto wf = waveform::gaussianSquare(1360, 200, 0.12, 0.1);
    auto d = wf;
    for (auto &v : d.i)
        v *= 1.001;
    const double err = crGateError(wf, d);
    EXPECT_GT(err, 0.0);
    EXPECT_LT(err, 1e-4);
}

// ---------------------------------------------------------- statevector

TEST(Statevector, InitialState)
{
    Statevector sv(3);
    EXPECT_EQ(sv.dim(), 8u);
    EXPECT_NEAR(std::abs(sv.amplitudes()[0] - 1.0), 0.0, 1e-15);
    EXPECT_NEAR(sv.normSquared(), 1.0, 1e-15);
}

TEST(Statevector, XFlipsTheRightQubit)
{
    Statevector sv(3);
    sv.apply1(xGate(), 1);
    EXPECT_NEAR(std::norm(sv.amplitudes()[2]), 1.0, 1e-12);
}

TEST(Statevector, BellState)
{
    Statevector sv(2);
    sv.apply1(hGate(), 0);
    sv.apply2(cxGate(), 0, 1); // control q0 (high slot), target q1
    const auto p = sv.probabilities();
    EXPECT_NEAR(p[0], 0.5, 1e-12);
    EXPECT_NEAR(p[3], 0.5, 1e-12);
    EXPECT_NEAR(p[1] + p[2], 0.0, 1e-12);
}

TEST(Statevector, PauliChannelsPreserveNorm)
{
    Statevector sv(4);
    sv.apply1(hGate(), 0);
    sv.apply2(cxGate(), 0, 2);
    sv.applyPauliX(1);
    sv.applyPauliY(3);
    sv.applyPauliZ(0);
    EXPECT_NEAR(sv.normSquared(), 1.0, 1e-12);
}

TEST(Statevector, MarginalSumsToOne)
{
    Statevector sv(4);
    sv.apply1(hGate(), 0);
    sv.apply1(hGate(), 2);
    sv.apply2(cxGate(), 0, 1);
    const auto m = sv.marginal({1, 3});
    ASSERT_EQ(m.size(), 4u);
    double total = 0.0;
    for (double p : m)
        total += p;
    EXPECT_NEAR(total, 1.0, 1e-12);
    // Qubit 3 untouched: marginal bit 1 must be 0.
    EXPECT_NEAR(m[2] + m[3], 0.0, 1e-12);
}

TEST(Statevector, ReadoutErrorMixesDistribution)
{
    std::vector<double> dist = {1.0, 0.0, 0.0, 0.0};
    applyReadoutError(dist, 0.1);
    EXPECT_NEAR(dist[0], 0.81, 1e-12);
    EXPECT_NEAR(dist[1], 0.09, 1e-12);
    EXPECT_NEAR(dist[2], 0.09, 1e-12);
    EXPECT_NEAR(dist[3], 0.01, 1e-12);
}

TEST(Statevector, AsymmetricReadoutBiasesTowardZero)
{
    std::vector<double> dist = {0.0, 1.0}; // always |1>
    applyReadoutError(dist, 0.01, 0.04);
    EXPECT_NEAR(dist[0], 0.04, 1e-12);
    EXPECT_NEAR(dist[1], 0.96, 1e-12);
}

TEST(Statevector, AmplitudeDampingRelaxesTowardGround)
{
    // Repeated damping of |1> must decay P(1) like (1-gamma)^n in
    // expectation.
    Rng rng(77);
    const int trials = 2000;
    int survived = 0;
    for (int t = 0; t < trials; ++t) {
        Statevector sv(1);
        sv.apply1(xGate(), 0);
        for (int k = 0; k < 10; ++k)
            sv.applyAmplitudeDamping(0, 0.05, rng);
        survived += sv.probabilities()[1] > 0.5 ? 1 : 0;
    }
    const double expect = std::pow(0.95, 10);
    EXPECT_NEAR(survived / static_cast<double>(trials), expect, 0.04);
}

TEST(Statevector, AmplitudeDampingPreservesNorm)
{
    Rng rng(78);
    Statevector sv(3);
    sv.apply1(hGate(), 0);
    sv.apply2(cxGate(), 0, 1);
    sv.apply1(hGate(), 2);
    for (int k = 0; k < 20; ++k)
        for (int q = 0; q < 3; ++q)
            sv.applyAmplitudeDamping(q, 0.1, rng);
    EXPECT_NEAR(sv.normSquared(), 1.0, 1e-9);
}

TEST(Statevector, AmplitudeDampingOnGroundIsNoOp)
{
    Rng rng(79);
    Statevector sv(2);
    const auto before = sv.amplitudes();
    sv.applyAmplitudeDamping(0, 0.5, rng);
    for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_EQ(sv.amplitudes()[i], before[i]);
}

// ------------------------------------------------------------------ TVD

TEST(Tvd, BasicProperties)
{
    const std::vector<double> p = {0.5, 0.5, 0.0, 0.0};
    const std::vector<double> q = {0.25, 0.25, 0.25, 0.25};
    EXPECT_NEAR(tvd(p, p), 0.0, 1e-15);
    EXPECT_NEAR(tvd(p, q), 0.5, 1e-12);
    EXPECT_NEAR(fidelityTvd(p, q), 0.5, 1e-12);
    // Symmetry.
    EXPECT_NEAR(tvd(p, q), tvd(q, p), 1e-15);
}

TEST(Tvd, DisjointDistributionsHaveUnitDistance)
{
    const std::vector<double> p = {1.0, 0.0};
    const std::vector<double> q = {0.0, 1.0};
    EXPECT_NEAR(tvd(p, q), 1.0, 1e-15);
    EXPECT_NEAR(fidelityTvd(p, q), 0.0, 1e-15);
}

// ------------------------------------------------------------- clifford

TEST(Clifford, GroupSizes)
{
    EXPECT_EQ(Clifford1Q::instance().size(), 24u);
    EXPECT_EQ(Clifford2Q::instance().size(), 11520u);
}

TEST(Clifford, InverseLookupIsExact)
{
    const auto &g1 = Clifford1Q::instance();
    Rng rng(3);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t i = g1.sample(rng);
        const std::size_t inv = g1.inverseIndex(g1.element(i));
        const Mat2 prod = g1.element(inv) * g1.element(i);
        EXPECT_LT(phaseDistance(prod, Mat2::identity()), 1e-9);
    }
}

TEST(Clifford, TwoQubitInverseLookup)
{
    const auto &g2 = Clifford2Q::instance();
    Rng rng(4);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t i = g2.sample(rng);
        const std::size_t inv = g2.inverseIndex(g2.element(i));
        const Mat4 prod = g2.element(inv) * g2.element(i);
        EXPECT_LT(phaseDistance(prod, Mat4::identity()), 1e-9);
    }
}

TEST(Clifford, ContainsGenerators)
{
    const auto &g2 = Clifford2Q::instance();
    EXPECT_NO_FATAL_FAILURE(g2.indexOf(cxGate()));
    EXPECT_NO_FATAL_FAILURE(
        g2.indexOf(kron(hGate(), Mat2::identity())));
}

TEST(Clifford, ProductStaysInGroup)
{
    const auto &g2 = Clifford2Q::instance();
    Rng rng(5);
    for (int trial = 0; trial < 10; ++trial) {
        const Mat4 a = g2.element(g2.sample(rng));
        const Mat4 b = g2.element(g2.sample(rng));
        EXPECT_NO_FATAL_FAILURE(g2.indexOf(a * b));
    }
}

// ------------------------------------------------------------------- RB

TEST(Rb, NoiselessSurvivalIsUnity)
{
    RbConfig cfg;
    cfg.lengths = {1, 5, 10};
    cfg.sequencesPerLength = 5;
    cfg.errorPerClifford = 0.0;
    const RbResult r = runRb2(cfg);
    for (double s : r.survival)
        EXPECT_NEAR(s, 1.0, 1e-9);
}

TEST(Rb, FittedEpcMatchesInjectedError)
{
    RbConfig cfg;
    cfg.sequencesPerLength = 40;
    cfg.errorPerClifford = 1.65e-2; // Fig 9 baseline
    cfg.seed = 11;
    const RbResult r = runRb2(cfg);
    EXPECT_NEAR(r.epc, 1.65e-2, 4e-3);
    EXPECT_NEAR(r.alpha, 1.0 - 4.0 / 3.0 * 1.65e-2, 6e-3);
}

TEST(Rb, SingleQubitEpcMatches)
{
    RbConfig cfg;
    cfg.sequencesPerLength = 200;
    cfg.errorPerClifford = 1e-2;
    cfg.seed = 12;
    const RbResult r = runRb1(cfg);
    EXPECT_NEAR(r.epc, 1e-2, 3e-3);
}

TEST(Rb, PauliProbabilityConversion)
{
    // d=4: p = epc * 4/3 * 15/16 = 1.25 epc.
    EXPECT_NEAR(pauliProbabilityForEpc(1.65e-2, 4), 1.25 * 1.65e-2,
                1e-12);
    // d=2: p = epc * 2 * 3/4 = 1.5 epc.
    EXPECT_NEAR(pauliProbabilityForEpc(1e-2, 2), 1.5e-2, 1e-12);
}

TEST(Rb, MoreNoiseDecaysFaster)
{
    RbConfig low, high;
    low.sequencesPerLength = high.sequencesPerLength = 24;
    low.errorPerClifford = 5e-3;
    high.errorPerClifford = 4e-2;
    low.seed = high.seed = 21;
    EXPECT_GT(runRb2(low).alpha, runRb2(high).alpha);
}

// ------------------------------------------------------ noise / gatesets

TEST(Noise, IdealModelIsNoiseless)
{
    const NoiseModel nm = NoiseModel::ideal();
    EXPECT_EQ(nm.p1q, 0.0);
    EXPECT_EQ(nm.p2q, 0.0);
    EXPECT_EQ(nm.readout0to1, 0.0);
    EXPECT_EQ(nm.readout1to0, 0.0);
    EXPECT_EQ(nm.damp2q, 0.0);
}

TEST(Noise, MachineModelsAreDeterministic)
{
    const auto a = NoiseModel::ibm("guadalupe");
    const auto b = NoiseModel::ibm("guadalupe");
    EXPECT_DOUBLE_EQ(a.p2q, b.p2q);
    EXPECT_NE(a.p2q, NoiseModel::ibm("hanoi").p2q);
}

TEST(Noise, RunIdealBellCircuit)
{
    circuits::Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.measureAll();
    const auto r = runIdeal(circuits::decompose(c));
    ASSERT_EQ(r.distribution.size(), 4u);
    EXPECT_NEAR(r.distribution[0], 0.5, 1e-9);
    EXPECT_NEAR(r.distribution[3], 0.5, 1e-9);
}

TEST(Noise, DepolarizingLowersFidelity)
{
    circuits::Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.measureAll();
    const auto basis = circuits::decompose(c);
    const auto ideal = runIdeal(basis);
    NoiseModel nm = NoiseModel::ideal();
    nm.p2q = 0.2;
    Rng rng(31);
    const auto noisy = runNoisy(basis, GateSet::ideal(2), nm, 400, rng);
    const double f = fidelityTvd(ideal.distribution,
                                 noisy.distribution);
    EXPECT_LT(f, 0.99);
    EXPECT_GT(f, 0.75);
}

TEST(Noise, GateSetFromLibraryIsNearIdeal)
{
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    const auto gs = GateSet::fromLibrary(dev, lib);
    for (int q = 0; q < 5; ++q) {
        const double err =
            1.0 - avgGateFidelity(xGate(), gs.xGateOn(q));
        EXPECT_LT(err, 2e-2) << "q=" << q;
    }
    const double cx_err =
        1.0 - avgGateFidelity(cxGate(), gs.cxGateOn(0, 1));
    EXPECT_LT(cx_err, 5e-2);
}

TEST(Noise, CompressedGateSetCloseToBaseline)
{
    // The whole point of COMPAQT: decompressed pulses implement gates
    // nearly identical to the originals.
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    core::FidelityAwareConfig cfg;
    cfg.base.codec = "int-dct";
    cfg.base.windowSize = 16;
    const auto clib = core::LibraryCompiler({.fidelity = cfg,
                                             .workers = 1,
                                             .planPerChannel = false})
                          .compile(lib)
                          .library;
    const auto base = GateSet::fromLibrary(dev, lib);
    const auto comp = GateSet::fromCompressed(dev, lib, clib);
    for (int q = 0; q < 5; ++q) {
        const double err = 1.0 - avgGateFidelity(base.xGateOn(q),
                                                 comp.xGateOn(q));
        // Paper Section IV-D: well under the stochastic noise floor
        // (the RB deltas of Table III are ~2e-3).
        EXPECT_LT(err, 3e-3) << "q=" << q;
    }
}

TEST(Noise, SampleShotsApproximatesDistribution)
{
    const std::vector<double> dist = {0.7, 0.1, 0.2, 0.0};
    Rng rng(41);
    const auto emp = sampleShots(dist, 80000, rng);
    for (std::size_t i = 0; i < dist.size(); ++i)
        EXPECT_NEAR(emp[i], dist[i], 0.01);
}

} // namespace
} // namespace compaqt::fidelity
