/**
 * @file
 * Streaming-decode throughput: the old vector decode plane vs the
 * span-based zero-allocation decode plane, per codec x window size.
 *
 * The "vector" loop reproduces the PR-2 decode plane per codec,
 * allocation pattern and algorithm alike:
 *   - int-dct: RLE-expand to a full coefficient window, DENSE
 *     inverse matrix product, samples pushed into a freshly
 *     allocated shared vector (the old decoded-window cache's miss
 *     shape);
 *   - dct-w:   the same O(ws) window decode it has today, but
 *     through a freshly allocated shared vector per window;
 *   - delta:   whole-channel decode-and-slice per window — delta had
 *     no O(ws) window decode before this PR.
 * The "span" loop is the new plane: one codec resolution per
 * channel, decompressWindowInto() into arena-backed caller memory
 * (prefix-sparse inverse for int-dct, checkpointed O(ws) decode for
 * delta).
 *
 * A playback row plays a real library end to end: the QEC
 * calibration the fleet benchmark serves (d=5 rotated surface-code
 * patch, int-dct ws16, target MSE 1e-5, per-channel adaptive
 * planning), every channel of every gate through
 * runtime::WindowPlayer::playWindows, reported beside the kernel rows
 * with the player/kernel ratio (player samples/s over the int-dct
 * ws16 k=8 kernel row on the active backend). The same library
 * through Decompressor::decodeWindowsInto in kBatchWindows batches
 * rides along. The row also reports the calibration's window shapes:
 * flat windows (and their samples) served by the IDCT bypass, and
 * ramp windows by kept-prefix length — empty and DC-only windows are
 * one constant fill, p >= 2 runs the fused kernel.
 *
 * The bench also instruments global operator new to count heap
 * allocations inside the measured span, batch and playback loops —
 * the acceptance criterion is exactly zero in steady state — and
 * emits BENCH_decode_stream.json with samples/s for every path plus
 * the speedups and the allocation counters.
 *
 * Usage: bench_decode_stream [--tiny]
 *   --tiny  CI smoke mode: fewer repetitions, same schema.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "circuits/surface_code.hh"
#include "common/arena.hh"
#include "common/table.hh"
#include "core/decompressor.hh"
#include "core/library_compiler.hh"
#include "core/pipeline.hh"
#include "dsp/int_dct.hh"
#include "dsp/simd.hh"
#include "runtime/playback.hh"
#include "uarch/pipeline.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"
#include "waveform/shapes.hh"

// ------------------------------------------------ allocation counter
//
// Replaces the global allocator for this binary only. The counter
// makes "zero allocations in the steady-state decode loop" a measured
// number instead of a claim.

namespace
{

std::atomic<std::uint64_t> g_heapAllocs{0};
std::atomic<bool> g_countAllocs{false};

void *
countedAlloc(std::size_t n)
{
    if (g_countAllocs.load(std::memory_order_relaxed))
        g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace compaqt;

namespace
{

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct PathResult
{
    double samplesPerSec = 0.0;
    std::uint64_t allocations = 0;
};

/** Best-of-N samples/s over `reps` timed passes of `loop`, which
 *  decodes the whole channel once per call and returns the samples
 *  produced. */
template <typename Loop>
PathResult
measure(int reps, int passes_per_rep, Loop &&loop)
{
    PathResult r;
    for (int rep = 0; rep < reps; ++rep) {
        g_heapAllocs.store(0);
        g_countAllocs.store(true);
        const auto t0 = std::chrono::steady_clock::now();
        std::uint64_t samples = 0;
        for (int p = 0; p < passes_per_rep; ++p)
            samples += loop();
        const auto t1 = std::chrono::steady_clock::now();
        g_countAllocs.store(false);
        const double dt = seconds(t0, t1);
        if (dt > 0.0) {
            r.samplesPerSec = std::max(
                r.samplesPerSec,
                static_cast<double>(samples) / dt);
        }
        // Steady state: every rep after the first runs with warm
        // buffers; report the minimum so a warm-up allocation in rep
        // 0 is visible separately from the steady state.
        if (rep == 0 || g_heapAllocs.load() < r.allocations)
            r.allocations = g_heapAllocs.load();
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool tiny =
        argc > 1 && std::strcmp(argv[1], "--tiny") == 0;
    const int reps = tiny ? 3 : 5;

    bench::JsonReport report("decode_stream");
    // Single-threaded decode loop: say so explicitly rather than
    // leaning on the header default.
    report.setWorkers(1);

    // SIMD decode-plane dispatch decision and geometry, so a BENCH
    // trajectory is attributable to the backend that produced it.
    const auto ambient = dsp::simd::activeBackend();
    const auto detected = dsp::simd::detectedBackend();
    report.setEnv("simd_backend",
                  std::string(dsp::simd::backendName(ambient)));
    report.setEnv("simd_backend_detected",
                  std::string(dsp::simd::backendName(detected)));
    report.setEnv("simd_int32_lanes",
                  static_cast<std::int64_t>(
                      dsp::simd::int32Lanes(ambient)));
    report.setEnv("simd_double_lanes",
                  static_cast<std::int64_t>(
                      dsp::simd::doubleLanes(ambient)));
    report.setEnv("playback_batch_windows",
                  static_cast<std::int64_t>(
                      runtime::WindowPlayer::kBatchWindows));
    report.setEnv(
        "pipeline_fused_batch_windows",
        static_cast<std::int64_t>(
            uarch::DecompressionPipeline::kFusedBatchWindows));
    report.setEnv("bench_batch_sizes", "1,2,4,8");

    // A flat-top pulse long enough to hold many windows, trimmed to
    // an odd length so every config exercises a clamped tail window.
    const auto wf = waveform::gaussianSquare(1360, 200, 0.12, 0.15);
    waveform::IqWaveform odd = wf;
    odd.i.resize(odd.i.size() - 3);
    odd.q.resize(odd.q.size() - 3);

    struct Config
    {
        const char *codec;
        std::size_t ws;
    };
    const std::vector<Config> configs = {
        {"int-dct", 8},  {"int-dct", 16}, {"int-dct", 32},
        {"dct-w", 8},    {"dct-w", 16},   {"dct-w", 32},
        {"delta", 16},   {"delta", 32},
    };

    Table t("streaming window decode: fresh-vector path vs span path"
            " (samples/s, steady state)");
    t.header({"codec", "ws", "windows", "vec Msamp/s", "span Msamp/s",
              "speedup", "span allocs"});

    // Batch-of-windows sweep: decodeWindowsInto at K windows per
    // dispatch, per SIMD backend (scalar always; the detected
    // backend when the host has one).
    Table bt("batch window decode x SIMD backend (Msamples/s)");
    bt.header({"codec", "ws", "backend", "k=1", "k=2", "k=4", "k=8"});
    std::vector<dsp::simd::Backend> backends = {
        dsp::simd::Backend::Scalar};
    if (detected != dsp::simd::Backend::Scalar)
        backends.push_back(detected);
    const std::size_t batch_sizes[] = {1, 2, 4, 8};

    double int_dct16_speedup = 0.0;
    double kernel16_active_k8 = 0.0;
    double simd16_scalar_k1 = 0.0, simd16_best = 0.0;
    double simd32_scalar_k1 = 0.0, simd32_best = 0.0;
    std::uint64_t worst_span_allocs = 0;
    std::uint64_t worst_batch_allocs = 0;
    for (const auto &cfg : configs) {
        const auto pipe = core::CompressionPipeline::with(cfg.codec)
                              .window(cfg.ws)
                              .threshold(1e-3)
                              .build();
        const auto cw = pipe.compress(odd);
        const auto &channel = cw.i;
        const std::size_t nwin = channel.numWindows();
        const core::Decompressor dec;

        // Scale passes so each rep runs a few milliseconds.
        const int passes =
            tiny ? 20 : static_cast<int>(40000 / (nwin + 1)) + 1;
        const bool is_delta = std::string(cfg.codec) == "delta";
        const bool is_int = std::string(cfg.codec) == "int-dct";

        // Old plane, reproduced per codec (see file header).
        PathResult vec;
        if (is_int) {
            const dsp::IntDct xform(cfg.ws);
            std::vector<std::int32_t> ybuf(cfg.ws), xbuf(cfg.ws);
            vec = measure(reps, passes, [&] {
                std::uint64_t n = 0;
                for (std::size_t w = 0; w < nwin; ++w) {
                    auto out =
                        std::make_shared<std::vector<double>>();
                    core::Decompressor::expandWindowIntInto(
                        channel.windows[w], ybuf);
                    xform.inverse(ybuf, xbuf);
                    const std::size_t len = channel.windowSamples(w);
                    out->reserve(len);
                    for (std::size_t k = 0; k < len; ++k)
                        out->push_back(
                            dsp::IntDct::dequantize(xbuf[k]));
                    n += out->size();
                }
                return n;
            });
        } else if (is_delta) {
            vec = measure(reps, passes, [&] {
                std::uint64_t n = 0;
                for (std::size_t w = 0; w < nwin; ++w) {
                    // PR-2 delta: decode the whole channel, slice.
                    std::vector<double> full;
                    dec.decompressChannel(channel, cw.codec, full);
                    const std::size_t begin = w * cfg.ws;
                    std::vector<double> out(
                        full.begin() +
                            static_cast<std::ptrdiff_t>(begin),
                        full.begin() + static_cast<std::ptrdiff_t>(
                                           begin +
                                           channel.windowSamples(w)));
                    n += out.size();
                }
                return n;
            });
        } else {
            vec = measure(reps, passes, [&] {
                std::uint64_t n = 0;
                for (std::size_t w = 0; w < nwin; ++w) {
                    auto out =
                        std::make_shared<std::vector<double>>();
                    out->resize(channel.windowSamples(w));
                    dec.decompressWindowInto(channel, cw.codec, w, *out);
                    n += out->size();
                }
                return n;
            });
        }

        // New plane: one codec resolution, one arena span, reused
        // for every window.
        const core::ICodec &codec = dec.resolve(cw.codec, cfg.ws);
        auto &arena = ScratchArena::forThread();
        const SampleSpan out = arena.samples(cfg.ws);
        const auto span = measure(reps, passes, [&] {
            std::uint64_t n = 0;
            for (std::size_t w = 0; w < nwin; ++w)
                n += codec.decompressWindowInto(channel, w, out);
            return n;
        });

        const double speedup =
            vec.samplesPerSec > 0.0
                ? span.samplesPerSec / vec.samplesPerSec
                : 0.0;
        if (std::string(cfg.codec) == "int-dct" && cfg.ws == 16)
            int_dct16_speedup = speedup;
        worst_span_allocs =
            std::max(worst_span_allocs, span.allocations);

        t.row({cfg.codec, std::to_string(cfg.ws),
               std::to_string(nwin),
               Table::num(vec.samplesPerSec / 1e6, 2),
               Table::num(span.samplesPerSec / 1e6, 2),
               Table::num(speedup, 2),
               std::to_string(span.allocations)});

        const std::string prefix = std::string(cfg.codec) + "_ws" +
                                   std::to_string(cfg.ws);
        report.metric(prefix + "_vector_samples_per_sec",
                      vec.samplesPerSec);
        report.metric(prefix + "_span_samples_per_sec",
                      span.samplesPerSec);
        report.metric(prefix + "_speedup", speedup);

        // Batch sweep: same channel, K windows per dispatch, per
        // backend. The forced backend is restored before the next
        // config's (ambient-backend) measurements.
        const SampleSpan batch_out = arena.samples(cfg.ws * 8);
        for (const auto backend : backends) {
            dsp::simd::setBackend(backend);
            const std::string bname(dsp::simd::backendName(backend));
            std::vector<std::string> cells = {
                cfg.codec, std::to_string(cfg.ws), bname};
            for (const std::size_t k : batch_sizes) {
                const auto batch = measure(reps, passes, [&] {
                    std::uint64_t n = 0;
                    for (std::size_t w = 0; w < nwin;) {
                        const std::size_t run =
                            std::min(k, nwin - w);
                        n += codec.decodeWindowsInto(channel, w, run,
                                                     batch_out);
                        w += run;
                    }
                    return n;
                });
                worst_batch_allocs = std::max(worst_batch_allocs,
                                              batch.allocations);
                cells.push_back(
                    Table::num(batch.samplesPerSec / 1e6, 2));
                report.metric(prefix + "_k" + std::to_string(k) +
                                  "_" + bname + "_samples_per_sec",
                              batch.samplesPerSec);
                if (is_int && backend ==
                                  dsp::simd::Backend::Scalar &&
                    k == 1) {
                    if (cfg.ws == 16)
                        simd16_scalar_k1 = batch.samplesPerSec;
                    if (cfg.ws == 32)
                        simd32_scalar_k1 = batch.samplesPerSec;
                }
                if (is_int && k == 8 && cfg.ws == 16 &&
                    backend == ambient)
                    kernel16_active_k8 = batch.samplesPerSec;
                if (is_int && k == 8) {
                    if (cfg.ws == 16)
                        simd16_best = std::max(simd16_best,
                                               batch.samplesPerSec);
                    if (cfg.ws == 32)
                        simd32_best = std::max(simd32_best,
                                               batch.samplesPerSec);
                }
            }
            bt.row(cells);
        }
        dsp::simd::setBackend(ambient);
    }

    // Playback row: the fleet benchmark's QEC calibration, every
    // channel of every gate through the player (no event log, so
    // nothing but decode), then through the Decompressor's batch
    // entry in kBatchWindows chunks.
    // The device name seeds the synthetic calibrations, so this is the
    // fleet benchmark's one-patch device and pulses exactly.
    const auto patch = circuits::makeSurfaceCode(
        5, circuits::SurfaceLayout::Rotated, 1);
    const auto qec_dev = waveform::DeviceModel::synthetic(
        "fleetbench-d5x1", patch.totalQubits(),
        patch.nativeCoupling().edges());
    core::LibraryCompilerConfig lcc;
    lcc.fidelity.base.codec = "int-dct";
    lcc.fidelity.base.windowSize = 16;
    lcc.fidelity.targetMse = 1e-5;
    auto qec_lib = std::make_shared<const core::CompressedLibrary>(
        core::LibraryCompiler(lcc)
            .compile(waveform::PulseLibrary::build(qec_dev))
            .library);
    runtime::RackConfig rc;
    rc.numShards = 1;
    rc.controller.compressed = true;
    rc.controller.windowSize = 16;
    rc.controller.memoryWidth = qec_lib->worstCaseWindowWords();
    const runtime::Rack qec_rack(qec_dev, qec_lib, rc);
    const runtime::VersionedLibrary vlib = qec_rack.currentLibrary();
    runtime::WindowPlayer player(qec_rack, vlib);
    std::uint64_t qec_windows = 0;
    // Window shapes: [0] empty prefix, [1] DC only, [2] p >= 2.
    std::uint64_t flat_windows = 0, flat_samples = 0;
    std::uint64_t ramp_windows[3] = {0, 0, 0};
    const auto tally_ramp = [&](const core::CompressedChannel &sub,
                                std::size_t first, std::size_t end) {
        for (std::size_t w = first; w < end; ++w)
            ++ramp_windows[std::min<std::size_t>(
                sub.windows[w].prefixSize(), 2)];
    };
    for (const auto &[id, e] : qec_lib->entries())
        for (const auto *ch : {&e.cw.i, &e.cw.q}) {
            const std::size_t n = ch->numWindows();
            qec_windows += n;
            if (!ch->isAdaptive()) {
                tally_ramp(*ch, 0, n);
                continue;
            }
            ch->forEachSegmentRun(
                0, n,
                [&](const core::AdaptiveSegment &seg, std::size_t lo,
                    std::size_t hi, std::size_t local) {
                    if (!seg.isFlat) {
                        tally_ramp(seg.windows, local, local + hi - lo);
                        return;
                    }
                    flat_windows += hi - lo;
                    flat_samples +=
                        std::min(hi * ch->windowSize, ch->numSamples) -
                        lo * ch->windowSize;
                });
        }
    const auto play_library = [&] {
        runtime::PlaybackCounters c;
        for (const auto &[id, e] : qec_lib->entries())
            for (std::uint8_t ch = 0; ch < 2; ++ch) {
                const auto n = static_cast<std::uint32_t>(
                    (ch == 0 ? e.cw.i : e.cw.q).numWindows());
                if (n > 0)
                    player.playWindows(id, e, ch, 0, n, c);
            }
        return c.samples;
    };
    const core::Decompressor qec_dec;
    constexpr std::size_t kPlayBatch = runtime::WindowPlayer::kBatchWindows;
    std::vector<double> qec_scratch(16 * kPlayBatch);
    const auto decode_library = [&] {
        std::uint64_t n = 0;
        for (const auto &[id, e] : qec_lib->entries())
            for (const auto *ch : {&e.cw.i, &e.cw.q})
                for (std::size_t w = 0; w < ch->numWindows();
                     w += kPlayBatch)
                    n += qec_dec.decodeWindowsInto(
                        *ch, e.cw.codec, w,
                        std::min(kPlayBatch, ch->numWindows() - w),
                        SampleSpan(qec_scratch.data(),
                                   qec_scratch.size()));
        return n;
    };
    play_library(); // first play sizes the player's scratch
    const int qec_passes = tiny ? 3 : 20;
    const auto played = measure(reps, qec_passes, play_library);
    const auto decoded = measure(reps, qec_passes, decode_library);
    const double play_ratio =
        kernel16_active_k8 > 0.0
            ? played.samplesPerSec / kernel16_active_k8
            : 0.0;
    Table pt("QEC calibration playback (d=5 rotated, int-dct ws16, "
             "MSE 1e-5; " +
             std::string(dsp::simd::backendName(ambient)) + ")");
    pt.header({"path", "windows", "Msamp/s", "vs kernel k=8",
               "allocs"});
    pt.row({"WindowPlayer::playWindows", std::to_string(qec_windows),
            Table::num(played.samplesPerSec / 1e6, 2),
            Table::num(play_ratio, 2),
            std::to_string(played.allocations)});
    pt.row({"Decompressor::decodeWindowsInto k=8",
            std::to_string(qec_windows),
            Table::num(decoded.samplesPerSec / 1e6, 2),
            Table::num(kernel16_active_k8 > 0.0
                           ? decoded.samplesPerSec / kernel16_active_k8
                           : 0.0,
                       2),
            std::to_string(decoded.allocations)});
    report.metric("playback_samples_per_sec", played.samplesPerSec);
    report.metric("playback_kernel_ratio", play_ratio);
    report.metric("playback_loop_heap_allocations",
                  static_cast<double>(played.allocations));
    report.metric("playback_decompressor_samples_per_sec",
                  decoded.samplesPerSec);
    report.metric("playback_windows", static_cast<double>(qec_windows));
    report.metric("playback_flat_windows",
                  static_cast<double>(flat_windows));
    report.metric("playback_flat_samples",
                  static_cast<double>(flat_samples));
    report.metric("playback_empty_prefix_windows",
                  static_cast<double>(ramp_windows[0]));
    report.metric("playback_dc_only_windows",
                  static_cast<double>(ramp_windows[1]));
    report.metric("playback_multi_coeff_windows",
                  static_cast<double>(ramp_windows[2]));

    report.print(t);
    std::cout << '\n';
    report.print(bt);
    std::cout << '\n';
    report.print(pt);
    std::cout << "QEC calibration window shapes: " << qec_windows
              << " windows = " << flat_windows << " flat ("
              << flat_samples << " samples) + " << ramp_windows[0]
              << " empty-prefix + " << ramp_windows[1] << " DC-only + "
              << ramp_windows[2] << " with p >= 2\n";

    std::cout << "\nint-dct ws=16 span-path speedup: "
              << Table::num(int_dct16_speedup, 2)
              << "x; steady-state heap allocations in the span "
                 "decode loop: "
              << worst_span_allocs << "\n";
    report.metric("int_dct_span_speedup", int_dct16_speedup);
    report.metric("span_loop_heap_allocations",
                  static_cast<double>(worst_span_allocs));

    // Headline SIMD speedups: active-backend k=8 batch decode over
    // scalar k=1 (the pre-SIMD, per-window dispatch shape).
    const double simd16_speedup =
        simd16_scalar_k1 > 0.0 ? simd16_best / simd16_scalar_k1 : 0.0;
    const double simd32_speedup =
        simd32_scalar_k1 > 0.0 ? simd32_best / simd32_scalar_k1 : 0.0;
    std::cout << "int-dct simd batch speedup (k=8 "
              << dsp::simd::backendName(detected)
              << " vs k=1 scalar): ws16 "
              << Table::num(simd16_speedup, 2) << "x, ws32 "
              << Table::num(simd32_speedup, 2)
              << "x; steady-state heap allocations in the batch "
                 "decode loop: "
              << worst_batch_allocs << "\n";
    report.metric("int_dct_ws16_simd_speedup", simd16_speedup);
    report.metric("int_dct_ws32_simd_speedup", simd32_speedup);
    report.metric("batch_loop_heap_allocations",
                  static_cast<double>(worst_batch_allocs));
    report.metric("arena_block_allocations",
                  static_cast<double>(
                      ScratchArena::forThread().blockAllocations()));
    return 0;
}
