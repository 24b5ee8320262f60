/**
 * @file
 * The compression pipeline facade: one configured object covering the
 * scattered entry points of the core layer (Compressor, Decompressor,
 * compressFidelityAware, LibraryCompiler) behind a builder:
 *
 *     auto pipe = core::CompressionPipeline::with("int-dct")
 *                     .window(16)
 *                     .mseTarget(1e-5)
 *                     .build();
 *     auto result = pipe.compressToTarget(wf);   // Algorithm 1
 *     auto rt     = pipe.decompress(result.compressed);
 *     auto clib   = pipe.compressLibrary(lib);   // whole device
 *
 * A pipeline resolves its codec once in the CodecRegistry, so any
 * registered codec — including ones added by downstream code — plugs
 * in by name. The buffer-reusing compress/decompress overloads do no
 * allocation in steady state; like the underlying codec instance, a
 * pipeline is not safe to share between threads.
 */

#ifndef COMPAQT_CORE_PIPELINE_HH
#define COMPAQT_CORE_PIPELINE_HH

#include <memory>
#include <string>
#include <string_view>

#include "core/compressed_library.hh"
#include "core/fidelity_aware.hh"
#include "core/library_compiler.hh"

namespace compaqt::core
{

/** Builder-configured facade over the whole compression stack. */
class CompressionPipeline
{
  public:
    class Builder
    {
      public:
        explicit Builder(std::string codec);

        /** Transform window size (default 16). */
        Builder &window(std::size_t ws);

        /** Fixed coefficient-zeroing threshold (default 1e-3). */
        Builder &threshold(double t);

        /**
         * Enable fidelity-aware mode: compressToTarget() and the
         * library compiles run Algorithm 1 to this worst-channel
         * round-trip MSE instead of using the fixed threshold. The
         * library compiles require it.
         */
        Builder &mseTarget(double target);

        /** First threshold Algorithm 1 attempts (default 0.05). */
        Builder &initialThreshold(double t);

        /** Algorithm 1 give-up floor (default 1e-6). */
        Builder &minThreshold(double t);

        /**
         * Worker threads (including the caller) library compiles fan
         * out across (default 1). Any worker count produces a
         * bit-identical library.
         */
        Builder &workers(int n);

        /**
         * Enable per-channel adaptive planning for library compiles:
         * each channel ships the flat-top segmentation of Section
         * V-D instead of the window codec when that costs fewer
         * memory words at the same MSE target. Requires mseTarget()
         * and a windowed integer codec to have any effect.
         */
        Builder &planAdaptive(std::size_t min_flat_windows = 2);

        /** Resolve the codec and build; fatal on unknown codec. */
        CompressionPipeline build() const;

      private:
        FidelityAwareConfig cfg_;
        bool hasTarget_ = false;
        /** Compile-plane knobs (fidelity field filled at compile
         *  time from cfg_). planPerChannel defaults off here: the
         *  facade opts in through planAdaptive(). */
        LibraryCompilerConfig plan_;
    };

    /** Start building a pipeline for a registry codec name. */
    static Builder with(std::string_view codec);

    // Move-only: the codec instance carries scratch buffers, so a
    // pipeline has a single owner (create one per thread).
    CompressionPipeline(const CompressionPipeline &) = delete;
    CompressionPipeline &operator=(const CompressionPipeline &) = delete;
    CompressionPipeline(CompressionPipeline &&) = default;
    CompressionPipeline &operator=(CompressionPipeline &&) = default;

    /** The resolved codec implementation. */
    const ICodec &codec() const { return *codec_; }

    /** Full configuration (codec name, window, thresholds). */
    const FidelityAwareConfig &config() const { return cfg_; }

    /** True when an MSE target was set (fidelity-aware mode). */
    bool hasMseTarget() const { return hasTarget_; }

    // ------------------------------------------------ fixed threshold

    CompressedWaveform compress(const waveform::IqWaveform &wf) const;

    /** Buffer-reusing variant for hot loops. */
    void compress(const waveform::IqWaveform &wf,
                  CompressedWaveform &out) const;

    // ------------------------------------------------- Algorithm 1

    /**
     * Per-pulse fidelity-aware threshold search to the configured MSE
     * target. @pre hasMseTarget()
     */
    FidelityAwareResult
    compressToTarget(const waveform::IqWaveform &wf) const;

    // ------------------------------------------------- decompression

    /** @pre cw was produced by this pipeline's codec (panics on a
     *  mismatch); use Decompressor for arbitrary waveforms. */
    waveform::IqWaveform
    decompress(const CompressedWaveform &cw) const;

    /** Buffer-reusing variant for hot loops. */
    void decompress(const CompressedWaveform &cw,
                    waveform::IqWaveform &out) const;

    /** Worst (max) channel MSE of a fixed-threshold round trip. */
    double roundTripMse(const waveform::IqWaveform &wf) const;

    // ---------------------------------------------- library building

    /**
     * Compress a whole pulse library: Algorithm 1 per gate to the MSE
     * target, fanned out on the library compile plane with the
     * configured worker count and planning mode (compileLibrary()'s
     * library). @pre hasMseTarget()
     */
    CompressedLibrary
    compressLibrary(const waveform::PulseLibrary &lib) const;

    /**
     * Same compile, returning the compile-plane statistics (words
     * saved by planning, wall-clock, adaptive channel count).
     * @pre hasMseTarget()
     */
    LibraryCompileResult
    compileLibrary(const waveform::PulseLibrary &lib) const;

  private:
    CompressionPipeline(FidelityAwareConfig cfg, bool has_target,
                        LibraryCompilerConfig plan);

    FidelityAwareConfig cfg_;
    bool hasTarget_ = false;
    LibraryCompilerConfig plan_;
    std::unique_ptr<const ICodec> codec_;
};

} // namespace compaqt::core

#endif // COMPAQT_CORE_PIPELINE_HH
