#include "core/pipeline.hh"

#include <algorithm>

#include "common/logging.hh"
#include "dsp/metrics.hh"

namespace compaqt::core
{

CompressionPipeline::Builder::Builder(std::string codec)
{
    cfg_.base.codec = std::move(codec);
    // The facade keeps the historical single-codec behavior unless
    // planAdaptive() opts in.
    plan_.planPerChannel = false;
}

CompressionPipeline::Builder &
CompressionPipeline::Builder::window(std::size_t ws)
{
    cfg_.base.windowSize = ws;
    return *this;
}

CompressionPipeline::Builder &
CompressionPipeline::Builder::threshold(double t)
{
    cfg_.base.threshold = t;
    return *this;
}

CompressionPipeline::Builder &
CompressionPipeline::Builder::mseTarget(double target)
{
    cfg_.targetMse = target;
    hasTarget_ = true;
    return *this;
}

CompressionPipeline::Builder &
CompressionPipeline::Builder::initialThreshold(double t)
{
    cfg_.initialThreshold = t;
    return *this;
}

CompressionPipeline::Builder &
CompressionPipeline::Builder::minThreshold(double t)
{
    cfg_.minThreshold = t;
    return *this;
}

CompressionPipeline::Builder &
CompressionPipeline::Builder::workers(int n)
{
    plan_.workers = n;
    return *this;
}

CompressionPipeline::Builder &
CompressionPipeline::Builder::planAdaptive(std::size_t min_flat_windows)
{
    plan_.planPerChannel = true;
    plan_.minFlatWindows = min_flat_windows;
    return *this;
}

CompressionPipeline
CompressionPipeline::Builder::build() const
{
    return CompressionPipeline(cfg_, hasTarget_, plan_);
}

CompressionPipeline::Builder
CompressionPipeline::with(std::string_view codec)
{
    return Builder(std::string(codec));
}

CompressionPipeline::CompressionPipeline(FidelityAwareConfig cfg,
                                         bool has_target,
                                         LibraryCompilerConfig plan)
    : cfg_(std::move(cfg)), hasTarget_(has_target),
      plan_(std::move(plan)),
      codec_(CodecRegistry::instance().create(cfg_.base.codec,
                                              cfg_.base.windowSize))
{
    COMPAQT_REQUIRE(cfg_.base.threshold >= 0.0, "negative threshold");
    COMPAQT_REQUIRE(plan_.workers >= 1, "pipeline needs >= 1 worker");
}

CompressedWaveform
CompressionPipeline::compress(const waveform::IqWaveform &wf) const
{
    return codec_->compress(wf, cfg_.base.threshold);
}

void
CompressionPipeline::compress(const waveform::IqWaveform &wf,
                              CompressedWaveform &out) const
{
    codec_->compress(wf, cfg_.base.threshold, out);
}

FidelityAwareResult
CompressionPipeline::compressToTarget(
    const waveform::IqWaveform &wf) const
{
    COMPAQT_REQUIRE(hasTarget_,
                    "compressToTarget needs mseTarget() configured");
    return compressFidelityAware(*codec_, wf, cfg_);
}

waveform::IqWaveform
CompressionPipeline::decompress(const CompressedWaveform &cw) const
{
    waveform::IqWaveform out;
    decompress(cw, out);
    return out;
}

void
CompressionPipeline::decompress(const CompressedWaveform &cw,
                                waveform::IqWaveform &out) const
{
    // A mismatched pipeline would otherwise misdecode silently (the
    // delta codec would read empty delta fields); use Decompressor
    // for waveforms of unknown provenance.
    COMPAQT_REQUIRE(cw.codec == codec_->name(),
                    "waveform was compressed with a different codec "
                    "than this pipeline's");
    codec_->decompress(cw, out);
}

double
CompressionPipeline::roundTripMse(const waveform::IqWaveform &wf) const
{
    CompressedWaveform cw;
    waveform::IqWaveform rt;
    compress(wf, cw);
    decompress(cw, rt);
    return std::max(dsp::mse(wf.i, rt.i), dsp::mse(wf.q, rt.q));
}

LibraryCompileResult
CompressionPipeline::compileLibrary(
    const waveform::PulseLibrary &lib) const
{
    COMPAQT_REQUIRE(hasTarget_,
                    "compileLibrary needs mseTarget() configured");
    LibraryCompilerConfig c = plan_;
    c.fidelity = cfg_;
    return LibraryCompiler(c).compile(lib);
}

CompressedLibrary
CompressionPipeline::compressLibrary(
    const waveform::PulseLibrary &lib) const
{
    return compileLibrary(lib).library;
}

} // namespace compaqt::core
