#include "core/compressor.hh"

#include "common/logging.hh"

namespace compaqt::core
{

Compressor::Compressor(const CompressorConfig &cfg)
    : cfg_(cfg),
      codec_(CodecRegistry::instance().create(cfg.codec,
                                              cfg.windowSize))
{
    COMPAQT_REQUIRE(cfg_.threshold >= 0.0, "negative threshold");
}

CompressedWaveform
Compressor::compress(const waveform::IqWaveform &wf) const
{
    return codec_->compress(wf, cfg_.threshold);
}

void
Compressor::compress(const waveform::IqWaveform &wf,
                     CompressedWaveform &out) const
{
    codec_->compress(wf, cfg_.threshold, out);
}

CompressedChannel
Compressor::compressChannel(std::span<const double> x) const
{
    CompressedChannel out;
    compressChannel(x, out);
    return out;
}

void
Compressor::compressChannel(std::span<const double> x,
                            CompressedChannel &out) const
{
    codec_->encodeInto(x, cfg_.threshold, out);
}

} // namespace compaqt::core
