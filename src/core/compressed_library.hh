/**
 * @file
 * The compressed pulse library: every gate waveform of a device run
 * through fidelity-aware compression, with the per-gate and aggregate
 * statistics the evaluation reports (Figs 7/11/14, Tables VII/IX),
 * plus a binary serialization so a compiled library can be shipped to
 * the controller (Fig 6's "Compressed Pulse Library").
 */

#ifndef COMPAQT_CORE_COMPRESSED_LIBRARY_HH
#define COMPAQT_CORE_COMPRESSED_LIBRARY_HH

#include <iosfwd>
#include <map>

#include "core/fidelity_aware.hh"
#include "waveform/library.hh"

namespace compaqt::core
{

/** One compiled gate pulse and its compression metadata. */
struct CompressedEntry
{
    CompressedWaveform cw;
    /** Threshold Algorithm 1 settled on. */
    double threshold = 0.0;
    /** Worst-channel round-trip MSE at that threshold. */
    double mse = 0.0;
    /** True if Algorithm 1 met the MSE target. */
    bool converged = true;

    double ratio() const { return cw.ratio(); }
};

/**
 * A device's full compressed waveform library. core::LibraryCompiler
 * builds one; the runtime owns it as a shared_ptr published through
 * runtime::LibraryRegistry.
 */
class CompressedLibrary
{
  public:
    std::size_t size() const { return entries_.size(); }

    bool contains(const waveform::GateId &id) const;

    const CompressedEntry &entry(const waveform::GateId &id) const;

    /** Entry pointer, or nullptr when absent — the single-lookup
     *  variant the runtime playback and execute hot loops use. */
    const CompressedEntry *find(const waveform::GateId &id) const;

    const std::map<waveform::GateId, CompressedEntry> &
    entries() const
    {
        return entries_;
    }

    /** Aggregate old/new size over all waveforms. */
    dsp::CompressionStats totalStats() const;

    /** Overall compression ratio R of the library. */
    double ratio() const { return totalStats().ratio(); }

    /**
     * Worst-case words per window across the library — the uniform
     * compressed-memory width of Section V-A.
     */
    std::size_t worstCaseWindowWords() const;

    /** Per-gate compression ratios in entry order. */
    std::vector<double> ratios() const;

    /**
     * Calibration version stamp. 0 = unstamped (the default; keeps
     * compile output deterministic). A nonzero stamp identifies the
     * calibration epoch this library was compiled in; the runtime's
     * LibraryRegistry honors it on publish when it is newer than
     * everything published so far.
     */
    std::uint64_t version() const { return version_; }

    /** Stamp the calibration version (see version()). */
    void setVersion(std::uint64_t v) { version_ = v; }

    /** Serialize to a binary stream (format v5: the calibration
     *  version stamp, then the per-entry records). */
    void save(std::ostream &os) const;

    /** Deserialize; exact inverse of save(). Reads format v5 only;
     *  any other version, a bad magic, an unregistered codec name or
     *  a stream shorter than its length fields claim dies loudly. */
    static CompressedLibrary load(std::istream &is);

    /** Insert or replace an entry (for custom pulses). */
    void insert(const waveform::GateId &id, CompressedEntry e);

  private:
    std::map<waveform::GateId, CompressedEntry> entries_;
    std::uint64_t version_ = 0;
};

} // namespace compaqt::core

#endif // COMPAQT_CORE_COMPRESSED_LIBRARY_HH
