#include "core/compressed_library.hh"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/logging.hh"
#include "core/codec.hh"

namespace compaqt::core
{

namespace
{

constexpr std::uint32_t kMagic = 0x43505154; // "CPQT"
// Format v5, the one this build writes and reads: a uint64
// calibration version stamp, then per entry the codec's registry name
// and two channel records, each carrying its delta payload (with the
// checkpoint side index) and its adaptive flat-top segment list
// (Section V-D). Streams of any other version are rejected.
constexpr std::uint32_t kVersion = 5;

/** Elements one length field may add to a container before the bytes
 *  behind them are read. A count the stream cannot back dies
 *  "truncated" after at most one chunk instead of allocating what it
 *  claims. */
constexpr std::uint64_t kReadChunk = 4096;

template <typename T>
void
writePod(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
T
readPod(std::istream &is)
{
    T v{};
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    COMPAQT_REQUIRE(static_cast<bool>(is),
                    "truncated compressed library stream");
    return v;
}

template <typename T>
void
writeVector(std::ostream &os, const std::vector<T> &v)
{
    writePod<std::uint64_t>(os, v.size());
    if (!v.empty())
        os.write(reinterpret_cast<const char *>(v.data()),
                 static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T>
readVector(std::istream &is)
{
    const auto n = readPod<std::uint64_t>(is);
    std::vector<T> v;
    for (std::uint64_t done = 0; done < n;) {
        const auto k = std::min(n - done, kReadChunk);
        v.resize(done + k);
        is.read(reinterpret_cast<char *>(v.data() + done),
                static_cast<std::streamsize>(k * sizeof(T)));
        COMPAQT_REQUIRE(static_cast<bool>(is),
                        "truncated compressed library stream");
        done += k;
    }
    return v;
}

void
writeString(std::ostream &os, const std::string &s)
{
    COMPAQT_REQUIRE(s.size() <= 255,
                    "codec name too long to serialize");
    writePod<std::uint8_t>(os, static_cast<std::uint8_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string
readString(std::istream &is)
{
    const auto n = readPod<std::uint8_t>(is);
    std::string s(n, '\0');
    if (n > 0) {
        is.read(s.data(), n);
        COMPAQT_REQUIRE(static_cast<bool>(is),
                        "truncated compressed library stream");
    }
    return s;
}

void
writeDelta(std::ostream &os, const dsp::DeltaEncoded &d)
{
    writePod<std::uint16_t>(os, d.base);
    writePod<std::int32_t>(os, d.deltaWidth);
    writePod<std::uint64_t>(os, d.originalCount);
    writePod<std::uint8_t>(os, d.hasZeroCrossing ? 1 : 0);
    writeVector(os, d.deltas);
    writePod<std::uint64_t>(os, d.checkpointStride);
    writeVector(os, d.checkpoints);
}

dsp::DeltaEncoded
readDelta(std::istream &is)
{
    dsp::DeltaEncoded d;
    d.base = readPod<std::uint16_t>(is);
    d.deltaWidth = readPod<std::int32_t>(is);
    d.originalCount = readPod<std::uint64_t>(is);
    d.hasZeroCrossing = readPod<std::uint8_t>(is) != 0;
    d.deltas = readVector<std::int32_t>(is);
    d.checkpointStride = readPod<std::uint64_t>(is);
    d.checkpoints = readVector<std::uint16_t>(is);
    return d;
}

void
writeChannelBody(std::ostream &os, const CompressedChannel &ch)
{
    writePod<std::uint64_t>(os, ch.numSamples);
    writePod<std::uint64_t>(os, ch.windowSize);
    writePod<std::uint64_t>(os, ch.windows.size());
    for (const auto &w : ch.windows) {
        writeVector(os, w.fcoeffs);
        writeVector(os, w.icoeffs);
        writePod<std::uint32_t>(os, w.zeros);
    }
    writeDelta(os, ch.delta);
}

void
writeChannel(std::ostream &os, const CompressedChannel &ch)
{
    writeChannelBody(os, ch);
    // The adaptive segment list. Ramp sub-channels are plain by
    // construction (one level of nesting only).
    writePod<std::uint64_t>(os, ch.segments.size());
    for (const auto &seg : ch.segments) {
        writePod<std::uint8_t>(os, seg.isFlat ? 1 : 0);
        writePod<double>(os, seg.value);
        writePod<std::uint64_t>(os, seg.count);
        COMPAQT_REQUIRE(seg.windows.segments.empty(),
                        "adaptive ramp sub-channels must be plain");
        writeChannelBody(os, seg.windows);
    }
}

CompressedChannel
readChannelBody(std::istream &is)
{
    CompressedChannel ch;
    ch.numSamples = readPod<std::uint64_t>(is);
    ch.windowSize = readPod<std::uint64_t>(is);
    // Records grow the containers one at a time, so a count the
    // stream cannot back dies "truncated" at its end.
    const auto count = readPod<std::uint64_t>(is);
    for (std::uint64_t n = 0; n < count; ++n) {
        CompressedWindow &w = ch.windows.emplace_back();
        w.fcoeffs = readVector<double>(is);
        w.icoeffs = readVector<std::int32_t>(is);
        w.zeros = readPod<std::uint32_t>(is);
    }
    ch.delta = readDelta(is);
    return ch;
}

CompressedChannel
readChannel(std::istream &is)
{
    CompressedChannel ch = readChannelBody(is);
    const auto nsegs = readPod<std::uint64_t>(is);
    for (std::uint64_t n = 0; n < nsegs; ++n) {
        AdaptiveSegment &seg = ch.segments.emplace_back();
        seg.isFlat = readPod<std::uint8_t>(is) != 0;
        seg.value = readPod<double>(is);
        seg.count = readPod<std::uint64_t>(is);
        seg.windows = readChannelBody(is);
    }
    // Validate the segment structure the decode planes rely on — a
    // corrupt or hostile stream must die here, not as an out-of-
    // bounds write during playback: segments decode to exactly
    // numSamples, and every boundary but the last is window-aligned.
    if (!ch.segments.empty()) {
        COMPAQT_REQUIRE(ch.windowSize > 0 && ch.windows.empty(),
                        "adaptive channel record with no window "
                        "grid (corrupt library stream)");
        std::size_t pos = 0;
        for (const auto &seg : ch.segments) {
            COMPAQT_REQUIRE(pos % ch.windowSize == 0,
                            "adaptive segment boundary is not "
                            "window-aligned (corrupt library stream)");
            const std::size_t n =
                seg.isFlat ? seg.count : seg.windows.numSamples;
            COMPAQT_REQUIRE(n > 0 && n <= ch.numSamples - pos,
                            "adaptive segments overrun numSamples "
                            "(corrupt library stream)");
            pos += n;
        }
        COMPAQT_REQUIRE(pos == ch.numSamples,
                        "adaptive segments decode to fewer samples "
                        "than numSamples (corrupt library stream)");
    }
    return ch;
}

} // namespace

bool
CompressedLibrary::contains(const waveform::GateId &id) const
{
    return entries_.contains(id);
}

const CompressedEntry *
CompressedLibrary::find(const waveform::GateId &id) const
{
    const auto it = entries_.find(id);
    return it == entries_.end() ? nullptr : &it->second;
}

const CompressedEntry &
CompressedLibrary::entry(const waveform::GateId &id) const
{
    auto it = entries_.find(id);
    COMPAQT_REQUIRE(it != entries_.end(),
                    "gate not in compressed library");
    return it->second;
}

dsp::CompressionStats
CompressedLibrary::totalStats() const
{
    dsp::CompressionStats s;
    for (const auto &[id, e] : entries_)
        s += e.cw.stats();
    return s;
}

std::size_t
CompressedLibrary::worstCaseWindowWords() const
{
    std::size_t worst = 0;
    for (const auto &[id, e] : entries_)
        worst = std::max(worst, e.cw.worstCaseWindowWords());
    return worst;
}

std::vector<double>
CompressedLibrary::ratios() const
{
    std::vector<double> out;
    out.reserve(entries_.size());
    for (const auto &[id, e] : entries_)
        out.push_back(e.ratio());
    return out;
}

void
CompressedLibrary::insert(const waveform::GateId &id, CompressedEntry e)
{
    entries_[id] = std::move(e);
}

void
CompressedLibrary::save(std::ostream &os) const
{
    writePod(os, kMagic);
    writePod(os, kVersion);
    writePod<std::uint64_t>(os, version_);
    writePod<std::uint64_t>(os, entries_.size());
    for (const auto &[id, e] : entries_) {
        writePod<std::uint8_t>(os, static_cast<std::uint8_t>(id.type));
        writePod<std::int32_t>(os, id.q0);
        writePod<std::int32_t>(os, id.q1);
        writePod<double>(os, e.threshold);
        writePod<double>(os, e.mse);
        writePod<std::uint8_t>(os, e.converged ? 1 : 0);
        writeString(os, e.cw.codec);
        writePod<std::uint64_t>(os, e.cw.windowSize);
        writeChannel(os, e.cw.i);
        writeChannel(os, e.cw.q);
    }
}

CompressedLibrary
CompressedLibrary::load(std::istream &is)
{
    COMPAQT_REQUIRE(readPod<std::uint32_t>(is) == kMagic,
                    "bad compressed library magic "
                    "(not a COMPAQT library stream)");
    COMPAQT_REQUIRE(readPod<std::uint32_t>(is) == kVersion,
                    "unsupported compressed library version "
                    "(this build reads format v5 only)");
    CompressedLibrary out;
    out.version_ = readPod<std::uint64_t>(is);
    const auto count = readPod<std::uint64_t>(is);
    for (std::uint64_t n = 0; n < count; ++n) {
        waveform::GateId id;
        id.type =
            static_cast<waveform::GateType>(readPod<std::uint8_t>(is));
        id.q0 = readPod<std::int32_t>(is);
        id.q1 = readPod<std::int32_t>(is);
        CompressedEntry e;
        e.threshold = readPod<double>(is);
        e.mse = readPod<double>(is);
        e.converged = readPod<std::uint8_t>(is) != 0;
        e.cw.codec = readString(is);
        COMPAQT_REQUIRE(CodecRegistry::instance().contains(e.cw.codec),
                        "compressed library names a codec that is not "
                        "registered in this process");
        e.cw.windowSize = readPod<std::uint64_t>(is);
        e.cw.i = readChannel(is);
        e.cw.q = readChannel(is);
        out.entries_[id] = std::move(e);
    }
    return out;
}

} // namespace compaqt::core
