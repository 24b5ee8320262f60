/**
 * @file
 * Shared helpers for the bench binaries: compiled-library building,
 * the standard qft-4-on-guadalupe gate-pulse set used by Figs 7/11,
 * and the machine-readable JSON side-channel (BENCH_<name>.json) that
 * lets the perf trajectory be tracked across PRs.
 */

#ifndef COMPAQT_BENCH_BENCH_UTIL_HH
#define COMPAQT_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/executor.hh"
#include "common/json.hh"
#include "common/table.hh"
#include "core/compressed_library.hh"
#include "core/pipeline.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"

namespace compaqt::bench
{

/** Build a device's compressed library at the paper operating point.
 *  @param codec CodecRegistry key, e.g. "int-dct" */
inline core::CompressedLibrary
buildCompressed(const waveform::PulseLibrary &lib,
                const std::string &codec, std::size_t ws,
                double target_mse = 1e-5)
{
    return core::CompressionPipeline::with(codec)
        .window(ws)
        .mseTarget(target_mse)
        .build()
        .compressLibrary(lib);
}

/**
 * The waveforms qft-4 exercises on guadalupe qubits 0-3: X/SX/Meas
 * per qubit plus the CX pulses of the coupled pairs among {0,1,2,3}
 * (plus (1,4) used by routing).
 */
inline std::vector<waveform::GateId>
qft4GateSet(const waveform::DeviceModel &dev)
{
    using waveform::GateId;
    using waveform::GateType;
    std::vector<GateId> ids;
    for (int q = 0; q < 4; ++q) {
        ids.push_back({GateType::X, q, -1});
        ids.push_back({GateType::SX, q, -1});
        ids.push_back({GateType::Measure, q, -1});
    }
    for (const auto &[a, b] : dev.coupling()) {
        if (a <= 4 && b <= 4) {
            ids.push_back({GateType::CX, a, b});
            ids.push_back({GateType::CX, b, a});
        }
    }
    return ids;
}

/**
 * Collects every table (and any scalar metrics) a bench emits and
 * writes them as BENCH_<name>.json next to the text output when the
 * report goes out of scope. Declare one at the top of main():
 *
 *     bench::JsonReport report("fig07_compression_qft4");
 *     ...
 *     report.print(my_table);        // stdout table + JSON record
 *     report.metric("ratio", 8.0);   // scalar series
 *
 * Every report carries an "env" header with the machine's hardware
 * concurrency, the worker count the bench ran with (setWorkers(),
 * default 1), and the wall-clock start time (captured at
 * construction, as epoch milliseconds and UTC ISO 8601), so BENCH
 * trajectories are comparable across machines — a scaling number
 * measured on a 1-core CI box is meaningless without the worker
 * count, and a regression is attributable only if the report says
 * when it ran. CI strict-parses these header fields.
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string name)
        : name_(std::move(name)),
          startUnixMs_(std::chrono::duration_cast<
                           std::chrono::milliseconds>(
                           std::chrono::system_clock::now()
                               .time_since_epoch())
                           .count())
    {
    }

    /** Record the worker count this bench ran with (JSON header). */
    void setWorkers(int workers) { workers_ = workers; }

    /**
     * Record an extra string-valued env-header entry (e.g. the SIMD
     * backend the decode plane dispatched to). The four standard
     * fields CI strict-parses are always present; extras append
     * after them. Re-recording a key appends again — callers record
     * each key once.
     */
    void
    setEnv(const std::string &key, const std::string &value)
    {
        std::ostringstream ss;
        jsonQuote(ss, key);
        ss << ": ";
        jsonQuote(ss, value);
        envExtras_.push_back(ss.str());
    }

    /** Record an extra integer-valued env-header entry. */
    void
    setEnv(const std::string &key, std::int64_t value)
    {
        std::ostringstream ss;
        jsonQuote(ss, key);
        ss << ": " << value;
        envExtras_.push_back(ss.str());
    }

    /** Record an extra real-valued env-header entry (JSON null when
     *  not finite). */
    template <std::floating_point T>
    void
    setEnv(const std::string &key, T value)
    {
        envExtras_.push_back(scalar(key, value));
    }

    JsonReport(const JsonReport &) = delete;
    JsonReport &operator=(const JsonReport &) = delete;

    ~JsonReport() { write(); }

    /** Record a table in the JSON report. */
    void
    add(const Table &t)
    {
        std::ostringstream ss;
        t.json(ss);
        tables_.push_back(ss.str());
    }

    /** Print a table to stdout and record it. */
    void
    print(const Table &t)
    {
        t.print(std::cout);
        add(t);
    }

    /** Record a named scalar, e.g. an overall compression ratio.
     *  Non-finite values are recorded as JSON null. */
    void
    metric(const std::string &key, double value)
    {
        metrics_.push_back(scalar(key, value));
    }

  private:
    /** `"key": value` with 15 significant digits, or null. */
    static std::string
    scalar(const std::string &key, double value)
    {
        std::ostringstream ss;
        jsonQuote(ss, key);
        ss << ": ";
        if (std::isfinite(value))
            ss << std::setprecision(15) << value;
        else
            ss << "null";
        return ss.str();
    }

    /**
     * Atomic best-effort write (runs from the destructor): emit to
     * BENCH_<name>.json.tmp, verify the stream after flushing, and
     * only then rename over the final path — a full disk or write
     * error leaves the previous report intact instead of a truncated
     * file downstream tooling would read as valid-but-partial.
     */
    void
    write() const
    {
        const std::string path = "BENCH_" + name_ + ".json";
        const std::string tmp = path + ".tmp";
        std::ofstream os(tmp);
        if (!os) {
            std::cerr << "warning: cannot write " << tmp << '\n';
            return;
        }
        os << "{\"bench\": ";
        jsonQuote(os, name_);
        os << ",\n \"env\": {"
           << "\"hardware_concurrency\": "
           // defaultWorkerCount() is hardware_concurrency() clamped
           // to >= 1 — the standard permits a raw 0, which would
           // poison every scaling trajectory reading this header.
           << common::Executor::defaultWorkerCount()
           << ", \"workers\": " << workers_
           << ", \"start_unix_ms\": " << startUnixMs_
           << ", \"start_iso8601\": ";
        jsonQuote(os, startIso8601());
        for (const std::string &kv : envExtras_)
            os << ", " << kv;
        os << "},\n \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i)
            os << (i ? ", " : "") << metrics_[i];
        os << "},\n \"tables\": [";
        for (std::size_t i = 0; i < tables_.size(); ++i)
            os << (i ? ",\n  " : "") << tables_[i];
        os << "]}\n";
        os.flush();
        if (!os.good()) {
            std::cerr << "warning: failed writing " << tmp
                      << " (disk full?); keeping any previous "
                      << path << '\n';
            os.close();
            std::remove(tmp.c_str());
            return;
        }
        os.close();
        if (std::rename(tmp.c_str(), path.c_str()) != 0) {
            std::cerr << "warning: cannot rename " << tmp << " to "
                      << path << '\n';
            std::remove(tmp.c_str());
        }
    }

    /** The construction timestamp as UTC ISO 8601 (second
     *  resolution; the millisecond twin carries the precision). */
    std::string
    startIso8601() const
    {
        const auto secs =
            static_cast<std::time_t>(startUnixMs_ / 1000);
        std::tm tm{};
        gmtime_r(&secs, &tm);
        char buf[32];
        std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
        return buf;
    }

    std::string name_;
    int workers_ = 1;
    std::int64_t startUnixMs_ = 0;
    std::vector<std::string> tables_;
    std::vector<std::string> metrics_;
    /** Pre-rendered `"key": value` extras for the env header. */
    std::vector<std::string> envExtras_;
};

} // namespace compaqt::bench

#endif // COMPAQT_BENCH_BENCH_UTIL_HH
