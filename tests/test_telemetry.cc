/**
 * @file
 * Tests for the telemetry plane: striped counters merged under
 * concurrency, log-bucketed histogram percentile accuracy against
 * the exact (sorting) common::percentile, trace ring-buffer
 * overwrite semantics, the disabled-cost contract (nothing recorded,
 * nothing dropped), strict-JSON round-trips of writeChromeTrace()
 * and Registry::writeJson(), and the observation-only contract:
 * service batch results are bit-identical with tracing enabled and
 * disabled at any worker count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "circuits/scheduler.hh"
#include "common/stats.hh"
#include "core/pipeline.hh"
#include "runtime/rack.hh"
#include "runtime/service.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"

namespace compaqt::telemetry
{
namespace
{

// ------------------------------------------ strict JSON mini-parser

/**
 * Recursive-descent strict JSON parser (RFC 8259): no trailing
 * commas, no unquoted keys, no comments, no raw control characters
 * in strings, exactly one top-level value. Numbers are parsed but
 * only validated; the tests navigate objects/arrays/strings.
 */
struct JsonValue
{
    using Object = std::map<std::string, JsonValue>;
    using Array = std::vector<JsonValue>;
    std::variant<std::nullptr_t, bool, double, std::string, Array,
                 Object>
        v;

    bool isObject() const { return std::holds_alternative<Object>(v); }
    bool isArray() const { return std::holds_alternative<Array>(v); }
    const Object &object() const { return std::get<Object>(v); }
    const Array &array() const { return std::get<Array>(v); }
    const std::string &str() const
    {
        return std::get<std::string>(v);
    }
    double num() const { return std::get<double>(v); }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    std::optional<JsonValue>
    parse()
    {
        skipWs();
        auto v = parseValue();
        if (!v)
            return std::nullopt;
        skipWs();
        if (pos_ != s_.size()) // trailing garbage
            return std::nullopt;
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::string w(word);
        if (s_.compare(pos_, w.size(), w) != 0)
            return false;
        pos_ += w.size();
        return true;
    }

    std::optional<JsonValue>
    parseValue()
    {
        if (pos_ >= s_.size())
            return std::nullopt;
        switch (s_[pos_]) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': {
            auto str = parseString();
            if (!str)
                return std::nullopt;
            return JsonValue{std::move(*str)};
          }
          case 't':
            return literal("true")
                       ? std::optional<JsonValue>(JsonValue{true})
                       : std::nullopt;
          case 'f':
            return literal("false")
                       ? std::optional<JsonValue>(JsonValue{false})
                       : std::nullopt;
          case 'n':
            return literal("null")
                       ? std::optional<JsonValue>(JsonValue{nullptr})
                       : std::nullopt;
          default: return parseNumber();
        }
    }

    std::optional<JsonValue>
    parseObject()
    {
        if (!consume('{'))
            return std::nullopt;
        JsonValue::Object obj;
        skipWs();
        if (consume('}'))
            return JsonValue{std::move(obj)};
        for (;;) {
            skipWs();
            auto key = parseString();
            if (!key)
                return std::nullopt;
            skipWs();
            if (!consume(':'))
                return std::nullopt;
            skipWs();
            auto val = parseValue();
            if (!val)
                return std::nullopt;
            obj.emplace(std::move(*key), std::move(*val));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                return JsonValue{std::move(obj)};
            return std::nullopt;
        }
    }

    std::optional<JsonValue>
    parseArray()
    {
        if (!consume('['))
            return std::nullopt;
        JsonValue::Array arr;
        skipWs();
        if (consume(']'))
            return JsonValue{std::move(arr)};
        for (;;) {
            skipWs();
            auto val = parseValue();
            if (!val)
                return std::nullopt;
            arr.push_back(std::move(*val));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                return JsonValue{std::move(arr)};
            return std::nullopt;
        }
    }

    std::optional<std::string>
    parseString()
    {
        if (!consume('"'))
            return std::nullopt;
        std::string out;
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (static_cast<unsigned char>(c) < 0x20)
                return std::nullopt; // raw control char
            if (c == '"') {
                ++pos_;
                return out;
            }
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            if (++pos_ >= s_.size())
                return std::nullopt;
            const char e = s_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > s_.size())
                    return std::nullopt;
                for (int k = 0; k < 4; ++k)
                    if (!std::isxdigit(static_cast<unsigned char>(
                            s_[pos_ + static_cast<std::size_t>(k)])))
                        return std::nullopt;
                pos_ += 4;
                out += '?'; // decoded value irrelevant to the tests
                break;
              }
              default: return std::nullopt;
            }
        }
        return std::nullopt; // unterminated
    }

    std::optional<JsonValue>
    parseNumber()
    {
        const std::size_t start = pos_;
        consume('-');
        if (consume('0')) {
            // A leading zero must not be followed by digits.
            if (pos_ < s_.size() &&
                std::isdigit(static_cast<unsigned char>(s_[pos_])))
                return std::nullopt;
        } else {
            if (pos_ >= s_.size() ||
                !std::isdigit(static_cast<unsigned char>(s_[pos_])))
                return std::nullopt;
            while (pos_ < s_.size() &&
                   std::isdigit(static_cast<unsigned char>(s_[pos_])))
                ++pos_;
        }
        if (consume('.')) {
            if (pos_ >= s_.size() ||
                !std::isdigit(static_cast<unsigned char>(s_[pos_])))
                return std::nullopt;
            while (pos_ < s_.size() &&
                   std::isdigit(static_cast<unsigned char>(s_[pos_])))
                ++pos_;
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() &&
                (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            if (pos_ >= s_.size() ||
                !std::isdigit(static_cast<unsigned char>(s_[pos_])))
                return std::nullopt;
            while (pos_ < s_.size() &&
                   std::isdigit(static_cast<unsigned char>(s_[pos_])))
                ++pos_;
        }
        return JsonValue{std::stod(s_.substr(start, pos_ - start))};
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

// -------------------------------------------------------- counters

TEST(Counter, MergesConcurrentAddsExactly)
{
    Counter c;
    constexpr int kThreads = 8;
    constexpr std::uint64_t kAdds = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&c] {
            for (std::uint64_t i = 0; i < kAdds; ++i)
                c.add();
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.value(), kThreads * kAdds);
}

TEST(Counter, WeightedAddsSum)
{
    Counter c;
    c.add(3);
    c.add(0);
    c.add(39);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, LastWriteWins)
{
    Gauge g;
    EXPECT_EQ(g.value(), 0.0);
    g.set(2.5);
    g.set(-1.0);
    EXPECT_EQ(g.value(), -1.0);
}

// ------------------------------------------------------ histograms

TEST(LatencyHistogram, BucketIndexIsMonotonicAndRepresentativeTight)
{
    std::size_t prev = 0;
    for (std::uint64_t ns = 0; ns < 100000; ns += 7) {
        const std::size_t b = LatencyHistogram::bucketFor(ns);
        EXPECT_GE(b, prev);
        prev = b;
        const std::uint64_t rep =
            LatencyHistogram::representativeNs(b);
        // A bucket's representative is within half a sub-bucket
        // width (1/16 of the value) of every value it holds.
        const double rel =
            ns == 0 ? 0.0
                    : std::abs(static_cast<double>(rep) -
                               static_cast<double>(ns)) /
                          static_cast<double>(ns);
        EXPECT_LE(rel, 0.0625) << "ns=" << ns << " bucket=" << b;
    }
}

TEST(LatencyHistogram, PercentilesTrackExactSortWithin7Percent)
{
    LatencyHistogram h;
    std::vector<double> exact;
    std::mt19937_64 rng(7);
    // Log-uniform nanosecond latencies over six decades — the shape
    // a mixed cache-hit / full-decode workload produces.
    std::uniform_real_distribution<double> exp_dist(1.0, 7.0);
    for (int i = 0; i < 20000; ++i) {
        const auto ns = static_cast<std::uint64_t>(
            std::pow(10.0, exp_dist(rng)));
        h.recordNanos(ns);
        exact.push_back(static_cast<double>(ns));
    }
    const HistogramSnapshot snap = h.snapshot();
    ASSERT_EQ(snap.count, exact.size());
    for (const double q : {50.0, 90.0, 95.0, 99.0, 99.9}) {
        const double want = percentile(exact, q);
        const auto got = static_cast<double>(snap.percentileNs(q));
        EXPECT_NEAR(got, want, 0.07 * want) << "q=" << q;
    }
    // min/max are tracked exactly, not bucketed.
    const auto [min_it, max_it] =
        std::minmax_element(exact.begin(), exact.end());
    EXPECT_EQ(static_cast<double>(snap.minNs), *min_it);
    EXPECT_EQ(static_cast<double>(snap.maxNs), *max_it);
}

TEST(LatencyHistogram, PercentilesAreOrderedAndClampedToExtremes)
{
    LatencyHistogram h;
    h.recordNanos(100);
    h.recordNanos(200);
    h.recordNanos(300);
    const Percentiles p = h.snapshot().toPercentiles();
    EXPECT_EQ(p.count, 3u);
    EXPECT_LE(p.min, p.p50);
    EXPECT_LE(p.p50, p.p95);
    EXPECT_LE(p.p95, p.p99);
    EXPECT_LE(p.p99, p.p999);
    EXPECT_LE(p.p999, p.max);
    EXPECT_DOUBLE_EQ(p.min, 100e-9);
    EXPECT_DOUBLE_EQ(p.max, 300e-9);
}

TEST(LatencyHistogram, EmptySnapshotIsAllZero)
{
    LatencyHistogram h;
    const Percentiles p = h.snapshot().toPercentiles();
    EXPECT_EQ(p.count, 0u);
    EXPECT_EQ(p.p50, 0.0);
    EXPECT_EQ(p.min, 0.0);
    EXPECT_EQ(p.max, 0.0);
}

TEST(LatencyHistogram, ConcurrentRecordsAllLand)
{
    LatencyHistogram h;
    constexpr int kThreads = 8;
    constexpr int kRecords = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&h, t] {
            for (int i = 0; i < kRecords; ++i)
                h.recordNanos(
                    static_cast<std::uint64_t>(t * 1000 + i));
        });
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(h.snapshot().count,
              static_cast<std::uint64_t>(kThreads) * kRecords);
}

// -------------------------------------------------------- registry

TEST(Registry, SameNameReturnsSameMetric)
{
    Registry reg;
    Counter &a = reg.counter("reg.test.counter");
    Counter &b = reg.counter("reg.test.counter");
    EXPECT_EQ(&a, &b);
    a.add(5);
    EXPECT_EQ(b.value(), 5u);
}

TEST(Registry, WriteJsonIsStrictJsonWithHistogramFields)
{
    Registry reg;
    reg.counter("jobs \"weird\" name\n").add(3);
    reg.gauge("depth").set(4.5);
    auto &h = reg.histogram("lat");
    h.recordNanos(1000);
    h.recordNanos(2000);

    std::ostringstream ss;
    reg.writeJson(ss);
    auto parsed = JsonParser(ss.str()).parse();
    ASSERT_TRUE(parsed.has_value()) << ss.str();
    ASSERT_TRUE(parsed->isObject());
    const auto &top = parsed->object();
    ASSERT_TRUE(top.count("counters"));
    ASSERT_TRUE(top.count("gauges"));
    ASSERT_TRUE(top.count("histograms"));
    const auto &hists = top.at("histograms").object();
    ASSERT_TRUE(hists.count("lat"));
    const auto &lat = hists.at("lat").object();
    for (const char *field :
         {"count", "mean_ns", "min_ns", "max_ns", "p50_ns", "p95_ns",
          "p99_ns", "p999_ns"})
        EXPECT_TRUE(lat.count(field)) << field;
    EXPECT_EQ(lat.at("count").num(), 2.0);
}

// ----------------------------------------------------------- trace

TEST(Trace, DisabledRecordsNothing)
{
    Trace trace;
    ASSERT_FALSE(trace.enabled());
    trace.instant("cat", "nothing");
    {
        SpanScope span(trace, "cat", "also-nothing");
    }
    EXPECT_EQ(trace.bufferedEvents(), 0u);
    EXPECT_EQ(trace.droppedEvents(), 0u);
}

TEST(Trace, RingOverwritesOldestAndCountsDrops)
{
    Trace trace(TraceConfig{.eventsPerThread = 4});
    trace.setEnabled(true);
    for (std::uint64_t i = 0; i < 10; ++i)
        trace.instant("test", "tick", "i", i);
    EXPECT_EQ(trace.bufferedEvents(), 4u);
    EXPECT_EQ(trace.droppedEvents(), 6u);
    // The survivors are the most recent four, oldest-first.
    const auto events = trace.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t k = 0; k < 4; ++k)
        EXPECT_EQ(events[k].arg0, 6 + k);
    trace.clear();
    EXPECT_EQ(trace.bufferedEvents(), 0u);
    EXPECT_EQ(trace.droppedEvents(), 0u);
}

TEST(Trace, SpanMeasuresDurationAndCarriesArgs)
{
    Trace trace;
    trace.setEnabled(true);
    {
        SpanScope span(trace, "test", "work", "shard", 3);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto events = trace.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, EventKind::Complete);
    EXPECT_STREQ(events[0].name, "work");
    EXPECT_STREQ(events[0].cat, "test");
    EXPECT_EQ(events[0].arg0, 3u);
    EXPECT_GE(events[0].durNs, 1000000u);
}

TEST(Trace, ConcurrentRecordingAndExportIsConsistent)
{
    Trace trace(TraceConfig{.eventsPerThread = 1u << 12});
    trace.setEnabled(true);
    constexpr int kThreads = 4;
    constexpr std::uint64_t kEvents = 2000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&trace] {
            for (std::uint64_t i = 0; i < kEvents; ++i)
                trace.instant("mt", "tick", "i", i);
        });
    // Export concurrently with the writers: must not crash or tear
    // (TSan-checked in CI).
    for (int i = 0; i < 20; ++i)
        (void)trace.snapshot();
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(trace.bufferedEvents() + trace.droppedEvents(),
              kThreads * kEvents);
    // Snapshot is sorted by start time.
    const auto events = trace.snapshot();
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events[i].startNs, events[i - 1].startNs);
}

TEST(Trace, ChromeTraceExportIsStrictJson)
{
    Trace trace;
    trace.setEnabled(true);
    trace.instant("cache", "cache.hit", "window", 7, "channel", 1);
    {
        SpanScope span(trace, "batch", "service.batch", "circuits",
                       2);
    }
    std::ostringstream ss;
    trace.writeChromeTrace(ss);

    auto parsed = JsonParser(ss.str()).parse();
    ASSERT_TRUE(parsed.has_value()) << ss.str();
    ASSERT_TRUE(parsed->isObject());
    const auto &top = parsed->object();
    ASSERT_TRUE(top.count("traceEvents"));
    ASSERT_TRUE(top.count("displayTimeUnit"));
    const auto &events = top.at("traceEvents").array();
    ASSERT_EQ(events.size(), 2u);
    bool saw_instant = false, saw_span = false;
    for (const auto &ev : events) {
        ASSERT_TRUE(ev.isObject());
        const auto &e = ev.object();
        for (const char *field :
             {"name", "cat", "ph", "ts", "pid", "tid"})
            ASSERT_TRUE(e.count(field)) << field;
        const std::string &ph = e.at("ph").str();
        if (ph == "X") {
            saw_span = true;
            EXPECT_TRUE(e.count("dur"));
            EXPECT_EQ(e.at("name").str(), "service.batch");
            EXPECT_EQ(e.at("args").object().at("circuits").num(),
                      2.0);
        } else {
            saw_instant = true;
            EXPECT_EQ(ph, "i");
            EXPECT_EQ(e.at("name").str(), "cache.hit");
            const auto &args = e.at("args").object();
            EXPECT_EQ(args.at("window").num(), 7.0);
            EXPECT_EQ(args.at("channel").num(), 1.0);
        }
    }
    EXPECT_TRUE(saw_instant);
    EXPECT_TRUE(saw_span);
}

TEST(Trace, FileExportWritesParseableFileAtomically)
{
    Trace trace;
    trace.setEnabled(true);
    trace.instant("test", "tick");
    const std::string path = "trace_test_telemetry.json";
    ASSERT_TRUE(trace.writeChromeTrace(path));
    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::ostringstream ss;
    ss << is.rdbuf();
    EXPECT_TRUE(JsonParser(ss.str()).parse().has_value());
    std::remove(path.c_str());
}

// ----------------------------------- observation-only (bit-identity)

/** Bogota workload mirroring the server tests. */
struct RackFixture
{
    waveform::DeviceModel dev = waveform::DeviceModel::ibm("bogota");
    core::CompressedLibrary clib;
    std::vector<circuits::Schedule> batch;

    RackFixture()
    {
        const auto lib = waveform::PulseLibrary::build(dev);
        clib = core::CompressionPipeline::with("int-dct")
                   .window(16)
                   .mseTarget(1e-5)
                   .build()
                   .compressLibrary(lib);
        circuits::Circuit a(5);
        for (int q = 0; q < 5; ++q)
            a.x(q);
        a.measureAll();
        circuits::Circuit b(5);
        for (const auto &[x, y] : dev.coupling())
            b.cx(x, y);
        batch = {circuits::schedule(a, {}),
                 circuits::schedule(b, {}),
                 circuits::schedule(a, {})};
    }

    runtime::RackConfig
    rackConfig() const
    {
        runtime::RackConfig rc;
        rc.numShards = 2;
        rc.controller.compressed = true;
        rc.controller.windowSize = 16;
        rc.controller.memoryWidth = clib.worstCaseWindowWords();
        rc.cacheWindows = 4096;
        return rc;
    }
};

/** Every field of a job rollup that the determinism contract covers
 *  (everything but batch-scoped cache counters and wall clock). */
void
expectIdentical(const runtime::RackStats &a,
                const runtime::RackStats &b)
{
    ASSERT_EQ(a.shards.size(), b.shards.size());
    for (std::size_t s = 0; s < a.shards.size(); ++s) {
        const auto &x = a.shards[s];
        const auto &y = b.shards[s];
        EXPECT_EQ(x.demand.totalSamples, y.demand.totalSamples) << s;
        EXPECT_EQ(x.demand.totalWordsRead, y.demand.totalWordsRead)
            << s;
        EXPECT_EQ(x.demand.peakBanks, y.demand.peakBanks) << s;
        EXPECT_EQ(x.gatesPlayed, y.gatesPlayed) << s;
        EXPECT_EQ(x.windowsDecoded, y.windowsDecoded) << s;
        EXPECT_EQ(x.samplesDecoded, y.samplesDecoded) << s;
        EXPECT_EQ(x.samplesBypassed, y.samplesBypassed) << s;
        EXPECT_EQ(x.prefetchesIssued, y.prefetchesIssued) << s;
    }
    EXPECT_EQ(a.totalGates, b.totalGates);
    EXPECT_EQ(a.totalWindows, b.totalWindows);
    EXPECT_EQ(a.totalSamples, b.totalSamples);
    EXPECT_EQ(a.totalBypassSamples, b.totalBypassSamples);
    EXPECT_EQ(a.missingGates, b.missingGates);
    EXPECT_EQ(a.unownedEvents, b.unownedEvents);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.prefetchesIssued, b.prefetchesIssued);
}

/** RAII guard so a failing assertion cannot leave the global trace
 *  enabled for later tests. */
struct TraceEnableGuard
{
    explicit TraceEnableGuard(bool on)
    {
        Trace::global().setEnabled(on);
    }
    ~TraceEnableGuard()
    {
        Trace::global().setEnabled(false);
        Trace::global().clear();
    }
};

TEST(Telemetry, ExecuteBatchIdenticalWithTracingOnAndOff)
{
    const RackFixture fx;
    for (const int workers : {1, 4}) {
        const runtime::Rack rack(fx.dev, fx.clib, fx.rackConfig());
        runtime::RuntimeService svc(rack, {.workers = workers});
        const auto off = svc.executeBatchCompiledPerJob(fx.batch);

        const runtime::Rack rack2(fx.dev, fx.clib, fx.rackConfig());
        runtime::RuntimeService svc2(rack2, {.workers = workers});
        TraceEnableGuard guard(true);
        const auto on = svc2.executeBatchCompiledPerJob(fx.batch);

        ASSERT_EQ(off.jobs.size(), on.jobs.size());
        expectIdentical(off.total, on.total);
        for (std::size_t j = 0; j < off.jobs.size(); ++j)
            expectIdentical(off.jobs[j], on.jobs[j]);
        EXPECT_EQ(off.total.cache.hits, on.total.cache.hits);
        EXPECT_EQ(off.total.cache.misses, on.total.cache.misses);
        EXPECT_EQ(off.total.cache.prefetchHits,
                  on.total.cache.prefetchHits);
        // Tracing actually recorded something while enabled.
        EXPECT_GT(Trace::global().bufferedEvents() +
                      Trace::global().droppedEvents(),
                  0u);
    }
}

} // namespace
} // namespace compaqt::telemetry
