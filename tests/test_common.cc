/**
 * @file
 * Unit tests for common utilities: RNG determinism and distributions,
 * statistics, histogram, decay fitting, table formatting, and the
 * shared worker pool (common::Executor).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace compaqt
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, StringSeedingIsStable)
{
    Rng a("guadalupe", 3), b("guadalupe", 3), c("toronto", 3);
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    EXPECT_NE(va, c.next());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double lo = 1.0, hi = 0.0, sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        lo = std::min(lo, u);
        hi = std::max(hi, u);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
    EXPECT_LT(lo, 0.01);
    EXPECT_GT(hi, 0.99);
}

TEST(Rng, UniformIntHasNoObviousBias)
{
    Rng rng(11);
    std::vector<int> counts(7, 0);
    const int n = 70000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.uniformInt(7)];
    for (int c : counts)
        EXPECT_NEAR(c, n / 7.0, 5.0 * std::sqrt(n / 7.0));
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng rng(17);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.2) ? 1 : 0;
    EXPECT_NEAR(hits / static_cast<double>(n), 0.2, 0.01);
}

TEST(Stats, SummarizeBasics)
{
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    const Summary s = summarize(xs);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 4.0);
    EXPECT_DOUBLE_EQ(s.mean, 2.5);
    EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
    EXPECT_EQ(s.count, 4u);
}

TEST(Stats, SummarizeEmptyIsZero)
{
    const Summary s = summarize({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, HistogramCounts)
{
    Histogram h;
    h.add(2);
    h.add(2);
    h.add(3);
    EXPECT_EQ(h.count(2), 2u);
    EXPECT_EQ(h.count(3), 1u);
    EXPECT_EQ(h.count(5), 0u);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_EQ(h.maxValue(), 3);
}

TEST(Stats, LineFitRecoversSlope)
{
    std::vector<double> xs, ys;
    for (int i = 0; i < 20; ++i) {
        xs.push_back(i);
        ys.push_back(3.0 * i - 7.0);
    }
    const LineFit f = fitLine(xs, ys);
    EXPECT_NEAR(f.slope, 3.0, 1e-10);
    EXPECT_NEAR(f.intercept, -7.0, 1e-9);
    EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, DecayFitRecoversAlpha)
{
    // y = 0.75 * 0.97^x + 0.25, the shape of a 2Q RB decay.
    std::vector<double> xs, ys;
    for (int m : {1, 5, 10, 20, 35, 50, 75, 100}) {
        xs.push_back(m);
        ys.push_back(0.75 * std::pow(0.97, m) + 0.25);
    }
    const DecayFit f = fitDecay(xs, ys, 0.25);
    EXPECT_NEAR(f.alpha, 0.97, 2e-3);
    EXPECT_NEAR(f.b, 0.25, 0.02);
    EXPECT_NEAR(f.a, 0.75, 0.05);
}

TEST(Stats, DecayFitToleratesNoise)
{
    Rng rng(5);
    std::vector<double> xs, ys;
    for (int m : {1, 5, 10, 20, 35, 50, 75, 100}) {
        xs.push_back(m);
        ys.push_back(0.75 * std::pow(0.96, m) + 0.25 +
                     rng.normal(0.0, 0.004));
    }
    const DecayFit f = fitDecay(xs, ys, 0.25);
    EXPECT_NEAR(f.alpha, 0.96, 0.01);
}

TEST(Table, RendersHeaderAndRows)
{
    Table t("demo");
    t.header({"name", "value"});
    t.row({"alpha", Table::num(1.5, 1)});
    std::ostringstream ss;
    t.print(ss);
    const std::string out = ss.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::sci(0.000123, 1), "1.2e-04");
}

// ------------------------------------------------- JSON escaping

/**
 * Minimal strict JSON string-literal parser for the round-trip
 * checks: rejects raw control characters, unescaped quotes, and
 * unknown escapes — everything RFC 8259 rejects.
 */
std::optional<std::string>
parseJsonString(const std::string &lit)
{
    if (lit.size() < 2 || lit.front() != '"' || lit.back() != '"')
        return std::nullopt;
    std::string out;
    std::size_t i = 1;
    const std::size_t end = lit.size() - 1;
    while (i < end) {
        const char c = lit[i];
        if (static_cast<unsigned char>(c) < 0x20 || c == '"')
            return std::nullopt;
        if (c != '\\') {
            out += c;
            ++i;
            continue;
        }
        if (++i >= end)
            return std::nullopt;
        const char e = lit[i++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (i + 4 > end)
                return std::nullopt;
            unsigned v = 0;
            for (int k = 0; k < 4; ++k) {
                const char h = lit[i + static_cast<std::size_t>(k)];
                v <<= 4;
                if (h >= '0' && h <= '9')
                    v += static_cast<unsigned>(h - '0');
                else if (h >= 'a' && h <= 'f')
                    v += static_cast<unsigned>(10 + h - 'a');
                else if (h >= 'A' && h <= 'F')
                    v += static_cast<unsigned>(10 + h - 'A');
                else
                    return std::nullopt;
            }
            i += 4;
            if (v > 0xff) // the escaper only emits \u00XX
                return std::nullopt;
            out += static_cast<char>(v);
            break;
          }
          default:
            return std::nullopt;
        }
    }
    return out;
}

TEST(Json, EscapeRoundTripsHostileKeys)
{
    // The bug this guards: bench names / metric keys / codec keys
    // containing quotes, backslashes, or newlines used to be written
    // raw into BENCH_*.json, producing unparseable output.
    const std::vector<std::string> keys = {
        "plain",
        "quote\"in\"key",
        "back\\slash",
        "line\nbreak",
        "tab\tand\rret",
        std::string("nul\x01byte"),
        "mixed \"q\" \\ \n \x02 end",
    };
    for (const auto &k : keys) {
        std::ostringstream ss;
        jsonQuote(ss, k);
        const auto parsed = parseJsonString(ss.str());
        ASSERT_TRUE(parsed.has_value()) << ss.str();
        EXPECT_EQ(*parsed, k);
        EXPECT_EQ(jsonEscape(k),
                  ss.str().substr(1, ss.str().size() - 2));
    }
}

TEST(Json, TableJsonEscapesTitleHeaderAndCells)
{
    Table t("nasty \"title\" \\ with\nnewline");
    t.header({"key \"h\"", "v"});
    t.row({"cell\\with\"stuff", "1.5"});
    std::ostringstream ss;
    t.json(ss);
    const std::string out = ss.str();
    // A strict parser must accept it: no raw control characters, and
    // the hostile strings appear escaped.
    for (const char c : out)
        ASSERT_GE(static_cast<unsigned char>(c), 0x20u) << out;
    EXPECT_NE(out.find("nasty \\\"title\\\""), std::string::npos);
    EXPECT_NE(out.find("\\n"), std::string::npos);
    EXPECT_NE(out.find("cell\\\\with\\\"stuff"), std::string::npos);
}

// ------------------------------------------------- percentiles

TEST(Stats, PercentilesNearestRank)
{
    std::vector<double> xs;
    for (int i = 100; i >= 1; --i)
        xs.push_back(i); // unsorted on purpose
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 95.0), 95.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 99.0), 99.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 100.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);

    const Percentiles p = percentiles(xs);
    EXPECT_DOUBLE_EQ(p.p50, 50.0);
    EXPECT_DOUBLE_EQ(p.p95, 95.0);
    EXPECT_DOUBLE_EQ(p.p99, 99.0);
    EXPECT_DOUBLE_EQ(p.min, 1.0);
    EXPECT_DOUBLE_EQ(p.max, 100.0);
    EXPECT_DOUBLE_EQ(p.mean, 50.5);
    EXPECT_EQ(p.count, 100u);
}

TEST(Stats, PercentilesSmallAndEmptySamples)
{
    EXPECT_EQ(percentiles({}).count, 0u);
    EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
    const std::vector<double> one = {7.0};
    const Percentiles p = percentiles(one);
    EXPECT_DOUBLE_EQ(p.p50, 7.0);
    EXPECT_DOUBLE_EQ(p.p99, 7.0);
    EXPECT_DOUBLE_EQ(p.min, 7.0);
    EXPECT_DOUBLE_EQ(p.max, 7.0);
    EXPECT_EQ(p.count, 1u);
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(units::toGBs(2e9), 2.0);
    EXPECT_DOUBLE_EQ(units::toMB(5e6), 5.0);
    EXPECT_DOUBLE_EQ(units::toMW(0.003), 3.0);
}

// ------------------------------------------------- shared worker pool

TEST(Executor, DefaultWorkerCountIsClampedPositive)
{
    // hardware_concurrency() may legally return 0; the default must
    // never produce a zero-worker pool (or a 0 in bench env headers).
    EXPECT_GE(common::Executor::defaultWorkerCount(), 1);
}

TEST(Executor, WorkerIdsAreStableAndInRange)
{
    common::Executor exec(4);
    const auto main_id = std::this_thread::get_id();
    // A barrier of all 4 workers forces each of the 4 jobs onto a
    // distinct worker — the caller included — so every worker id is
    // observed deterministically instead of depending on who wins
    // the claim race (fast pool threads can otherwise drain a batch
    // of trivial jobs before the caller claims one).
    std::barrier sync(4);
    std::vector<std::atomic<int>> claims(4);
    std::atomic<int> caller_worker{-1};
    exec.forEachWorker(4, [&](std::size_t worker, std::size_t) {
        sync.arrive_and_wait();
        ASSERT_LT(worker, 4u);
        claims[worker].fetch_add(1);
        if (std::this_thread::get_id() == main_id)
            caller_worker = static_cast<int>(worker);
    });
    // One job per worker id, and the calling thread is worker 0.
    for (auto &c : claims)
        EXPECT_EQ(c.load(), 1);
    EXPECT_EQ(caller_worker.load(), 0);

    // Larger batch: ids stay in range whoever claims.
    std::vector<int> worker_of_job(64, -1);
    exec.forEachWorker(worker_of_job.size(),
                       [&](std::size_t worker, std::size_t i) {
                           worker_of_job[i] =
                               static_cast<int>(worker);
                       });
    for (const int w : worker_of_job) {
        ASSERT_GE(w, 0);
        ASSERT_LT(w, 4);
    }
}

TEST(Executor, PoolThreadExceptionPropagatesToCaller)
{
    // Regression guard for the promoted contract: an exception
    // thrown by a job running on a *pool thread* (not the caller)
    // must reach the forEach caller, not vanish into the pool. A
    // barrier of all 4 workers guarantees every worker claims
    // exactly one of the 4 jobs, then everyone but the caller
    // throws.
    common::Executor exec(4);
    const auto main_id = std::this_thread::get_id();
    std::barrier sync(4);
    EXPECT_THROW(
        exec.forEach(4,
                     [&](std::size_t) {
                         sync.arrive_and_wait();
                         if (std::this_thread::get_id() != main_id)
                             throw std::runtime_error(
                                 "pool worker failed");
                     }),
        std::runtime_error);
}

TEST(Executor, WorkerExceptionDoesNotAbandonRemainingJobs)
{
    // The batch drains fully even when a job throws: every index
    // still runs exactly once (first error is rethrown afterwards).
    common::Executor exec(3);
    std::vector<std::atomic<int>> runs(97);
    EXPECT_THROW(exec.forEach(runs.size(),
                              [&](std::size_t i) {
                                  runs[i].fetch_add(1);
                                  if (i % 10 == 0)
                                      throw std::runtime_error(
                                          "sporadic");
                              }),
                 std::runtime_error);
    for (auto &r : runs)
        ASSERT_EQ(r.load(), 1);
}

TEST(Executor, ConcurrentCallersRunEveryJobOnce)
{
    // Two threads run forEach on one executor at the same time: both
    // batches sit in the open FIFO together, and every job of each
    // runs exactly once whichever thread claims it.
    common::Executor exec(4, 2);
    std::vector<std::atomic<int>> runs_a(500), runs_b(500);
    std::barrier start(2);
    const auto caller = [&](std::vector<std::atomic<int>> &runs) {
        start.arrive_and_wait();
        for (int round = 0; round < 20; ++round)
            exec.forEach(runs.size(),
                         [&](std::size_t i) { runs[i].fetch_add(1); });
    };
    std::thread a([&] { caller(runs_a); });
    std::thread b([&] { caller(runs_b); });
    a.join();
    b.join();
    for (std::size_t i = 0; i < runs_a.size(); ++i) {
        ASSERT_EQ(runs_a[i].load(), 20) << i;
        ASSERT_EQ(runs_b[i].load(), 20) << i;
    }
}

/** Job 0 waits for job 1 (with a timeout that throws instead of
 *  hanging), so the two jobs of a batch must run on two threads. */
void
runTwoJobsOnTwoThreads(common::Executor &exec,
                       const std::function<void(std::size_t)> &body)
{
    std::promise<void> released;
    auto job1_ran = released.get_future();
    exec.forEach(2, [&](std::size_t i) {
        if (i == 1) {
            released.set_value();
        } else if (job1_ran.wait_for(std::chrono::seconds(30)) !=
                   std::future_status::ready) {
            throw std::runtime_error("no other thread ran job 1");
        }
        body(i);
    });
}

/** A thread lent to an executor through helpUntil() until destroyed. */
struct LentThread
{
    common::Executor &exec;
    std::atomic<bool> done{false};
    std::promise<void> started;
    std::thread::id id;
    std::thread thread;

    explicit LentThread(common::Executor &e) : exec(e)
    {
        thread = std::thread([this] {
            id = std::this_thread::get_id();
            started.set_value();
            exec.helpUntil([this] { return done.load(); });
        });
        started.get_future().wait();
    }

    ~LentThread()
    {
        done = true;
        exec.notify();
        thread.join();
    }
};

TEST(Executor, HelperRunsAnotherCallersJob)
{
    // No pool threads: the only thread besides the caller is one lent
    // through helpUntil(), so it must run one of the two jobs.
    common::Executor exec(2, 2);
    const LentThread helper(exec);
    std::vector<std::thread::id> ran_on(2);
    EXPECT_NO_THROW(runTwoJobsOnTwoThreads(exec, [&](std::size_t i) {
        ran_on[i] = std::this_thread::get_id();
    }));
    EXPECT_NE(ran_on[0], ran_on[1]);
    EXPECT_TRUE(ran_on[0] == helper.id || ran_on[1] == helper.id);
}

TEST(Executor, HelpUntilReturnsAfterNotifyOnceReady)
{
    common::Executor exec(2, 2);
    std::atomic<bool> ready{false};
    std::promise<void> returned;
    auto has_returned = returned.get_future();
    std::thread helper([&] {
        exec.helpUntil([&] { return ready.load(); });
        returned.set_value();
    });
    // A notify while the condition is false leaves the helper lent.
    exec.notify();
    EXPECT_EQ(has_returned.wait_for(std::chrono::milliseconds(50)),
              std::future_status::timeout);
    ready = true;
    exec.notify();
    EXPECT_EQ(has_returned.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    helper.join();
}

TEST(Executor, HelperJobExceptionReachesBatchCaller)
{
    common::Executor exec(2, 2);
    const LentThread helper(exec);
    std::string what;
    try {
        runTwoJobsOnTwoThreads(exec, [&](std::size_t) {
            if (std::this_thread::get_id() == helper.id)
                throw std::runtime_error("helper job failed");
        });
    } catch (const std::runtime_error &e) {
        what = e.what();
    }
    EXPECT_EQ(what, "helper job failed");
}

} // namespace
} // namespace compaqt
