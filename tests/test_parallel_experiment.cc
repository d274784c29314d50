/**
 * @file
 * Correctness layer for the parallel experiment engine:
 *
 *  - ThreadPool unit tests (coverage, ordering, exception
 *    propagation, SVRSIM_JOBS parsing, reuse after failure);
 *  - RNG stream-splitting sanity (replay + decorrelation; the deep
 *    fuzz lives in test_fuzz.cc);
 *  - serial-vs-parallel SimResult equality, field by field, across
 *    the quick suite;
 *  - determinism regression: the JSON report for 1 thread and N
 *    threads must be byte-identical (failures print a field-level
 *    diff);
 *  - golden-stats snapshots for representative full-detail and
 *    sampled cells, pinning IPC, cache misses, DRAM transfers, and
 *    prefetch accuracy so timing-model drift is caught in CI, not in
 *    a regenerated paper figure.
 *
 * Regenerating goldens after an *intentional* timing-model change:
 *
 *     UPDATE_GOLDEN=1 ./build/tests/svrsim_parallel_tests \
 *         --gtest_filter='GoldenStats.*'
 *
 * then paste the printed table over the `goldens[]` array below.
 *
 * This binary carries the ctest label "parallel"; run it under TSan
 * with: cmake -B build-tsan -DSVR_SANITIZE=thread && ctest -L parallel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "test_helpers.hh"
#include "workloads/suites.hh"

namespace svr
{
namespace
{

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversAllIndices)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numWorkers(), 4u);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < n; i++)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, InlineModeRunsInSubmissionOrder)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.numWorkers(), 0u); // inline: no threads spawned
    EXPECT_EQ(pool.concurrency(), 1u);
    std::vector<std::size_t> order;
    pool.parallelFor(64, [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 64u);
    for (std::size_t i = 0; i < order.size(); i++)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, UnevenTasksAllComplete)
{
    // One long task plus many short ones: idle workers must steal the
    // short tasks instead of queueing behind the long one.
    ThreadPool pool(4);
    std::atomic<int> done{0};
    std::atomic<long> sink{0};
    pool.submit([&] {
        long acc = 0;
        for (int spin = 0; spin < 2000000; spin++)
            acc += spin;
        sink.store(acc, std::memory_order_relaxed);
        done++;
    });
    for (int i = 0; i < 100; i++)
        pool.submit([&] { done++; });
    pool.wait();
    EXPECT_EQ(done.load(), 101);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable)
{
    ThreadPool pool(4);
    pool.submit([] { throw std::runtime_error("cell exploded"); });
    for (int i = 0; i < 16; i++)
        pool.submit([] {});
    EXPECT_THROW(pool.wait(), std::runtime_error);

    // The error is consumed; the pool keeps working.
    std::atomic<int> done{0};
    pool.parallelFor(16, [&](std::size_t) { done++; });
    EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, InlineExceptionAlsoSurfacesAtWait)
{
    ThreadPool pool(1);
    pool.submit([] { throw std::runtime_error("inline boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ThreadPool, FirstOfManyErrorsIsRethrownOthersAreCounted)
{
    // Several jobs throw; wait() must deliver exactly one exception
    // (the first captured) and never lose the batch or deadlock.
    ThreadPool pool(1); // inline: deterministic "first"
    for (int i = 0; i < 5; i++) {
        pool.submit(
            [i] { throw std::runtime_error("boom " + std::to_string(i)); });
    }
    try {
        pool.wait();
        FAIL() << "expected the first task error";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 0");
    }
    // Suppressed-error state is consumed with the batch.
    std::atomic<int> done{0};
    pool.parallelFor(8, [&](std::size_t) { done++; });
    EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, ThrowingJobsDoNotStarveLaterBatches)
{
    ThreadPool pool(4);
    for (int round = 0; round < 3; round++) {
        for (int i = 0; i < 32; i++) {
            pool.submit([i] {
                if (i % 7 == 0)
                    throw std::runtime_error("recurring failure");
            });
        }
        EXPECT_THROW(pool.wait(), std::runtime_error);
    }
    std::atomic<int> done{0};
    pool.parallelFor(32, [&](std::size_t) { done++; });
    EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    // Shutdown contract: the destructor completes every task that was
    // submitted, even ones still sitting in the queues when it runs.
    // Two blockers pin both workers so the 200 counter tasks are
    // guaranteed to be queued (not in flight) at destruction time.
    std::atomic<int> done{0};
    std::atomic<bool> gate{false};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 2; i++) {
            pool.submit([&] {
                while (!gate.load(std::memory_order_acquire))
                    std::this_thread::yield();
                done++;
            });
        }
        for (int i = 0; i < 200; i++)
            pool.submit([&] { done++; });
        gate.store(true, std::memory_order_release);
        // No wait(): the destructor must drain the queue itself.
    }
    EXPECT_EQ(done.load(), 202);
}

TEST(ThreadPool, DestructorIsCleanWhenQueuedTasksThrow)
{
    // Errors from tasks that only run during shutdown are captured the
    // same way as in-flight ones; with no wait() to rethrow them the
    // destructor must still complete every task and join quietly.
    std::atomic<int> done{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; i++) {
            pool.submit([&, i] {
                done++;
                if (i % 3 == 0)
                    throw std::runtime_error("shutdown-time failure");
            });
        }
    }
    EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, DefaultJobsHonorsEnv)
{
    ::setenv("SVRSIM_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), 3u);
    ::setenv("SVRSIM_JOBS", "9999", 1); // clamped
    EXPECT_EQ(ThreadPool::defaultJobs(), 256u);
    ::setenv("SVRSIM_JOBS", "banana", 1); // ignored with a warning
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
    ::unsetenv("SVRSIM_JOBS");
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
}

// ---------------------------------------------------------------------
// RNG stream splitting (sanity; fuzz coverage in test_fuzz.cc)
// ---------------------------------------------------------------------

TEST(RngStreams, SameCellReplaysIdentically)
{
    Rng a = Rng::forCell(42, "BFS_UR", "SVR16");
    Rng b = Rng::forCell(42, "BFS_UR", "SVR16");
    for (int i = 0; i < 64; i++)
        ASSERT_EQ(a.next(), b.next());
}

TEST(RngStreams, DistinctCellsDiffer)
{
    Rng a = Rng::forCell(42, "BFS_UR", "SVR16");
    Rng b = Rng::forCell(42, "BFS_UR", "SVR64");
    Rng c = Rng::forCell(42, "HJ8", "SVR16");
    Rng d = Rng::forCell(43, "BFS_UR", "SVR16");
    EXPECT_NE(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
    EXPECT_NE(a.next(), d.next());
}

TEST(RngStreams, SplitDoesNotPerturbParent)
{
    Rng parent(7);
    Rng witness(7);
    (void)parent.split(0);
    (void)parent.split("child");
    for (int i = 0; i < 16; i++)
        ASSERT_EQ(parent.next(), witness.next());
}

// ---------------------------------------------------------------------
// Serial vs parallel equality across the quick suite
// ---------------------------------------------------------------------

constexpr std::uint64_t kWindow = 30000;

std::vector<SimConfig>
quickConfigs()
{
    std::vector<SimConfig> cfgs = {presets::inorder(), presets::impCore(),
                                   presets::outOfOrder(),
                                   presets::svrCore(16)};
    for (auto &c : cfgs)
        c.maxInstructions = kWindow;
    return cfgs;
}

struct QuickMatrices
{
    std::vector<MatrixRow> serial;   //!< jobs = 1 (inline, historical order)
    std::vector<MatrixRow> parallel; //!< jobs = 4
};

const QuickMatrices &
quickMatrices()
{
    static const QuickMatrices qm = [] {
        QuickMatrices m;
        MatrixOptions opts;
        opts.progress = false;
        opts.summary = false;
        opts.jobs = 1;
        m.serial = runMatrix(quickSuite(), quickConfigs(), opts);
        opts.jobs = 4;
        m.parallel = runMatrix(quickSuite(), quickConfigs(), opts);
        return m;
    }();
    return qm;
}

TEST(SerialVsParallel, MatrixShapeMatches)
{
    const auto &qm = quickMatrices();
    ASSERT_EQ(qm.serial.size(), qm.parallel.size());
    for (std::size_t wi = 0; wi < qm.serial.size(); wi++) {
        EXPECT_EQ(qm.serial[wi].workload, qm.parallel[wi].workload);
        ASSERT_EQ(qm.serial[wi].results.size(),
                  qm.parallel[wi].results.size());
        ASSERT_EQ(qm.serial[wi].timings.size(),
                  qm.serial[wi].results.size());
    }
}

TEST(SerialVsParallel, ResultsEqualFieldByField)
{
    const auto &qm = quickMatrices();
    for (std::size_t wi = 0; wi < qm.serial.size(); wi++)
        for (std::size_t ci = 0; ci < qm.serial[wi].results.size(); ci++) {
            // Every stat, compared exactly: determinism is bitwise.
            const SimResult &a = qm.serial[wi].results[ci];
            const SimResult &b = qm.parallel[wi].results[ci];
            EXPECT_EQ(a.workload, b.workload);
            EXPECT_EQ(a.config, b.config);
            test::expectStatsEqual(a, b, test::RealsCompare::Exact,
                                   a.workload + "/" + a.config);
        }
}

TEST(SerialVsParallel, StreamSeedsMatchAndAreDistinct)
{
    const auto &qm = quickMatrices();
    std::vector<std::uint64_t> seeds;
    for (std::size_t wi = 0; wi < qm.serial.size(); wi++) {
        for (std::size_t ci = 0; ci < qm.serial[wi].timings.size(); ci++) {
            EXPECT_EQ(qm.serial[wi].timings[ci].streamSeed,
                      qm.parallel[wi].timings[ci].streamSeed);
            seeds.push_back(qm.serial[wi].timings[ci].streamSeed);
        }
    }
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end())
        << "two cells derived the same RNG stream seed";
}

/** First differing JSON lines, for a field-level failure report. */
std::string
firstJsonDiff(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    std::ostringstream diff;
    int line = 0, shown = 0;
    while (shown < 8) {
        const bool ga = static_cast<bool>(std::getline(sa, la));
        const bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            break;
        line++;
        if (!ga)
            la = "<eof>";
        if (!gb)
            lb = "<eof>";
        if (la != lb) {
            diff << "  line " << line << ":\n    jobs=1: " << la
                 << "\n    jobs=N: " << lb << "\n";
            shown++;
        }
    }
    return diff.str();
}

TEST(SerialVsParallel, JsonReportByteIdentical)
{
    const auto &qm = quickMatrices();
    const std::string serial = toJson(flattenMatrix(qm.serial));
    const std::string parallel = toJson(flattenMatrix(qm.parallel));
    ASSERT_FALSE(serial.empty());
    EXPECT_TRUE(serial == parallel)
        << "JSON reports differ between 1 and 4 jobs; field-level "
           "diff:\n"
        << firstJsonDiff(serial, parallel);
}

TEST(SerialVsParallel, CsvReportByteIdentical)
{
    const auto &qm = quickMatrices();
    std::string a = csvHeader() + "\n", b = a;
    for (const auto &r : flattenMatrix(qm.serial))
        a += csvRow(r) + "\n";
    for (const auto &r : flattenMatrix(qm.parallel))
        b += csvRow(r) + "\n";
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------
// Golden-stats snapshots
// ---------------------------------------------------------------------

struct Golden
{
    const char *workload;
    const char *config; // ino / imp / ooo / svrN, as presets::byName
    std::uint64_t instructions;
    std::uint64_t cycles;
    std::uint64_t l1dMisses;
    std::uint64_t l2Misses;
    std::uint64_t dramTransfers;
    std::uint64_t prefIssuedTotal; // all origins summed
    double ipc;
    double accuracyLlc; // svr accuracy for svrN, imp accuracy for imp
    // Sampled cells (svrsim_sweep --sample-every/--sample-window/
    // --warmup); all zero = a full-detail cell.
    std::uint64_t sampleEvery = 0;
    std::uint64_t sampleWindow = 0;
    std::uint64_t warmup = 0;
};

// Pinned on the CI toolchain at window = 30000 (see file header for
// the UPDATE_GOLDEN regeneration workflow).
const Golden goldens[] = {
    {"BFS_UR", "svr16", 30000ull, 107790ull, 4513ull, 3434ull, 3437ull,
     2985ull, 0.27831895352073477, 1},
    {"HJ8", "imp", 30000ull, 181632ull, 3890ull, 3876ull, 3876ull,
     2836ull, 0.16516913319238902, 1},
    {"Randacc", "ooo", 30000ull, 122859ull, 3378ull, 3366ull, 3372ull,
     378ull, 0.24418235538300004, 1},
    {"BFS_UR", "svr64", 30000ull, 102340ull, 4623ull, 3490ull, 3493ull,
     3109ull, 0.29314051201876101, 1},
    {"Randacc", "ino", 30000ull, 503145ull, 3370ull, 3370ull, 3370ull,
     375ull, 0.059624959007840685, 1, 10000, 2000, 1000},
    {"BFS_UR", "svr16", 30000ull, 114850ull, 4695ull, 3730ull, 3730ull,
     3065ull, 0.26121027427078797, 1, 10000, 2000, 1000},
};

SimResult
runGoldenCell(const Golden &g)
{
    SimConfig c = presets::byName(g.config);
    c.maxInstructions = kWindow;
    c.sampling.sampleEvery = g.sampleEvery;
    c.sampling.sampleWindow = g.sampleWindow;
    c.sampling.warmup = g.warmup;
    MatrixOptions opts;
    opts.progress = false;
    opts.summary = false;
    const auto matrix =
        runMatrix({findWorkload(g.workload)}, {c}, opts);
    return matrix.at(0).results.at(0);
}

double
goldenAccuracy(const Golden &g, const SimResult &r)
{
    return std::string(g.config) == "imp" ? r.impAccuracyLlc
                                          : r.svrAccuracyLlc;
}

TEST(GoldenStats, RepresentativeCellsMatchSnapshot)
{
    if (std::getenv("UPDATE_GOLDEN")) {
        std::printf("// Paste over goldens[] in %s:\n", __FILE__);
        for (const Golden &g : goldens) {
            const SimResult r = runGoldenCell(g);
            std::uint64_t pref = 0;
            for (unsigned i = 0; i < 4; i++)
                pref += r.prefIssued[i];
            std::printf("    {\"%s\", \"%s\", %lluull, %lluull, %lluull, "
                        "%lluull, %lluull, %lluull, %.17g, %.17g",
                        g.workload, g.config,
                        static_cast<unsigned long long>(
                            r.core.instructions),
                        static_cast<unsigned long long>(r.core.cycles),
                        static_cast<unsigned long long>(r.l1dMisses),
                        static_cast<unsigned long long>(r.l2Misses),
                        static_cast<unsigned long long>(r.dramTransfers),
                        static_cast<unsigned long long>(pref), r.ipc(),
                        goldenAccuracy(g, r));
            if (g.sampleEvery != 0) {
                std::printf(", %llu, %llu, %llu",
                            static_cast<unsigned long long>(g.sampleEvery),
                            static_cast<unsigned long long>(g.sampleWindow),
                            static_cast<unsigned long long>(g.warmup));
            }
            std::printf("},\n");
        }
        GTEST_SKIP() << "UPDATE_GOLDEN set: printed fresh goldens "
                        "instead of checking";
    }

    for (const Golden &g : goldens) {
        const SimResult r = runGoldenCell(g);
        const std::string cell =
            std::string(g.workload) + "/" + g.config;
        EXPECT_EQ(r.core.instructions, g.instructions) << cell;
        EXPECT_EQ(r.core.cycles, g.cycles) << cell;
        EXPECT_EQ(r.l1dMisses, g.l1dMisses) << cell;
        EXPECT_EQ(r.l2Misses, g.l2Misses) << cell;
        EXPECT_EQ(r.dramTransfers, g.dramTransfers) << cell;
        std::uint64_t pref = 0;
        for (unsigned i = 0; i < 4; i++)
            pref += r.prefIssued[i];
        EXPECT_EQ(pref, g.prefIssuedTotal) << cell;
        EXPECT_NEAR(r.ipc(), g.ipc, 1e-9) << cell;
        EXPECT_NEAR(goldenAccuracy(g, r), g.accuracyLlc, 1e-9) << cell;
    }
}

} // namespace
} // namespace svr
