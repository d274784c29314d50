/**
 * @file
 * bench_report — standalone sim-speed measurement (no google-benchmark
 * dependency). Runs every core model over the camel kernel, times the
 * hottest primitives, and writes the results as BENCH_simspeed.json so
 * sim-speed can be tracked over time alongside the repo.
 *
 * Usage:
 *   bench_report [--quick] [--sampling] [--out PATH]
 *   bench_report --regress [--baseline PATH] [--threshold PCT] [--quick]
 *                [--out PATH]
 *   bench_report --chains [--quick] [--out PATH]
 *
 *   --quick     small windows / single repetition (CI smoke)
 *   --sampling  measure sampled-vs-full accuracy and speedup instead,
 *               writing BENCH_sampling.json: each core model runs the
 *               same region once in full detail and once sampled
 *               (fast-forward + warmup + measured window per period),
 *               reporting the CPI error and wall-clock speedup
 *   --out       output path (default: BENCH_simspeed.json, or
 *               BENCH_sampling.json with --sampling)
 *   --regress   regression gate: re-measure the timing cores and exit
 *               nonzero if any core's Msimips fell more than the
 *               threshold (default 15%) below the committed
 *               BENCH_simspeed.json. Opt-in in CI (wall-clock
 *               measurements are load-sensitive):
 *               `ctest -C bench-regress`. With --out, the per-core
 *               comparison (baseline/measured/delta Msimips) is also
 *               written as machine-readable JSON for CI dashboards.
 *   --baseline  baseline JSON for --regress (default:
 *               BENCH_simspeed.json next to the current directory)
 *   --threshold allowed Msimips drop in percent for --regress
 *   --chains    static-vs-dynamic chain coverage matrix: cross-validate
 *               the static dependence-chain oracle against the SVR
 *               engine's recorded chain log for every quick-suite
 *               workload under SVR16 and SVR64, printing the coverage
 *               table (and writing it as JSON with --out). Dynamic
 *               columns need an SVR_ARCHCHECK build; in Release the
 *               static columns still print. Exits nonzero on any
 *               cross-validation violation.
 *
 * The committed artifacts are regenerated with the SVR_BENCH_JSON and
 * SVR_BENCH_SAMPLING_JSON targets, e.g.
 * `cmake --build build --target SVR_BENCH_JSON`.
 */

#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/chain_xcheck.hh"
#include "common/error.hh"
#include "common/io.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "core/executor.hh"
#include "mem/cache.hh"
#include "mem/functional_memory.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/hpcdb_kernels.hh"
#include "workloads/suites.hh"
#include "workloads/workload.hh"

using namespace svr;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    const std::chrono::duration<double> d = Clock::now() - t0;
    return d.count();
}

/** The same kernel bench/micro_simspeed.cc measures (never stores). */
WorkloadInstance
benchWorkload()
{
    HpcDbSizes s;
    s.camelIndex = 1 << 18;
    s.camelTable = 1 << 19;
    return makeCamel(s);
}

struct CoreSpeed
{
    std::string label;
    double millis = 0.0;   //!< best-of-reps timing-loop wall time
    double msimips = 0.0;  //!< simulated Minstructions per host second
};

/** Best-of-@p reps simulation of @p config over @p w. */
CoreSpeed
measureCore(SimConfig config, const WorkloadInstance &w, std::uint64_t window,
            unsigned reps)
{
    config.maxInstructions = window;
    CoreSpeed out;
    out.label = config.label;
    for (unsigned r = 0; r < reps; r++) {
        const SimResult res = simulate(config, w);
        if (out.millis == 0.0 || res.hostMillis < out.millis) {
            out.millis = res.hostMillis;
            out.msimips = res.hostMsimips();
        }
    }
    return out;
}

/** ns per call over @p iters invocations of @p fn (best of @p reps). */
template <typename Fn>
double
nsPerCall(unsigned reps, std::uint64_t iters, Fn &&fn)
{
    double best = 0.0;
    for (unsigned r = 0; r < reps; r++) {
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < iters; i++)
            fn(i);
        const double ns = secondsSince(t0) * 1e9 /
                          static_cast<double>(iters);
        if (best == 0.0 || ns < best)
            best = ns;
    }
    return best;
}

/**
 * ns per functionally executed instruction through the threaded-code
 * dispatch loop (Executor::run batches — the path sampled
 * simulation's fast-forward actually rides; the per-DynInst step()
 * entry point adds a fixed call/materialize cost on top and is
 * exercised by every timing-core measurement above).
 */
double
functionalStepNs(const WorkloadInstance &w, unsigned reps,
                 std::uint64_t iters)
{
    Executor exec(*w.program, *w.mem);
    double best = 0.0;
    for (unsigned r = 0; r < reps; r++) {
        const auto t0 = Clock::now();
        std::uint64_t left = iters;
        while (left > 0) {
            if (exec.halted())
                exec.restart();
            left -= exec.run(left);
        }
        const double ns =
            secondsSince(t0) * 1e9 / static_cast<double>(iters);
        if (best == 0.0 || ns < best)
            best = ns;
    }
    return best;
}

double
functionalReadNs(unsigned reps, std::uint64_t iters)
{
    FunctionalMemory mem;
    constexpr std::uint64_t tableBytes = 8 << 20;
    const Addr base = mem.alloc(tableBytes);
    for (Addr off = 0; off < tableBytes; off += 8)
        mem.write(base + off, off, 8);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    volatile std::uint64_t sink = 0;
    return nsPerCall(reps, iters, [&](std::uint64_t) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        sink = mem.read(base + ((x >> 24) & (tableBytes - 1) & ~Addr(7)), 8);
    });
}

double
functionalWriteNs(unsigned reps, std::uint64_t iters)
{
    FunctionalMemory mem;
    constexpr std::uint64_t tableBytes = 8 << 20;
    const Addr base = mem.alloc(tableBytes);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    return nsPerCall(reps, iters, [&](std::uint64_t) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        mem.write(base + ((x >> 24) & (tableBytes - 1) & ~Addr(7)), x, 8);
    });
}

double
cacheLookupNs(unsigned reps, std::uint64_t iters, Addr working_set)
{
    Cache cache(CacheParams{"bench", 64 * 1024, 4, 3, 16});
    for (Addr a = 0; a < 64 * 1024; a += 64)
        cache.insert(a, PrefetchOrigin::None, false);
    Addr a = 0;
    volatile bool sink = false;
    return nsPerCall(reps, iters, [&](std::uint64_t) {
        bool first = false;
        PrefetchOrigin origin;
        sink = cache.lookup(a, true, first, origin);
        a = (a + 64) & (working_set - 1);
    });
}

double
mshrAllocDrainNs(unsigned reps, std::uint64_t iters)
{
    Cache cache(CacheParams{"bench", 64 * 1024, 4, 3, 16});
    Cycle now = 0;
    Addr line = 0;
    return nsPerCall(reps, iters, [&](std::uint64_t) {
        const Cycle start = cache.mshrAvailable(now);
        cache.allocateMshr(line, start, start + 40);
        cache.drainCompletedMisses(now, [](const EvictResult &) {});
        now += 10;
        line = (line + 64) & ((1 << 20) - 1);
    });
}

struct SamplingRow
{
    std::string label;
    double fullCpi = 0.0;
    double sampledCpi = 0.0;
    double errorPct = 0.0;   //!< |sampled - full| / full, in percent
    double speedup = 0.0;    //!< full wall time / sampled wall time
    double ci95 = 0.0;       //!< 1.96 x stderr of the sampled CPI
    std::uint64_t windows = 0;
};

/**
 * One full-detail run and one sampled run of @p config over the same
 * @p region of @p w, compared on CPI and wall clock.
 */
SamplingRow
measureSampling(SimConfig config, const WorkloadInstance &w,
                std::uint64_t region, const SamplingParams &sp)
{
    config.maxInstructions = region;
    SamplingRow row;
    row.label = config.label;

    config.sampling = {};
    const SimResult full = simulate(config, w);
    row.fullCpi = full.cpi();

    config.sampling = sp;
    const SimResult sampled = simulate(config, w);
    row.sampledCpi = sampled.cpi();
    row.errorPct = row.fullCpi > 0.0
                       ? 100.0 * std::abs(row.sampledCpi - row.fullCpi) /
                             row.fullCpi
                       : 0.0;
    row.speedup = sampled.hostMillis > 0.0
                      ? full.hostMillis / sampled.hostMillis
                      : 0.0;
    row.ci95 = 1.96 * sampled.cpiStderr;
    row.windows = sampled.sampleWindows;
    return row;
}

/** printf-append onto a string (the JSON is built then written atomically). */
void
appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    out += buf;
}

/**
 * --sampling mode: sampled-vs-full comparison into BENCH_sampling.json.
 * Paper-scale parameters by default (a 20M-instruction region sampled
 * at 2M periods), scaled down 100x under --quick for CI smoke.
 */
int
runSamplingBench(bool quick, const std::string &out_path)
{
    const std::uint64_t region = quick ? 200000 : 20000000;
    SamplingParams sp;
    sp.sampleEvery = quick ? 20000 : 2000000;
    sp.sampleWindow = quick ? 2000 : 20000;
    sp.warmup = quick ? 1000 : 10000;

    // Paper-scale camel (default sizes): the small benchWorkload()
    // variant leaves too much of its footprint cache-resident, which
    // amplifies the cold-cache bias of each sample window far beyond
    // what the paper-scale regions the sampler targets ever see.
    const WorkloadInstance w = makeCamel();
    const std::vector<SimConfig> configs = {
        presets::inorder(), presets::impCore(), presets::outOfOrder(),
        presets::svrCore(16), presets::svrCore(64)};

    std::vector<SamplingRow> rows;
    for (const auto &config : configs) {
        rows.push_back(measureSampling(config, w, region, sp));
        const SamplingRow &r = rows.back();
        std::fprintf(stderr,
                     "  %-8s full CPI %.4f  sampled %.4f +/- %.4f  "
                     "err %.2f%%  speedup %.1fx  (%llu windows)\n",
                     r.label.c_str(), r.fullCpi, r.sampledCpi, r.ci95,
                     r.errorPct, r.speedup,
                     static_cast<unsigned long long>(r.windows));
    }

    std::string json;
    appendf(json, "{\n");
    appendf(json, "  \"schema\": \"svrsim-bench-sampling-v1\",\n");
    appendf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
    appendf(json, "  \"workload\": \"camel\",\n");
    appendf(json, "  \"region_instructions\": %llu,\n",
            static_cast<unsigned long long>(region));
    appendf(json, "  \"sample_every\": %llu,\n",
            static_cast<unsigned long long>(sp.sampleEvery));
    appendf(json, "  \"sample_window\": %llu,\n",
            static_cast<unsigned long long>(sp.sampleWindow));
    appendf(json, "  \"warmup\": %llu,\n",
            static_cast<unsigned long long>(sp.warmup));
    appendf(json, "  \"configs\": [\n");
    for (std::size_t i = 0; i < rows.size(); i++) {
        const SamplingRow &r = rows[i];
        appendf(json,
                "    {\"label\": \"%s\", \"full_cpi\": %.6f, "
                "\"sampled_cpi\": %.6f, \"cpi_ci95\": %.6f, "
                "\"cpi_error_pct\": %.3f, \"speedup\": %.2f, "
                "\"sample_windows\": %llu}%s\n",
                r.label.c_str(), r.fullCpi, r.sampledCpi, r.ci95,
                r.errorPct, r.speedup,
                static_cast<unsigned long long>(r.windows),
                i + 1 < rows.size() ? "," : "");
    }
    appendf(json, "  ]\n");
    appendf(json, "}\n");

    writeFileAtomic(out_path, json, FaultPlan::fromEnv());
    std::fprintf(stderr, "bench_report: wrote %s\n", out_path.c_str());
    return 0;
}

/**
 * Pull the per-core {label, msimips} rows out of a bench JSON. This is
 * a scanner over the exact format this tool writes (one core object
 * per line), not a general JSON parser — good enough to read back our
 * own committed artifact.
 */
std::vector<CoreSpeed>
parseBaselineCores(const std::string &text)
{
    std::vector<CoreSpeed> rows;
    std::size_t pos = 0;
    while ((pos = text.find("{\"label\": \"", pos)) != std::string::npos) {
        pos += std::strlen("{\"label\": \"");
        const std::size_t end = text.find('"', pos);
        if (end == std::string::npos)
            break;
        CoreSpeed row;
        row.label = text.substr(pos, end - pos);
        const std::size_t mpos = text.find("\"msimips\": ", end);
        if (mpos == std::string::npos)
            break;
        row.msimips =
            std::strtod(text.c_str() + mpos + std::strlen("\"msimips\": "),
                        nullptr);
        rows.push_back(std::move(row));
        pos = end;
    }
    return rows;
}

/** One core's baseline-vs-fresh comparison (--regress). */
struct RegressRow
{
    std::string label;
    double baseline = 0.0; //!< committed Msimips (0 = no baseline row)
    double measured = 0.0;
    double deltaPct = 0.0; //!< (measured - baseline) / baseline * 100
    double floor = 0.0;    //!< baseline scaled by the threshold
    bool regressed = false;
};

/**
 * --regress mode: re-measure the timing cores and compare against the
 * committed baseline. Exit 0 if every core is within @p threshold_pct
 * of its baseline Msimips, 1 on a regression, 2 on a bad baseline.
 * With @p out_path, the comparison is also written as machine-readable
 * JSON (per-core baseline/measured/delta) for CI dashboards.
 */
int
runRegressCheck(bool quick, const std::string &baseline_path,
                double threshold_pct, const std::string &out_path)
{
    const std::string text = readFile(baseline_path);
    const std::vector<CoreSpeed> baseline = parseBaselineCores(text);
    if (baseline.empty()) {
        std::fprintf(stderr, "bench_report: no core rows in %s\n",
                     baseline_path.c_str());
        return 2;
    }

    // Measure with the same window the baseline was measured with
    // (Msimips depends on the window: shorter windows amortize less
    // warmup), and more repetitions than a normal measurement —
    // best-of-N converges toward unloaded-machine speed, which is
    // what the committed baseline records.
    std::uint64_t window = 100000;
    if (const std::size_t wpos = text.find("\"window_instructions\": ");
        wpos != std::string::npos) {
        window = std::strtoull(
            text.c_str() + wpos + std::strlen("\"window_instructions\": "),
            nullptr, 10);
    }
    const unsigned reps = quick ? 2 : 5;
    const WorkloadInstance w = benchWorkload();
    const std::vector<SimConfig> configs = {
        presets::inorder(), presets::impCore(), presets::outOfOrder(),
        presets::svrCore(16), presets::svrCore(64)};

    std::vector<RegressRow> rows;
    bool failed = false;
    for (const auto &config : configs) {
        const CoreSpeed fresh = measureCore(config, w, window, reps);
        const CoreSpeed *base = nullptr;
        for (const CoreSpeed &b : baseline) {
            if (b.label == fresh.label)
                base = &b;
        }
        RegressRow row;
        row.label = fresh.label;
        row.measured = fresh.msimips;
        if (!base) {
            // A core model missing from the committed file is stale
            // tooling, not a perf regression; flag but keep comparing.
            std::fprintf(stderr, "  %-8s %8.2f Msimips  (no baseline)\n",
                         fresh.label.c_str(), fresh.msimips);
            rows.push_back(std::move(row));
            continue;
        }
        row.baseline = base->msimips;
        row.floor = base->msimips * (1.0 - threshold_pct / 100.0);
        row.deltaPct = base->msimips > 0.0
                           ? 100.0 * (fresh.msimips - base->msimips) /
                                 base->msimips
                           : 0.0;
        row.regressed = fresh.msimips < row.floor;
        failed = failed || row.regressed;
        std::fprintf(stderr,
                     "  %-8s %8.2f Msimips  baseline %8.2f  "
                     "floor %8.2f  %s\n",
                     row.label.c_str(), row.measured, row.baseline,
                     row.floor, row.regressed ? "REGRESSED" : "ok");
        rows.push_back(std::move(row));
    }
    std::fprintf(stderr, "bench_report: regression check %s "
                 "(threshold %.0f%%, baseline %s)\n",
                 failed ? "FAILED" : "passed", threshold_pct,
                 baseline_path.c_str());

    if (!out_path.empty()) {
        std::string json;
        appendf(json, "{\n");
        appendf(json, "  \"schema\": \"svrsim-bench-regress-v1\",\n");
        appendf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
        appendf(json, "  \"threshold_pct\": %.1f,\n", threshold_pct);
        appendf(json, "  \"window_instructions\": %llu,\n",
                static_cast<unsigned long long>(window));
        appendf(json, "  \"status\": \"%s\",\n",
                failed ? "regressed" : "ok");
        appendf(json, "  \"cores\": [\n");
        for (std::size_t i = 0; i < rows.size(); i++) {
            const RegressRow &r = rows[i];
            appendf(json,
                    "    {\"label\": \"%s\", \"baseline_msimips\": %.3f, "
                    "\"measured_msimips\": %.3f, \"delta_pct\": %.2f, "
                    "\"floor_msimips\": %.3f, \"status\": \"%s\"}%s\n",
                    r.label.c_str(), r.baseline, r.measured, r.deltaPct,
                    r.floor,
                    r.baseline == 0.0 ? "no-baseline"
                    : r.regressed     ? "regressed"
                                      : "ok",
                    i + 1 < rows.size() ? "," : "");
        }
        appendf(json, "  ]\n");
        appendf(json, "}\n");
        writeFileAtomic(out_path, json, FaultPlan::fromEnv());
        std::fprintf(stderr, "bench_report: wrote %s\n",
                     out_path.c_str());
    }
    return failed ? 1 : 0;
}

/**
 * --chains: the static-vs-dynamic chain coverage matrix. Every
 * quick-suite workload is analyzed statically and (in SVR_ARCHCHECK
 * builds) replayed under SVR16 and SVR64 with the engine's chain log
 * enabled; the table reports how many dynamic chain roots the static
 * oracle predicted as stride-rooted and how many predicted chains
 * actually fired. This is the table quoted in README/ARCHITECTURE.
 */
int
runChainsCoverage(bool quick, const std::string &out_path)
{
    const std::uint64_t window = quick ? 20000 : 100000;
    const bool dynamic = chainRecordingEnabled();

    if (!dynamic)
        std::fprintf(stderr,
                     "bench_report: chain recording compiled out "
                     "(Release); dynamic columns are static-only — "
                     "use the fastsim-check preset for the full "
                     "matrix\n");

    struct Cell
    {
        std::string workload;
        std::string config;
        std::size_t staticChains;
        std::size_t staticTriggered;
        std::size_t dynRoots;
        std::size_t covered;
        std::size_t irregular;
        double coverage;
        double precision;
        std::size_t violations;
    };
    std::vector<Cell> cells;
    bool failed = false;

    std::printf("%-10s %-6s %7s %8s %8s %9s %9s %9s\n", "workload",
                "config", "chains", "dynroots", "covered", "irreg",
                "coverage", "precision");
    for (unsigned n : {16u, 64u}) {
        SimConfig config = presets::svrCore(n);
        config.maxInstructions = window;
        for (const WorkloadSpec &spec : quickSuite()) {
            Cell c{};
            c.workload = spec.name;
            c.config = config.label;
            if (dynamic) {
                const ChainCrossCheck res =
                    crossValidateChains(config, spec);
                c.staticChains = res.staticChains;
                c.staticTriggered = res.staticChainsTriggered;
                c.dynRoots = res.dynRoots;
                c.covered = res.coveredStrideRooted;
                c.irregular = res.irregularRoots;
                c.coverage = res.coverage();
                c.precision = res.precision();
                c.violations = res.violations.size();
                for (const std::string &v : res.violations)
                    std::fprintf(stderr, "  violation: %s/%s: %s\n",
                                 spec.name.c_str(),
                                 config.label.c_str(), v.c_str());
                failed = failed || !res.violations.empty();
            } else {
                const WorkloadInstance inst = spec.make();
                const ChainReport report =
                    analyzeChains(*inst.program);
                c.staticChains = report.chains.size();
                c.coverage = 1.0;
                c.precision = 0.0;
            }
            std::printf("%-10s %-6s %7zu %8zu %8zu %9zu %8.0f%% "
                        "%8.0f%%\n",
                        c.workload.c_str(), c.config.c_str(),
                        c.staticChains, c.dynRoots, c.covered,
                        c.irregular, c.coverage * 100.0,
                        c.precision * 100.0);
            cells.push_back(c);
        }
    }

    if (!out_path.empty()) {
        std::string json;
        appendf(json, "{\n");
        appendf(json, "  \"schema\": \"svrsim-bench-chains-v1\",\n");
        appendf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
        appendf(json, "  \"dynamic\": %s,\n", dynamic ? "true" : "false");
        appendf(json, "  \"window_instructions\": %llu,\n",
                static_cast<unsigned long long>(window));
        appendf(json, "  \"cells\": [\n");
        for (std::size_t i = 0; i < cells.size(); i++) {
            const Cell &c = cells[i];
            appendf(json,
                    "    {\"workload\": \"%s\", \"config\": \"%s\", "
                    "\"static_chains\": %zu, "
                    "\"static_triggered\": %zu, \"dyn_roots\": %zu, "
                    "\"covered_stride_rooted\": %zu, "
                    "\"irregular_roots\": %zu, \"coverage\": %.4f, "
                    "\"precision\": %.4f, \"violations\": %zu}%s\n",
                    c.workload.c_str(), c.config.c_str(),
                    c.staticChains,
                    c.staticTriggered, c.dynRoots, c.covered,
                    c.irregular, c.coverage, c.precision, c.violations,
                    i + 1 < cells.size() ? "," : "");
        }
        appendf(json, "  ]\n");
        appendf(json, "}\n");
        writeFileAtomic(out_path, json, FaultPlan::fromEnv());
        std::fprintf(stderr, "bench_report: wrote %s\n",
                     out_path.c_str());
    }
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
try {
    bool quick = false;
    bool sampling = false;
    bool regress = false;
    bool chains = false;
    std::string out_path;
    std::string baseline_path = "BENCH_simspeed.json";
    double threshold_pct = 15.0;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--sampling") == 0) {
            sampling = true;
        } else if (std::strcmp(argv[i], "--regress") == 0) {
            regress = true;
        } else if (std::strcmp(argv[i], "--chains") == 0) {
            chains = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (std::strcmp(argv[i], "--threshold") == 0 &&
                   i + 1 < argc) {
            threshold_pct = parseNumber<double>("--threshold", argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: bench_report [--quick] [--sampling] "
                         "[--out PATH]\n"
                         "       bench_report --regress [--baseline PATH] "
                         "[--threshold PCT] [--quick]\n"
                         "       bench_report --chains [--quick] "
                         "[--out PATH]\n");
            return 1;
        }
    }
    // --regress/--chains only write JSON when --out is given explicitly.
    if (out_path.empty() && !regress && !chains)
        out_path = sampling ? "BENCH_sampling.json" : "BENCH_simspeed.json";

    setInformEnabled(false);

    if (chains)
        return runChainsCoverage(quick, out_path);
    if (regress)
        return runRegressCheck(quick, baseline_path, threshold_pct,
                               out_path);
    if (sampling)
        return runSamplingBench(quick, out_path);

    const std::uint64_t window = quick ? 20000 : 100000;
    const unsigned reps = quick ? 1 : 3;
    const std::uint64_t prim_iters = quick ? 200000 : 2000000;

    const WorkloadInstance w = benchWorkload();

    std::vector<SimConfig> configs = {presets::inorder(), presets::impCore(),
                                      presets::outOfOrder(),
                                      presets::svrCore(16),
                                      presets::svrCore(64)};
    std::vector<CoreSpeed> cores;
    for (const auto &config : configs) {
        cores.push_back(measureCore(config, w, window, reps));
        std::fprintf(stderr, "  %-8s %8.2f ms  %8.2f Msimips\n",
                     cores.back().label.c_str(), cores.back().millis,
                     cores.back().msimips);
    }

    const double step_ns = functionalStepNs(w, reps, prim_iters);
    const double read_ns = functionalReadNs(reps, prim_iters);
    const double write_ns = functionalWriteNs(reps, prim_iters);
    const double hot_ns = cacheLookupNs(reps, prim_iters, 8 * 64);
    const double cyc_ns = cacheLookupNs(reps, prim_iters, 64 * 1024);
    const double mshr_ns = mshrAllocDrainNs(reps, prim_iters);
    std::fprintf(stderr,
                 "  step %.1f ns, read %.1f ns, write %.1f ns, "
                 "lookup hot/cyclic %.1f/%.1f ns, mshr %.1f ns\n",
                 step_ns, read_ns, write_ns, hot_ns, cyc_ns, mshr_ns);

    std::string json;
    appendf(json, "{\n");
    appendf(json, "  \"schema\": \"svrsim-bench-simspeed-v1\",\n");
    appendf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
    appendf(json, "  \"workload\": \"camel\",\n");
    appendf(json, "  \"window_instructions\": %llu,\n",
            static_cast<unsigned long long>(window));
    appendf(json, "  \"cores\": [\n");
    for (std::size_t i = 0; i < cores.size(); i++) {
        appendf(json,
                "    {\"label\": \"%s\", \"timing_millis\": %.3f, "
                "\"msimips\": %.3f}%s\n",
                cores[i].label.c_str(), cores[i].millis,
                cores[i].msimips, i + 1 < cores.size() ? "," : "");
    }
    appendf(json, "  ],\n");
    appendf(json, "  \"primitives_ns\": {\n");
    appendf(json, "    \"functional_step\": %.3f,\n", step_ns);
    appendf(json, "    \"functional_read64\": %.3f,\n", read_ns);
    appendf(json, "    \"functional_write64\": %.3f,\n", write_ns);
    appendf(json, "    \"cache_lookup_hot\": %.3f,\n", hot_ns);
    appendf(json, "    \"cache_lookup_cyclic\": %.3f,\n", cyc_ns);
    appendf(json, "    \"mshr_alloc_drain\": %.3f\n", mshr_ns);
    appendf(json, "  }\n");
    appendf(json, "}\n");

    // Atomic + checked: a failed disk never leaves a torn or silently
    // truncated benchmark artifact behind.
    writeFileAtomic(out_path, json, FaultPlan::fromEnv());
    std::fprintf(stderr, "bench_report: wrote %s\n", out_path.c_str());
    return 0;
} catch (const SimError &e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
