/**
 * @file
 * bench_report — the simulator's host-speed baseline and gate, plus the
 * sampling-accuracy and chain-coverage reports. Runs every core model
 * over the camel kernel and writes calibrated Msimips as
 * BENCH_simspeed.json, or compares a fresh measurement against it.
 *
 * Usage:
 *   bench_report [--quick] [--sampling] [--out PATH]
 *   bench_report --regress [--baseline PATH] [--threshold PCT] [--quick]
 *                [--out PATH]
 *   bench_report --chains [--quick] [--out PATH]
 *
 *   --quick     small window, one repetition (CI smoke)
 *   --sampling  measure sampled-vs-full accuracy and speedup instead,
 *               writing BENCH_sampling.json: each core model runs the
 *               same region once in full detail and once sampled
 *               (fast-forward + warmup + measured window per period),
 *               reporting the CPI error and wall-clock speedup
 *   --out       output path (default: BENCH_simspeed.json, or
 *               BENCH_sampling.json with --sampling)
 *   --regress   regression gate: re-measure the timing cores and exit
 *               1 if any core's calibrated Msimips fell more than the
 *               threshold (default 15%) below the committed
 *               BENCH_simspeed.json. Run it from a build without
 *               ArchCheck hooks: `cmake --workflow --preset
 *               bench-regress`. With --out, the per-core comparison
 *               (baseline/measured/delta) is also written as JSON.
 *   --baseline  baseline JSON for --regress (default:
 *               BENCH_simspeed.json in the current directory)
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
 * Host speed is calibrated the way perfbench calibrates it: after
 * every timed run a calibration sample (a xorshift loop and a burst of
 * page faults) measures how fast the host is at that moment, and the
 * run's Msimips is scaled to a host whose sample takes 1 ms. The
 * baseline and the gate compare these calibrated figures, each tagged
 * with a host fingerprint, so that a slower or busier host moves both
 * the run and its sample instead of tripping the gate. Builds with
 * ArchCheck hooks compiled in run slower by design; the full
 * measurement and --regress refuse them (exit 2).
 *
 * The committed artifacts are regenerated with the SVR_BENCH_JSON and
 * SVR_BENCH_SAMPLING_JSON targets, e.g.
 * `cmake --build build-release --target SVR_BENCH_JSON`.
 */

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "analysis/chain_xcheck.hh"
#include "common/error.hh"
#include "common/io.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/hpcdb_kernels.hh"
#include "workloads/suites.hh"
#include "workloads/workload.hh"

using namespace svr;

namespace
{

#ifdef SVR_ARCHCHECK_ENABLED
constexpr bool archcheckBuild = true;
#else
constexpr bool archcheckBuild = false;
#endif

constexpr const char *simspeedSchema = "svrsim-bench-simspeed-v2";

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/**
 * Host calibration sample [ms]: the geometric mean of a core timing
 * (300k dependent xorshift steps, in registers) and a memory timing
 * (drop the pages of a 4 MB anonymous region and write one byte per
 * page again: 1024 page faults, each zeroing a page). The same sample
 * perfbench takes; neither timing touches the simulator's data.
 */
double
calibrationSampleMs()
{
    static volatile std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 300000; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    sink = sink ^ x;
    constexpr std::size_t bytes = 4u << 20;
    static char *const region = [] {
        void *m = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (m == MAP_FAILED)
            fatal("calibration: mmap of %zu bytes failed", bytes);
        return static_cast<char *>(m);
    }();
    static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const auto t1 = Clock::now();
    madvise(region, bytes, MADV_DONTNEED);
    for (std::size_t off = 0; off < bytes; off += page)
        static_cast<volatile char *>(region)[off] = 1;
    const auto t2 = Clock::now();
    return std::sqrt(msBetween(t0, t1) * msBetween(t1, t2));
}

/** Sample time [ms] of the host that calibrated figures refer to. */
constexpr double referenceCalibrationMs = 1.0;

/**
 * Factor that turns a raw Msimips reading into a calibrated one: what
 * it would have been on a host whose sample takes
 * referenceCalibrationMs. Host time moves faster than the sample does,
 * hence perfbench's exponent 1.5.
 */
double
calibrationFactor(double sample_ms)
{
    return std::pow(sample_ms / referenceCalibrationMs, 1.5);
}

/** CPU brand string from CPUID, read without touching any file. */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned i = 0; i < 3; i++)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[sizeof regs + 1] = {};
        std::memcpy(brand, regs, sizeof regs);
        std::string s = brand;
        s.erase(0, s.find_first_not_of(' '));
        s.erase(std::remove(s.begin(), s.end(), '"'), s.end());
        return s;
    }
#endif
    return "unknown";
}

/** The host fingerprint as one JSON object. */
std::string
fingerprintJson()
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"cpu\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
                  "\"build_type\": \"%s\", \"archcheck\": %s}",
                  cpuModel().c_str(), std::thread::hardware_concurrency(),
                  BENCH_REPORT_COMPILER, BENCH_REPORT_BUILD_TYPE,
                  archcheckBuild ? "true" : "false");
    return buf;
}

/**
 * Camel at a quarter of its default sizes. It never stores, so one
 * instance serves every run.
 */
WorkloadInstance
benchWorkload()
{
    HpcDbSizes s;
    s.camelIndex = 1 << 18;
    s.camelTable = 1 << 19;
    return makeCamel(s);
}

/** The machines the baseline covers, in measurement order. */
std::vector<SimConfig>
benchMachines()
{
    return {presets::inorder(), presets::impCore(), presets::outOfOrder(),
            presets::svrCore(16), presets::svrCore(64)};
}

/** Full-measurement window and rounds (see measureSpeed()). */
constexpr std::uint64_t speedWindow = 200000;
constexpr unsigned speedReps = 60;

/** Nearest-rank quantile @p q of @p v (non-empty). */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

struct CoreSpeed
{
    std::string label;
    double msimips = 0.0;    //!< 90th-percentile calibrated Msimips
    double rawMsimips = 0.0; //!< median uncalibrated Msimips
};

/** Calibrated timing-loop speed of every machine over one kernel. */
struct SpeedRun
{
    std::uint64_t window = 0;
    unsigned reps = 0;
    std::vector<CoreSpeed> cores;

    /** Median calibration sample over the whole measurement [ms]. */
    double calibrationMs = 0.0;
};

/**
 * @p reps rounds, each simulating @p window instructions of the camel
 * kernel on every machine in turn, with a calibration sample between
 * consecutive runs. A run is calibrated by the geometric mean of the
 * samples on either side of it. Interleaving the machines spreads host
 * drift over all of them alike.
 *
 * Each machine reports the 90th percentile of its calibrated runs
 * (the 6th best of 60). Interference from other processes only ever
 * slows a run down, and the sample tracks a busy host only in part: on
 * a shared 4-core VM, runs in a busy spell read 1.8x slower raw while
 * their samples read 1.2x slower, so calibration left them about 35%
 * low. Such spells come and go over seconds; the 90th percentile of 60
 * rounds (about 8 s) steps over them without resting on one lucky run.
 * Over 22 disjoint 60-round windows of 1400 rounds on that host, every
 * machine's 90th percentile stayed within -3.5%..+4.1% of its median;
 * the upper quartile spread over -8.5%..+2.7%, and the raw median over
 * -37%..+22%.
 */
SpeedRun
measureSpeed(std::uint64_t window, unsigned reps)
{
    const WorkloadInstance w = benchWorkload();
    std::vector<SimConfig> configs = benchMachines();
    for (SimConfig &c : configs)
        c.maxInstructions = window;
    std::vector<std::vector<double>> raw(configs.size());
    std::vector<std::vector<double>> calibrated(configs.size());
    std::vector<double> samples;
    double before = calibrationSampleMs();
    samples.push_back(before);
    for (unsigned r = 0; r < reps; r++) {
        for (std::size_t i = 0; i < configs.size(); i++) {
            const double msimips = simulate(configs[i], w).hostMsimips();
            const double after = calibrationSampleMs();
            raw[i].push_back(msimips);
            calibrated[i].push_back(
                msimips * calibrationFactor(std::sqrt(before * after)));
            samples.push_back(after);
            before = after;
        }
    }
    SpeedRun run;
    run.window = window;
    run.reps = reps;
    run.calibrationMs = quantile(samples, 0.5);
    for (std::size_t i = 0; i < configs.size(); i++) {
        run.cores.push_back({configs[i].label,
                             quantile(calibrated[i], 0.9),
                             quantile(raw[i], 0.5)});
    }
    return run;
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

/** Refuse to time a build whose ArchCheck hooks slow every commit. */
bool
refuseHooksBuild(const char *mode)
{
    if (!archcheckBuild)
        return false;
    std::fprintf(stderr,
                 "bench_report: refusing %s in a build with ArchCheck "
                 "hooks compiled in; configure with "
                 "-DCMAKE_BUILD_TYPE=Release (or -DSVR_ARCHCHECK=OFF), "
                 "e.g. the release preset\n",
                 mode);
    return true;
}

/** Default mode: measure and write BENCH_simspeed.json. */
int
runSpeedBench(bool quick, const std::string &out_path)
{
    if (!quick && refuseHooksBuild("a full measurement"))
        return 2;
    const SpeedRun run = measureSpeed(quick ? 20000 : speedWindow,
                                      quick ? 1 : speedReps);
    for (const CoreSpeed &c : run.cores)
        std::fprintf(stderr,
                     "  %-8s %8.2f Msimips calibrated  (%.2f raw)\n",
                     c.label.c_str(), c.msimips, c.rawMsimips);

    std::string json;
    appendf(json, "{\n");
    appendf(json, "  \"schema\": \"%s\",\n", simspeedSchema);
    appendf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
    appendf(json, "  \"workload\": \"camel\",\n");
    appendf(json, "  \"window_instructions\": %llu,\n",
            static_cast<unsigned long long>(run.window));
    appendf(json, "  \"repetitions\": %u,\n", run.reps);
    appendf(json, "  \"calibration_ms\": %.4f,\n", run.calibrationMs);
    appendf(json, "  \"host\": %s,\n", fingerprintJson().c_str());
    appendf(json, "  \"cores\": [\n");
    for (std::size_t i = 0; i < run.cores.size(); i++) {
        const CoreSpeed &c = run.cores[i];
        appendf(json,
                "    {\"label\": \"%s\", \"msimips\": %.3f, "
                "\"raw_msimips\": %.3f}%s\n",
                c.label.c_str(), c.msimips, c.rawMsimips,
                i + 1 < run.cores.size() ? "," : "");
    }
    appendf(json, "  ]\n");
    appendf(json, "}\n");

    // Atomic + checked: a failed disk never leaves a torn or silently
    // truncated benchmark artifact behind.
    writeFileAtomic(out_path, json, FaultPlan::fromEnv());
    std::fprintf(stderr, "bench_report: wrote %s\n", out_path.c_str());
    return 0;
}

/**
 * The value after @p key in @p text: a number, or the JSON object or
 * string that starts there. A scanner over the exact format this tool
 * writes, not a general JSON parser; "" when the key is absent.
 */
std::string
scanValue(const std::string &text, std::size_t from, const char *key)
{
    const std::string needle = std::string("\"") + key + "\": ";
    std::size_t pos = text.find(needle, from);
    if (pos == std::string::npos)
        return "";
    pos += needle.size();
    std::size_t end;
    if (text[pos] == '{')
        end = text.find('}', pos);
    else if (text[pos] == '"')
        end = text.find('"', pos + 1);
    else
        end = text.find_first_of(",}\n", pos) - 1;
    return end == std::string::npos ? "" : text.substr(pos, end + 1 - pos);
}

/** The per-core {label, msimips} rows of a BENCH_simspeed.json. */
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
        row.msimips = std::strtod(scanValue(text, end, "msimips").c_str(),
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
 * --regress mode: re-measure the timing cores and compare calibrated
 * Msimips against the committed baseline. Exit 0 if every core is
 * within @p threshold_pct of its baseline, 1 on a regression, 2 on a
 * bad baseline or a build with hooks. With @p out_path, the comparison
 * is also written as machine-readable JSON.
 */
int
runRegressCheck(bool quick, const std::string &baseline_path,
                double threshold_pct, const std::string &out_path)
{
    if (refuseHooksBuild("--regress"))
        return 2;
    const std::string text = readFile(baseline_path);
    const std::string schema = scanValue(text, 0, "schema");
    if (schema != std::string("\"") + simspeedSchema + "\"") {
        std::fprintf(stderr,
                     "bench_report: %s has schema %s, want %s "
                     "(regenerate it with the SVR_BENCH_JSON target)\n",
                     baseline_path.c_str(),
                     schema.empty() ? "(none)" : schema.c_str(),
                     simspeedSchema);
        return 2;
    }
    const std::vector<CoreSpeed> baseline = parseBaselineCores(text);
    if (baseline.empty()) {
        std::fprintf(stderr, "bench_report: no core rows in %s\n",
                     baseline_path.c_str());
        return 2;
    }

    // Msimips depends on the window (shorter windows amortize less
    // warmup), so measure with the one the baseline used.
    const std::uint64_t window = std::strtoull(
        scanValue(text, 0, "window_instructions").c_str(), nullptr, 10);
    if (window == 0) {
        std::fprintf(stderr, "bench_report: no window_instructions in %s\n",
                     baseline_path.c_str());
        return 2;
    }
    const SpeedRun run = measureSpeed(window, quick ? 2 : speedReps);
    const std::string base_host = scanValue(text, 0, "host");
    const std::string base_cal = scanValue(text, 0, "calibration_ms");
    const std::string host = fingerprintJson();
    std::fprintf(stderr,
                 "  baseline host %s, calibration %s ms\n"
                 "  this host     %s, calibration %.4f ms\n",
                 base_host.c_str(), base_cal.c_str(), host.c_str(),
                 run.calibrationMs);

    std::vector<RegressRow> rows;
    bool failed = false;
    for (const CoreSpeed &fresh : run.cores) {
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
                     "floor %8.2f  %+6.1f%%  %s\n",
                     row.label.c_str(), row.measured, row.baseline,
                     row.floor, row.deltaPct,
                     row.regressed ? "REGRESSED" : "ok");
        rows.push_back(std::move(row));
    }
    std::fprintf(stderr, "bench_report: regression check %s "
                 "(threshold %.0f%%, calibrated Msimips, baseline %s)\n",
                 failed ? "FAILED" : "passed", threshold_pct,
                 baseline_path.c_str());

    if (!out_path.empty()) {
        std::string json;
        appendf(json, "{\n");
        appendf(json, "  \"schema\": \"svrsim-bench-regress-v2\",\n");
        appendf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
        appendf(json, "  \"threshold_pct\": %.1f,\n", threshold_pct);
        appendf(json, "  \"window_instructions\": %llu,\n",
                static_cast<unsigned long long>(window));
        appendf(json, "  \"baseline_host\": %s,\n",
                base_host.empty() ? "null" : base_host.c_str());
        appendf(json, "  \"baseline_calibration_ms\": %s,\n",
                base_cal.empty() ? "null" : base_cal.c_str());
        appendf(json, "  \"host\": %s,\n", host.c_str());
        appendf(json, "  \"calibration_ms\": %.4f,\n", run.calibrationMs);
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
                         "[--threshold PCT] [--quick] [--out PATH]\n"
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
    return runSpeedBench(quick, out_path);
} catch (const SimError &e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
