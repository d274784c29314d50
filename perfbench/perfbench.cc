/**
 * @file
 * perfbench — the repository benchmark harness.
 *
 * Runs one named workload of (workload x machine) cells through the
 * svrsim library's public entry points, repeating the whole sweep ("a
 * pass") until the time budget is spent, and reports the median
 * per-pass host cost, calibrated against host drift (see
 * calibrationSampleS()), beside the modelled design's headline result.
 * One pass is what one sweep process does:
 *
 *   setup     build the inputs before the first cell
 *   cells     make -> verify -> simulate -> journal, per cell
 *   artifact  JSON + CSV of every cell
 *
 * Workloads (machines5 = InO, IMP, OoO, SVR16, SVR64; modelled caches
 * start empty, as in the sweep tool) are described in README.md.
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --out DIR [--digests FILE] [--write-digests FILE]
 *             [--window N]
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 alternates
 * untraced and traced passes, prints the per-layer metrics and writes
 * the recorded spans to DIR/trace.json (Chrome trace-event format).
 * The last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics. Exit status: 0 when every cell is
 * correct, 1 on a correctness failure, 2 on bad usage, 3 for a build
 * that must not be timed (non-Release, or ArchCheck hooks compiled in).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "analysis/verifier.hh"
#include "common/error.hh"
#include "common/io.hh"
#include "common/logging.hh"
#include "core/executor.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "workloads/gap_kernels.hh"
#include "workloads/graph.hh"
#include "workloads/suites.hh"

using namespace svr;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Digest of one cell: FNV-1a over its journal record (every stat). */
std::string
cellDigest(const SimResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : journalLine(r)) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// ---- Workloads --------------------------------------------------------

struct WorkloadDef
{
    const char *name;
    bool graph;           //!< seed-generated graphs through runMatrix()
    std::uint64_t window; //!< instructions per cell
    unsigned jobs;
};

constexpr WorkloadDef workloadDefs[] = {
    {"miss-bound", false, 1000000, 1},
    {"compute-bound", false, 500000, 1},
    {"graph-sweep", true, 400000, 2},
};

/**
 * A serial set-up lasts 0.03-0.2 s, too short for one timing of it to
 * be steady on a shared host. So a serial pass repeats it until the
 * repetitions have lasted this long (and at least minSetupReps times),
 * and setup_s takes their median.
 */
constexpr double setupTargetS = 1.0;
constexpr unsigned minSetupReps = 3;

/** Metric prefixes of machines5, in presets order. */
const char *const machineKeys[] = {"ino", "imp", "ooo", "svr16", "svr64"};
constexpr std::size_t numMachines = std::size(machineKeys);
constexpr std::size_t inoIdx = 0, impIdx = 1, oooIdx = 2, svr16Idx = 3;

std::vector<SimConfig>
machines5(std::uint64_t window)
{
    std::vector<SimConfig> v = {presets::inorder(), presets::impCore(),
                                presets::outOfOrder(), presets::svrCore(16),
                                presets::svrCore(64)};
    for (auto &c : v)
        c.maxInstructions = window;
    return v;
}

bool
isSvr(const SimConfig &c)
{
    return c.core == CoreType::Svr;
}

/** The fixed-input kernels of a serial workload. */
std::vector<WorkloadSpec>
serialSpecs(const WorkloadDef &def)
{
    if (std::string(def.name) == "compute-bound")
        return specSuite();
    std::vector<WorkloadSpec> v;
    // G500 is left out: its KR18 build (~1 s) would make this a
    // set-up workload rather than a miss-bound one.
    for (const auto &s : hpcdbSuite()) {
        if (s.name != "G500")
            v.push_back(s);
    }
    return v;
}

/** One graph input at suites.cc's shape, built from a seed. */
struct GraphInput
{
    const char *name;
    HostGraph (*build)(std::uint64_t seed);
};

const GraphInput graphInputs[] = {
    {"KR", [](std::uint64_t s) { return makeKronecker(17, 16, s); }},
    {"LJN", [](std::uint64_t s) { return makeScaleFree(120000, 14, 2.2, s); }},
    {"ORK", [](std::uint64_t s) { return makeScaleFree(120000, 20, 2.4, s); }},
    {"TW", [](std::uint64_t s) { return makeScaleFree(160000, 18, 1.9, s); }},
    {"UR", [](std::uint64_t s) { return makeUniformRandom(1u << 17, 16, s); }},
};

using GraphKernel = WorkloadInstance (*)(std::shared_ptr<const HostGraph>,
                                         const std::string &);

struct GraphKernelDef
{
    const char *name;
    GraphKernel make;
};

// Lambdas, because the kernel factories take a trailing default
// argument that a function pointer cannot carry.
const GraphKernelDef graphKernels[] = {
    {"BC", [](std::shared_ptr<const HostGraph> g, const std::string &in) {
         return makeBc(std::move(g), in);
     }},
    {"BFS", [](std::shared_ptr<const HostGraph> g, const std::string &in) {
         return makeBfs(std::move(g), in);
     }},
    {"CC", [](std::shared_ptr<const HostGraph> g, const std::string &in) {
         return makeCc(std::move(g), in);
     }},
    {"PR", [](std::shared_ptr<const HostGraph> g, const std::string &in) {
         return makePageRank(std::move(g), in);
     }},
    {"SSSP", [](std::shared_ptr<const HostGraph> g, const std::string &in) {
         return makeSssp(std::move(g), in);
     }},
};

/** Generator seed of graph input @p i for run seed @p seed. */
std::uint64_t
graphSeed(std::uint64_t seed, std::size_t i)
{
    std::uint64_t state = seed * 0x9e37 + i;
    return splitmix64(state);
}

// ---- Options ----------------------------------------------------------

struct Options
{
    const WorkloadDef *def = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::uint64_t window = 0;
    std::string outDir;
    std::string digests;
    std::string writeDigests;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload miss-bound|compute-bound|"
                 "graph-sweep --seed N --seconds S --trace 0|1 --out DIR\n"
                 "                 [--digests FILE] [--write-digests FILE]"
                 " [--window N]\n",
                 msg.c_str());
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || v[0] == '-')
        usage("bad value for " + flag + ": '" + v + "'");
    return x;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[i + 1];
        if (a == "--workload") {
            for (const auto &d : workloadDefs) {
                if (v == d.name)
                    o.def = &d;
            }
            if (!o.def)
                usage("unknown workload '" + v + "'");
        } else if (a == "--seed") {
            o.seed = parseUint(a, v);
            have_seed = true;
        } else if (a == "--seconds") {
            o.seconds = static_cast<double>(parseUint(a, v));
            have_seconds = true;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
            have_trace = true;
        } else if (a == "--window") {
            o.window = parseUint(a, v);
            if (o.window == 0)
                usage("--window must be positive");
        } else if (a == "--out") {
            o.outDir = v;
        } else if (a == "--digests") {
            o.digests = v;
        } else if (a == "--write-digests") {
            o.writeDigests = v;
        } else {
            usage("unknown option " + a);
        }
    }
    if (!o.def || !have_seed || !have_seconds || !have_trace ||
        o.outDir.empty())
        usage("--workload, --seed, --seconds, --trace and --out are "
              "required");
    if (o.window == 0)
        o.window = o.def->window;
    return o;
}

// ---- Host fingerprint -------------------------------------------------

#ifdef SVR_ARCHCHECK_ENABLED
constexpr bool archcheckBuild = true;
#else
constexpr bool archcheckBuild = false;
#endif

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
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
        return s;
    }
#endif
    return "unknown";
}

/**
 * Host calibration sample [s]: the geometric mean of two timings, one
 * of the core's speed and one of the memory side's.
 *
 *   core    300k dependent xorshift steps, in registers only
 *   memory  drop the pages of a 4 MB anonymous region and write one
 *           byte per page again (1024 page faults, each zeroing a
 *           page)
 *
 * The region stays resident between samples, so it adds a constant
 * 4 MB to the peak RSS, not 4 MB only when a sample meets the peak.
 *
 * On a shared host both drift, by up to 2x over tens of seconds, and
 * the simulator's host time drifts with them. The samples measure that
 * drift when the cells ran, and the host-time metrics are scaled by it
 * (see calibratedScale()). Serial passes take a sample after every
 * cell; graph passes take bursts of samples just before and after
 * their cell phase, while no cell runs. Samples are always outside the
 * timed intervals, and neither timing touches the simulator's data.
 */
double
calibrationSampleS()
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
    return std::sqrt(secondsBetween(t0, t1) * secondsBetween(t1, t2));
}

/** Mean of @p n calibration samples taken back to back [s]. */
double
calibrationBurstS(unsigned n)
{
    double sum = 0.0;
    for (unsigned i = 0; i < n; i++)
        sum += calibrationSampleS();
    return sum / n;
}

/**
 * Calibration samples taken during one pass. Each sample is weighted
 * by the duration of the work it stands for, so that the mean
 * describes the host over the pass's time, not over its cell count.
 */
struct CalibrationLog
{
    double weightedS = 0.0;
    double weights = 0.0;

    void
    add(double sample_s, double work_s)
    {
        weightedS += sample_s * work_s;
        weights += work_s;
    }

    /**
     * Take one sample after @p work_s seconds of work; returns the
     * time the sample took [s].
     */
    double
    sample(double work_s)
    {
        const auto t0 = Clock::now();
        add(calibrationSampleS(), work_s);
        return secondsBetween(t0, Clock::now());
    }

    double
    meanMs() const
    {
        return weights > 0 ? weightedS * 1e3 / weights : 0.0;
    }
};

/** Nominal calibration sample time the host-time metrics refer to. */
constexpr double referenceCalibrationMs = 1.0;

/**
 * The simulator's host time moves more than the sample does. Over 339
 * passes of 60 runs on the development host, log pass time rose 1.8-2.3
 * times as fast as log sample time on the serial workloads, and 1.1
 * times on graph-sweep, whose few bursts see the host less well.
 * Host times are scaled by (reference / sample) to this power.
 */
constexpr double calibrationExponent = 1.5;

/** Calibration factor for host times whose samples averaged @p sample_ms. */
double
calibrationFactor(double sample_ms)
{
    return sample_ms > 0
               ? std::pow(referenceCalibrationMs / sample_ms,
                          calibrationExponent)
               : 1.0;
}

std::string
fingerprintJson(double calib_ms)
{
    char calib[32];
    std::snprintf(calib, sizeof calib, "%.4f", calib_ms);
    std::ostringstream os;
    os << "{\"cpu\": \"" << jsonEscape(cpuModel())
       << "\", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": \"" << PERFBENCH_COMPILER
       << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
       << "\", \"archcheck\": " << (archcheckBuild ? "true" : "false")
       << ", \"calibration_ms\": " << calib << "}";
    return os.str();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- Tracing ----------------------------------------------------------

/** One recorded span; times in microseconds since the run began. */
struct Span
{
    std::string name;
    std::string cell; //!< "workload/config", or the graph input
    unsigned pass = 0;
    unsigned tid = 0;
    double startUs = 0.0;
    double durUs = 0.0;
    std::size_t id = 0;
    std::size_t parent = 0; //!< id of the causing span; 0 = the pass
};

/**
 * In-memory span store. Spans are recorded on traced passes only and
 * written out once, when the run ends.
 */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : t0(origin) {}

    /** Record a span and return its id. Thread-safe. */
    std::size_t
    record(const std::string &name, const std::string &cell, unsigned pass,
           Clock::time_point start, Clock::time_point end,
           std::size_t parent = 0)
    {
        Span s;
        s.name = name;
        s.cell = cell;
        s.pass = pass;
        s.startUs = secondsBetween(t0, start) * 1e6;
        s.durUs = secondsBetween(start, end) * 1e6;
        s.parent = parent;
        std::lock_guard<std::mutex> lock(mtx);
        s.tid = threadIndex();
        s.id = spans.size() + 1;
        spans.push_back(std::move(s));
        return spans.back().id;
    }

    /**
     * Durations [ms] of the spans named @p name on @p pass. Like
     * totalMs(), call it only once no pass is running.
     */
    std::vector<double>
    durationsMs(const std::string &name, unsigned pass) const
    {
        std::vector<double> v;
        for (const auto &s : spans) {
            if (s.pass == pass && s.name == name)
                v.push_back(s.durUs * 1e-3);
        }
        return v;
    }

    double
    totalMs(const std::string &name, unsigned pass) const
    {
        double sum = 0.0;
        for (double d : durationsMs(name, pass))
            sum += d;
        return sum;
    }

    /** Write every span as Chrome trace-event JSON (opens in Perfetto). */
    void
    write(const std::string &path) const
    {
        std::ostringstream os;
        os << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans.size(); i++) {
            const Span &s = spans[i];
            char times[96];
            std::snprintf(times, sizeof times, "\"ts\": %.3f, \"dur\": %.3f",
                          s.startUs, s.durUs);
            os << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", "
               << "\"pid\": 1, \"tid\": " << s.tid << ", " << times
               << ", \"args\": {\"cell\": \"" << jsonEscape(s.cell)
               << "\", \"pass\": " << s.pass << ", \"id\": " << s.id
               << ", \"parent\": " << s.parent << "}}"
               << (i + 1 < spans.size() ? ",\n" : "\n");
        }
        os << "]}\n";
        writeFileAtomic(path, os.str());
    }

  private:
    unsigned
    threadIndex()
    {
        const auto id = std::this_thread::get_id();
        for (std::size_t i = 0; i < threads.size(); i++) {
            if (threads[i] == id)
                return static_cast<unsigned>(i);
        }
        threads.push_back(id);
        return static_cast<unsigned>(threads.size() - 1);
    }

    Clock::time_point t0;
    std::mutex mtx; // guards spans and threads
    std::vector<Span> spans;
    std::vector<std::thread::id> threads;
};

/** Harness-side timestamps of one cell's layer calls. */
struct CellMarks
{
    Clock::time_point makeStart, makeEnd, verifyEnd, simEnd, reportEnd;
};

/** Record a cell span with its make/verify/simulate/report children. */
void
recordCell(Tracer &tr, unsigned pass, const std::string &cell,
           const CellMarks &m)
{
    const std::size_t id =
        tr.record("cell", cell, pass, m.makeStart, m.reportEnd);
    tr.record("make", cell, pass, m.makeStart, m.makeEnd, id);
    tr.record("verify", cell, pass, m.makeEnd, m.verifyEnd, id);
    tr.record("simulate", cell, pass, m.verifyEnd, m.simEnd, id);
    tr.record("report", cell, pass, m.simEnd, m.reportEnd, id);
}

// ---- One pass ---------------------------------------------------------

/** What one pass (one sweep) measured and produced. */
struct PassResult
{
    bool traced = false;
    double setupS = 0.0;
    double cellPhaseS = 0.0;
    double wallS = 0.0;
    double calMs = 0.0;      //!< mean calibration sample of the pass
    double setupCalMs = 0.0; //!< mean sample taken during set-up
    double elapsedS = 0.0;   //!< everything, calibration included
    std::vector<MatrixRow> matrix; //!< workload-major, machines5 order
    /** SVR engine counters per cell index (serial passes, SVR cells). */
    std::vector<SvrEngineStats> svrStats;
};

/** Shared state of one run. */
struct RunContext
{
    const Options &opts;
    std::vector<SimConfig> configs;
    Tracer &tracer;
    SweepKey key;

    std::string out(const std::string &file) const
    {
        return opts.outDir + "/" + file;
    }
};

void
checkVerified(const WorkloadInstance &w)
{
    const LintReport rep = verifyProgram(*w.program);
    if (!rep.clean())
        throw simErrorf(ErrCode::WorkloadBuild, {},
                        "program fails verification: %s",
                        rep.format().c_str());
}

SimResult
failedCell(const std::string &workload, const std::string &config,
           const std::exception &e)
{
    SimResult r;
    r.workload = workload;
    r.config = config;
    r.failed = true;
    r.errCode = "Exception";
    r.errMessage = e.what();
    return r;
}

void
writeArtifacts(const RunContext &ctx, const std::vector<MatrixRow> &matrix)
{
    const std::vector<SimResult> flat = flattenMatrix(matrix);
    std::string csv = csvHeader() + "\n";
    for (const auto &r : flat)
        csv += csvRow(r) + "\n";
    writeFileAtomic(ctx.out("cells.json"), toJson(flat));
    writeFileAtomic(ctx.out("cells.csv"), csv);
}

std::vector<MatrixRow>
emptyMatrix(const std::vector<WorkloadSpec> &specs, std::size_t configs)
{
    std::vector<MatrixRow> m(specs.size());
    for (std::size_t w = 0; w < specs.size(); w++) {
        m[w].workload = specs[w].name;
        m[w].results.resize(configs);
    }
    return m;
}

/** Seeded execution order of the serial cells (Fisher-Yates). */
std::vector<std::size_t>
cellOrder(std::size_t cells, std::uint64_t seed)
{
    std::vector<std::size_t> order(cells);
    for (std::size_t i = 0; i < cells; i++)
        order[i] = i;
    std::uint64_t state = seed;
    for (std::size_t i = cells; i > 1; i--)
        std::swap(order[i - 1], order[splitmix64(state) % i]);
    return order;
}

/**
 * Serial pass. The kernels generate their data inside make(), so
 * set-up builds and verifies every kernel once (a bad input fails
 * before the first cell) and drops it; each cell then makes a fresh
 * instance, as the sweep tool does. Cells run in a seeded order, which
 * the pinned digests must not notice.
 */
PassResult
runSerialPass(const RunContext &ctx, const std::vector<WorkloadSpec> &specs,
              unsigned pass, bool traced)
{
    PassResult out;
    out.traced = traced;
    const std::size_t nc = ctx.configs.size();
    CalibrationLog cal;
    double cell_cal = 0.0;
    const auto t0 = Clock::now();
    std::vector<double> setups;
    double setup_total = 0.0;
    for (unsigned rep = 0; rep < minSetupReps || setup_total < setupTargetS;
         rep++) {
        const auto s0 = Clock::now();
        for (const auto &spec : specs) {
            const auto m0 = Clock::now();
            try {
                checkVerified(spec.make());
            } catch (const std::exception &) {
                // Not fatal here: each cell of the kernel fails the
                // same way and is counted as a failed cell.
            }
            if (traced && rep == 0)
                ctx.tracer.record("make", spec.name, pass, m0, Clock::now());
        }
        setups.push_back(secondsBetween(s0, Clock::now()));
        setup_total += setups.back();
        cal.sample(setups.back());
    }
    const auto t_cells = Clock::now();
    out.setupS = median(setups);
    out.setupCalMs = cal.meanMs();
    // The pass counts one set-up, not the repetitions or the samples.
    const double setup_extra = secondsBetween(t0, t_cells) - out.setupS;

    std::filesystem::remove(ctx.out("cells.journal"));
    SweepJournal journal(ctx.out("cells.journal"), ctx.key);
    out.matrix = emptyMatrix(specs, nc);
    out.svrStats.resize(specs.size() * nc);

    for (std::size_t idx : cellOrder(specs.size() * nc, ctx.opts.seed)) {
        const std::size_t w = idx / nc, c = idx % nc;
        const SimConfig &config = ctx.configs[c];
        CellMarks m;
        SimResult r;
        m.makeStart = m.makeEnd = m.verifyEnd = Clock::now();
        try {
            const WorkloadInstance inst = specs[w].make();
            m.makeEnd = m.verifyEnd = Clock::now();
            checkVerified(inst);
            m.verifyEnd = Clock::now();
            SimHooks hooks;
            hooks.onSvrEngineDone = [&](const SvrEngine &e) {
                out.svrStats[idx] = e.stats();
            };
            r = simulate(config, inst, hooks);
            r.workload = specs[w].name;
        } catch (const std::exception &e) {
            r = failedCell(specs[w].name, config.label, e);
        }
        m.simEnd = Clock::now();
        journal.append(r);
        m.reportEnd = Clock::now();
        out.matrix[w].results[c] = std::move(r);
        if (traced)
            recordCell(ctx.tracer, pass, specs[w].name + "/" + config.label,
                       m);
        cell_cal += cal.sample(secondsBetween(m.makeStart, m.reportEnd));
    }
    const auto t_art = Clock::now();
    out.cellPhaseS = secondsBetween(t_cells, t_art) - cell_cal;
    writeArtifacts(ctx, out.matrix);
    const auto t_end = Clock::now();
    out.wallS = secondsBetween(t0, t_end) - setup_extra - cell_cal;
    out.calMs = cal.meanMs();
    out.elapsedS = secondsBetween(t0, t_end);
    if (traced)
        ctx.tracer.record("artifact", "", pass, t_art, t_end);
    return out;
}

/**
 * Marks of the cell a pool worker is running. runMatrix() calls a
 * cell's make() and then its onCellDone hook on the same worker thread.
 */
thread_local CellMarks workerMarks;

/** The 25 graph workloads over @p graphs; make() also verifies. */
std::vector<WorkloadSpec>
graphSpecs(const std::vector<std::shared_ptr<const HostGraph>> &graphs)
{
    std::vector<WorkloadSpec> v;
    for (const auto &kernel : graphKernels) {
        for (std::size_t i = 0; i < std::size(graphInputs); i++) {
            const std::string input = graphInputs[i].name;
            const std::string name = std::string(kernel.name) + "_" + input;
            const auto g = graphs[i];
            const GraphKernel fn = kernel.make;
            v.push_back({name, "graph", [=] {
                             CellMarks &m = workerMarks;
                             m.makeStart = m.makeEnd = m.verifyEnd =
                                 Clock::now();
                             WorkloadInstance w = fn(g, input);
                             w.name = name;
                             m.makeEnd = m.verifyEnd = Clock::now();
                             checkVerified(w);
                             m.verifyEnd = Clock::now();
                             return w;
                         }});
        }
    }
    return v;
}

/** Calibration samples per burst around a graph pass's cell phase. */
constexpr unsigned graphCalibrationBurst = 16;

/**
 * Graph pass: set-up generates the five inputs from the seed, then
 * runMatrix() runs every cell on the thread pool, journaling each.
 * @p specs receives the pass's workloads (they keep the graphs alive).
 * Calibration samples are taken only while no cell runs: a sample
 * beside a running cell would compete with it for the memory system.
 * So the cell phase is calibrated by a burst of samples just before
 * it and one just after it.
 */
PassResult
runGraphPass(const RunContext &ctx, unsigned pass, bool traced,
             std::vector<WorkloadSpec> &specs)
{
    PassResult out;
    out.traced = traced;
    specs.clear(); // drop the previous pass's graphs first
    CalibrationLog cal;
    double setup_cal = 0.0;
    const auto t0 = Clock::now();
    std::vector<std::shared_ptr<const HostGraph>> graphs;
    for (std::size_t i = 0; i < std::size(graphInputs); i++) {
        const auto g0 = Clock::now();
        graphs.push_back(std::make_shared<HostGraph>(
            graphInputs[i].build(graphSeed(ctx.opts.seed, i))));
        const auto g1 = Clock::now();
        if (traced)
            ctx.tracer.record("graph_gen", graphInputs[i].name, pass, g0, g1);
        setup_cal += cal.sample(secondsBetween(g0, g1));
    }
    specs = graphSpecs(graphs);
    out.setupS = secondsBetween(t0, Clock::now()) - setup_cal;
    out.setupCalMs = cal.meanMs();

    auto c0 = Clock::now();
    const double before = calibrationBurstS(graphCalibrationBurst);
    const auto t_cells = Clock::now();
    double burst_s = secondsBetween(c0, t_cells);

    std::filesystem::remove(ctx.out("cells.journal"));
    SweepJournal journal(ctx.out("cells.journal"), ctx.key);
    MatrixOptions mo;
    mo.jobs = ctx.opts.def->jobs;
    mo.progress = false;
    mo.summary = false;
    mo.keepGoing = true;
    mo.onCellDone = [&](const SimResult &r) {
        CellMarks &m = workerMarks;
        m.simEnd = Clock::now();
        journal.append(r);
        m.reportEnd = Clock::now();
        if (traced)
            recordCell(ctx.tracer, pass, r.workload + "/" + r.config, m);
    };
    out.matrix = runMatrix(specs, ctx.configs, mo);
    out.cellPhaseS = secondsBetween(t_cells, Clock::now());

    c0 = Clock::now();
    const double after = calibrationBurstS(graphCalibrationBurst);
    const auto t_art = Clock::now();
    burst_s += secondsBetween(c0, t_art);
    cal.add(before, out.cellPhaseS / 2);
    cal.add(after, out.cellPhaseS / 2);

    writeArtifacts(ctx, out.matrix);
    const auto t_end = Clock::now();
    out.wallS = secondsBetween(t0, t_end) - setup_cal - burst_s;
    out.calMs = cal.meanMs();
    out.elapsedS = secondsBetween(t0, t_end);
    if (traced)
        ctx.tracer.record("artifact", "", pass, t_art, t_end);
    return out;
}

// ---- Correctness ------------------------------------------------------

/**
 * Expected digests, one per line:
 *   <workload> <seed|*> <window> <kernel> <machine> <digest>
 * "*" marks a fixed-input workload, whose digests hold for any seed.
 */
std::map<std::string, std::string>
loadDigests(const std::string &path)
{
    std::map<std::string, std::string> m;
    if (path.empty())
        return m;
    std::istringstream in(readFile(path));
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string wl, seed, window, kernel, machine, digest;
        if (!(ls >> wl >> seed >> window >> kernel >> machine >> digest))
            fatal("%s: malformed digest line '%s'", path.c_str(),
                  line.c_str());
        m[wl + " " + seed + " " + window + " " + kernel + " " + machine] =
            digest;
    }
    return m;
}

std::string
digestKey(const Options &o, const std::string &seed, const SimResult &r)
{
    return std::string(o.def->name) + " " + seed + " " +
           std::to_string(o.window) + " " + r.workload + " " + r.config;
}

/**
 * Count the failed cells of every pass: a cell fails when it threw,
 * when its digest differs from the pinned one (fixed-input workloads
 * must have one; graph-sweep has them only for pinned seeds), or when
 * it differs from the same cell of the first pass.
 */
std::size_t
checkPasses(const Options &o, const std::vector<PassResult> &passes,
            const std::map<std::string, std::string> &expected)
{
    std::size_t failed = 0;
    const std::string seed_key =
        o.def->graph ? std::to_string(o.seed) : std::string("*");
    for (std::size_t p = 0; p < passes.size(); p++) {
        for (std::size_t w = 0; w < passes[p].matrix.size(); w++) {
            for (std::size_t c = 0; c < numMachines; c++) {
                const SimResult &r = passes[p].matrix[w].results[c];
                const std::string d = cellDigest(r);
                const auto it = expected.find(digestKey(o, seed_key, r));
                std::string why;
                if (r.failed)
                    why = "threw: " + r.errMessage;
                else if (it == expected.end() && !o.def->graph &&
                         o.writeDigests.empty())
                    why = "no expected digest";
                else if (it != expected.end() && it->second != d)
                    why = "digest " + d + " != expected " + it->second;
                else if (p > 0 &&
                         d != cellDigest(passes[0].matrix[w].results[c]))
                    why = "differs from pass 0";
                if (!why.empty()) {
                    failed++;
                    std::fprintf(stderr, "perfbench: FAIL pass %zu %s/%s: %s\n",
                                 p, r.workload.c_str(), r.config.c_str(),
                                 why.c_str());
                }
            }
        }
    }
    return failed;
}

void
appendDigests(const Options &o, const PassResult &pass)
{
    std::ofstream f(o.writeDigests, std::ios::app);
    const std::string seed_key =
        o.def->graph ? std::to_string(o.seed) : std::string("*");
    for (const auto &row : pass.matrix) {
        for (const auto &r : row.results)
            f << digestKey(o, seed_key, r) << ' ' << cellDigest(r) << '\n';
    }
    if (!f)
        fatal("cannot write %s", o.writeDigests.c_str());
}

/** Cells whose journal record on disk differs from the result in memory. */
std::size_t
checkJournal(const RunContext &ctx, const PassResult &pass)
{
    const JournalCells cells = loadJournal(ctx.out("cells.journal"), ctx.key);
    std::size_t failed = 0;
    for (const auto &row : pass.matrix) {
        for (const auto &r : row.results) {
            const auto it = cells.find({r.workload, r.config});
            if (it == cells.end() ||
                journalLine(it->second) != journalLine(r)) {
                failed++;
                std::fprintf(stderr,
                             "perfbench: FAIL journal record of %s/%s\n",
                             r.workload.c_str(), r.config.c_str());
            }
        }
    }
    return failed;
}

// ---- Metrics ----------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Sums of one machine's cells over a matrix. */
struct MachineTotals
{
    double instr = 0, cycles = 0, stackDram = 0, stackBase = 0;
    double mispredicts = 0, l1dMisses = 0, l2Misses = 0, dramLines = 0;
    double tlbWalks = 0, hostMs = 0, impPrefetches = 0;
    double svrAccuracy = 0, impAccuracy = 0;
    std::size_t cells = 0;

    double pki(double x) const { return instr > 0 ? 1000.0 * x / instr : 0; }
    double per(double x) const { return instr > 0 ? x / instr : 0; }
    double nsPerInstr() const { return instr > 0 ? hostMs * 1e6 / instr : 0; }
};

MachineTotals
machineTotals(const std::vector<MatrixRow> &matrix, std::size_t c)
{
    MachineTotals t;
    for (const auto &row : matrix) {
        const SimResult &r = row.results[c];
        t.instr += static_cast<double>(r.core.instructions);
        t.cycles += static_cast<double>(r.core.cycles);
        t.stackDram += static_cast<double>(r.core.stackDram);
        t.stackBase += static_cast<double>(r.core.stackBase());
        t.mispredicts += static_cast<double>(r.core.branchMispredicts);
        t.l1dMisses += static_cast<double>(r.l1dMisses);
        t.l2Misses += static_cast<double>(r.l2Misses);
        t.dramLines += static_cast<double>(r.dramTransfers);
        t.tlbWalks += static_cast<double>(r.tlbWalks);
        t.hostMs += r.hostMillis;
        t.impPrefetches += static_cast<double>(
            r.prefIssued[static_cast<unsigned>(PrefetchOrigin::Imp)]);
        t.svrAccuracy += r.svrAccuracyLlc;
        t.impAccuracy += r.impAccuracyLlc;
        t.cells++;
    }
    return t;
}

std::size_t
cellCount(const PassResult &p)
{
    return p.matrix.size() * numMachines;
}

double
passMsimips(const PassResult &p)
{
    double instr = 0, ms = 0;
    for (std::size_t c = 0; c < numMachines; c++) {
        const MachineTotals t = machineTotals(p.matrix, c);
        instr += t.instr;
        ms += t.hostMs;
    }
    return ms > 0 ? instr / (ms * 1e3) : 0.0;
}

/**
 * Factor that turns a pass's host times into calibrated ones: what
 * they would have been on a host whose calibration sample takes
 * referenceCalibrationMs at that moment.
 */
double
calibratedScale(const PassResult &p)
{
    return calibrationFactor(p.calMs);
}

template <typename Fn>
double
medianOver(const std::vector<PassResult> &passes, bool traced_only, Fn fn)
{
    std::vector<double> v;
    for (std::size_t p = 0; p < passes.size(); p++) {
        if (!traced_only || passes[p].traced)
            v.push_back(fn(passes[p], static_cast<unsigned>(p)));
    }
    return median(v);
}

std::vector<Metric>
endToEndMetrics(const std::vector<PassResult> &passes, double peak_rss_mb)
{
    const auto &m = passes.front().matrix;
    const std::vector<double> ipc = harmonicMeanIpc(m);
    const std::vector<double> epi = meanEnergyPerInstr(m);
    return {
        {"setup_s",
         medianOver(passes, false,
                    [](const PassResult &p, unsigned) {
                        // Set-up is short: scale it by the samples
                        // taken around it, not by the pass mean.
                        return p.setupS * calibrationFactor(p.setupCalMs);
                    }),
         "s"},
        {"wall_s",
         medianOver(passes, false,
                    [](const PassResult &p, unsigned) {
                        return p.wallS * calibratedScale(p);
                    }),
         "s"},
        {"cells_per_s",
         medianOver(passes, false,
                    [](const PassResult &p, unsigned) {
                        return static_cast<double>(cellCount(p)) /
                               (p.cellPhaseS * calibratedScale(p));
                    }),
         "1/s"},
        {"msimips",
         medianOver(passes, false,
                    [](const PassResult &p, unsigned) {
                        return passMsimips(p) / calibratedScale(p);
                    }),
         "Minstr/s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"svr_speedup", ipc[svr16Idx] / ipc[inoIdx], "x"},
        {"svr_energy_ratio", epi[svr16Idx] / epi[inoIdx], "x"},
    };
}

/** Host-side layer measurements taken once, after the passes. */
struct PostPass
{
    double funcNsPerInstr = 0.0;
    double memAccessNs = 0.0;
    double instanceMb = 0.0;
    /** SVR engine counters per (kernel, machine) cell of the matrix. */
    std::vector<SvrEngineStats> svrStats;
};

/**
 * Functional execution (Executor::run) and a closed-loop replay of the
 * functional address stream through a standalone InO MemorySystem:
 * each access issues at the completion cycle of the one before, so
 * the replay times the miss machinery, not a backlog of MSHR waits.
 */
void
measureFunctionalAndMemory(const RunContext &ctx,
                           const std::vector<WorkloadSpec> &specs,
                           PostPass &out)
{
    double func_s = 0, func_instr = 0, mem_s = 0, accesses = 0, mb = 0;
    CalibrationLog cal;
    for (const auto &spec : specs) {
        {
            const WorkloadInstance w = spec.make();
            mb += static_cast<double>(w.mem->pagesTouched()) * pageBytes /
                  (1024.0 * 1024.0);
            Executor exec(*w.program, *w.mem);
            const auto t0 = Clock::now();
            std::uint64_t left = ctx.opts.window;
            while (left > 0) {
                if (exec.halted())
                    exec.restart();
                left -= exec.run(left);
            }
            func_s += secondsBetween(t0, Clock::now());
            func_instr += static_cast<double>(ctx.opts.window);
        }
        struct Access
        {
            AccessKind kind;
            Addr pc, addr;
        };
        std::vector<Access> stream;
        {
            const WorkloadInstance w = spec.make();
            Executor exec(*w.program, *w.mem);
            for (std::uint64_t i = 0; i < ctx.opts.window && !exec.halted();
                 i++) {
                const DynInst d = exec.step();
                if (d.si->isLoad())
                    stream.push_back({AccessKind::Load, d.pc, d.addr});
                else if (d.si->isStore())
                    stream.push_back({AccessKind::Store, d.pc, d.addr});
            }
        }
        MemorySystem mem(ctx.configs[inoIdx].mem);
        Cycle now = 0;
        const auto t0 = Clock::now();
        for (const Access &a : stream)
            now = std::max(now, mem.access(a.kind, a.pc, a.addr, now).done);
        mem_s += secondsBetween(t0, Clock::now());
        accesses += static_cast<double>(stream.size());
        cal.sample(1.0);
    }
    const double scale = calibrationFactor(cal.meanMs());
    out.funcNsPerInstr =
        func_instr > 0 ? func_s * 1e9 / func_instr * scale : 0;
    out.memAccessNs = accesses > 0 ? mem_s * 1e9 / accesses * scale : 0;
    out.instanceMb = mb / static_cast<double>(specs.size());
}

/**
 * Re-simulate cells serially with simulate() and compare them with
 * the pass's runMatrix() results; returns the mismatches. With
 * @p svr_stats the SVR cells are all re-run and their engine counters
 * kept, else one cell per kernel, chosen by the seed.
 */
std::size_t
recheckGraphCells(const RunContext &ctx, const std::vector<WorkloadSpec> &specs,
                  const PassResult &pass,
                  std::vector<SvrEngineStats> *svr_stats)
{
    const std::size_t inputs = std::size(graphInputs);
    std::vector<std::pair<std::size_t, std::size_t>> cells;
    if (svr_stats) {
        for (std::size_t w = 0; w < specs.size(); w++) {
            for (std::size_t c = 0; c < numMachines; c++) {
                if (isSvr(ctx.configs[c]))
                    cells.push_back({w, c});
            }
        }
    } else {
        // specs is kernel-major: kernel k, input i is specs[k * inputs + i].
        for (std::size_t k = 0; k < std::size(graphKernels); k++) {
            const std::size_t rot = (k + ctx.opts.seed) % inputs;
            cells.push_back({k * inputs + rot, rot % numMachines});
        }
    }
    if (svr_stats)
        svr_stats->assign(specs.size() * numMachines, {});
    std::size_t failed = 0;
    for (const auto &[w, c] : cells) {
        SimHooks hooks;
        if (svr_stats) {
            hooks.onSvrEngineDone = [&, w = w, c = c](const SvrEngine &e) {
                (*svr_stats)[w * numMachines + c] = e.stats();
            };
        }
        SimResult r;
        try {
            r = simulate(ctx.configs[c], specs[w].make(), hooks);
            r.workload = specs[w].name;
        } catch (const std::exception &e) {
            r = failedCell(specs[w].name, ctx.configs[c].label, e);
        }
        if (journalLine(r) != journalLine(pass.matrix[w].results[c])) {
            failed++;
            std::fprintf(stderr,
                         "perfbench: FAIL %s/%s: serial simulate() differs "
                         "from runMatrix()\n",
                         r.workload.c_str(), r.config.c_str());
        }
    }
    return failed;
}

std::vector<Metric>
perLayerMetrics(const RunContext &ctx, const std::vector<PassResult> &passes,
                const PostPass &post)
{
    const double jobs = ctx.opts.def->jobs;
    std::vector<Metric> v;
    auto traced = [&](auto fn) { return medianOver(passes, true, fn); };

    v.push_back({"workloads.graph_gen_s",
                 traced([&](const PassResult &pr, unsigned p) {
                     return ctx.tracer.totalMs("graph_gen", p) * 1e-3 *
                            calibratedScale(pr);
                 }),
                 "s"});
    v.push_back({"workloads.make_ms_p50",
                 traced([&](const PassResult &pr, unsigned p) {
                     return median(ctx.tracer.durationsMs("make", p)) *
                            calibratedScale(pr);
                 }),
                 "ms"});
    v.push_back({"analysis.verify_ms",
                 traced([&](const PassResult &pr, unsigned p) {
                     return ctx.tracer.totalMs("verify", p) *
                            calibratedScale(pr);
                 }),
                 "ms"});
    v.push_back({"workloads.instance_mb", post.instanceMb, "MB"});
    v.push_back({"core.func_ns_per_instr", post.funcNsPerInstr, "ns"});

    double ns[numMachines];
    for (std::size_t c = 0; c < numMachines; c++) {
        ns[c] = medianOver(passes, false, [&](const PassResult &p, unsigned) {
            return machineTotals(p.matrix, c).nsPerInstr() *
                   calibratedScale(p);
        });
        v.push_back({std::string(machineKeys[c]) + ".ns_per_instr", ns[c],
                     "ns"});
    }
    v.push_back({"core.timing_ns_per_instr",
                 ns[inoIdx] - post.funcNsPerInstr, "ns"});
    v.push_back({"ooo.extra_ns_per_instr", ns[oooIdx] - ns[inoIdx], "ns"});
    v.push_back({"mem.access_ns", post.memAccessNs, "ns"});
    v.push_back({"svr.extra_ns_per_instr", ns[svr16Idx] - ns[inoIdx], "ns"});
    v.push_back({"imp.extra_ns_per_instr", ns[impIdx] - ns[inoIdx], "ns"});
    v.push_back({"sim.report_ms",
                 traced([&](const PassResult &pr, unsigned p) {
                     return (ctx.tracer.totalMs("report", p) +
                             ctx.tracer.totalMs("artifact", p)) *
                            calibratedScale(pr);
                 }),
                 "ms"});
    v.push_back({"common.pool_busy_ratio",
                 traced([&](const PassResult &pr, unsigned p) {
                     return ctx.tracer.totalMs("cell", p) /
                            (jobs * pr.cellPhaseS * 1e3);
                 }),
                 "ratio"});
    std::vector<double> wall_untraced, wall_traced;
    for (const auto &p : passes)
        (p.traced ? wall_traced : wall_untraced)
            .push_back(p.wallS * calibratedScale(p));
    v.push_back({"trace.overhead_ratio",
                 median(wall_traced) / median(wall_untraced), "ratio"});

    // Modelled, exact: simulated statistics of the first pass.
    const auto &matrix = passes.front().matrix;
    for (std::size_t c = 0; c < numMachines; c++) {
        const MachineTotals t = machineTotals(matrix, c);
        const std::string k = machineKeys[c];
        v.push_back({k + ".core.cpi", t.per(t.cycles), "cycles/instr"});
        v.push_back({k + ".core.cpi_dram", t.per(t.stackDram),
                     "cycles/instr"});
        v.push_back({k + ".core.cpi_base", t.per(t.stackBase),
                     "cycles/instr"});
        v.push_back({k + ".core.branch_mpki", t.pki(t.mispredicts),
                     "1/kinstr"});
        v.push_back({k + ".mem.l1d_mpki", t.pki(t.l1dMisses), "1/kinstr"});
        v.push_back({k + ".mem.l2_mpki", t.pki(t.l2Misses), "1/kinstr"});
        v.push_back({k + ".mem.dram_lines_pki", t.pki(t.dramLines),
                     "1/kinstr"});
        v.push_back({k + ".mem.tlb_walks_pki", t.pki(t.tlbWalks),
                     "1/kinstr"});
    }
    for (std::size_t c = 0; c < numMachines; c++) {
        if (!isSvr(ctx.configs[c]))
            continue;
        const MachineTotals t = machineTotals(matrix, c);
        double rounds = 0, lanes = 0, masked = 0, timeouts = 0, lil = 0,
               bans = 0;
        for (std::size_t w = 0; w < matrix.size(); w++) {
            const SvrEngineStats &s = post.svrStats[w * numMachines + c];
            rounds += static_cast<double>(s.rounds);
            lanes += static_cast<double>(s.lanesIssued);
            masked += static_cast<double>(s.maskedLanes);
            timeouts += static_cast<double>(s.timeouts);
            lil += static_cast<double>(s.lilStops);
            bans += static_cast<double>(s.governorBans);
        }
        const std::string k = std::string(machineKeys[c]) + ".svr.";
        v.push_back({k + "rounds_pki", t.pki(rounds), "1/kinstr"});
        v.push_back({k + "lanes_per_round", rounds > 0 ? lanes / rounds : 0,
                     "lanes"});
        v.push_back({k + "prefetch_accuracy",
                     t.cells ? t.svrAccuracy / t.cells : 0, "ratio"});
        v.push_back({k + "masked_lane_ratio", lanes > 0 ? masked / lanes : 0,
                     "ratio"});
        v.push_back({k + "timeouts", timeouts, "count"});
        v.push_back({k + "lil_stops", lil, "count"});
        v.push_back({k + "governor_bans", bans, "count"});
    }
    const MachineTotals imp = machineTotals(matrix, impIdx);
    v.push_back({"imp.prefetches_pki", imp.pki(imp.impPrefetches),
                 "1/kinstr"});
    v.push_back({"imp.prefetch_accuracy",
                 imp.cells ? imp.impAccuracy / imp.cells : 0, "ratio"});
    return v;
}

/** Per-pass host times, for judging a run's own spread. */
std::string
passesJson(const std::vector<PassResult> &passes)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < passes.size(); i++) {
        const PassResult &p = passes[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"traced\": %s, \"setup_s\": %.6f, \"cells_s\": "
                      "%.6f, \"wall_s\": %.6f, \"calibration_ms\": %.6f, "
                      "\"setup_calibration_ms\": %.6f}",
                      p.traced ? "true" : "false", p.setupS, p.cellPhaseS,
                      p.wallS, p.calMs, p.setupCalMs);
        os << (i ? ", " : "") << buf;
    }
    os << "]";
    return os.str();
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < metrics.size(); i++) {
        char val[40];
        std::snprintf(val, sizeof val, "%.17g", metrics[i].value);
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << val << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release" || archcheckBuild) {
        std::fprintf(stderr,
                     "perfbench: refusing to time a %s build%s; configure "
                     "with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE,
                     archcheckBuild ? " with ArchCheck hooks" : "");
        return 3;
    }
    setInformEnabled(false);
#if defined(__GLIBC__)
    // glibc raises its mmap threshold as a process frees large blocks,
    // and trims the heap top when what was freed last lies there.
    // Whether a pass's allocations take fresh pages or reuse the heap
    // then changes from pass to pass, and set-up time with it, by up to
    // 2.5x. So the threshold stays at glibc's default (allocations of
    // 128 KiB or more always take fresh pages) and the heap is never
    // trimmed (smaller ones reuse it).
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
#endif
    // ProgramBuilder::build() verifies every program unless told not
    // to. The harness verifies each instance itself, in its own span,
    // so that make() and verification are timed apart and each cell
    // is verified once.
    setenv("SVR_VERIFY", "off", 1);
    std::filesystem::create_directories(opts.outDir);

    const auto t_run = Clock::now();
    Tracer tracer(t_run);
    RunContext ctx{opts, machines5(opts.window), tracer,
                   SweepKey{opts.def->name, "ino,imp,ooo,svr16,svr64",
                            opts.window, opts.seed, ""}};
    const std::vector<WorkloadSpec> serial =
        opts.def->graph ? std::vector<WorkloadSpec>{} : serialSpecs(*opts.def);
    std::vector<WorkloadSpec> graph_specs;

    // Passes run while the next one is expected to fit the budget; a
    // traced run alternates untraced and traced passes and needs both.
    std::vector<PassResult> passes;
    const unsigned min_passes = opts.trace ? 2 : 1;
    for (;;) {
        const auto p = static_cast<unsigned>(passes.size());
        const bool traced = opts.trace && p % 2 == 1;
        passes.push_back(opts.def->graph
                             ? runGraphPass(ctx, p, traced, graph_specs)
                             : runSerialPass(ctx, serial, p, traced));
        std::vector<double> lengths;
        for (const auto &pr : passes)
            lengths.push_back(pr.elapsedS);
        if (passes.size() >= min_passes &&
            secondsBetween(t_run, Clock::now()) + median(lengths) >
                opts.seconds)
            break;
    }
    const double peak_rss = peakRssMb();

    // Correctness.
    std::size_t attempted = 0;
    for (const auto &p : passes)
        attempted += cellCount(p);
    std::size_t failed =
        checkPasses(opts, passes, loadDigests(opts.digests));
    failed += checkJournal(ctx, passes.back());
    if (!opts.writeDigests.empty())
        appendDigests(opts, passes.front());

    PostPass post;
    const std::vector<WorkloadSpec> &specs =
        opts.def->graph ? graph_specs : serial;
    if (opts.def->graph) {
        // Serial re-runs of pool cells: all SVR cells when tracing
        // (their engine counters feed the svr.* metrics), else a few.
        failed += recheckGraphCells(ctx, specs, passes.back(),
                                    opts.trace ? &post.svrStats : nullptr);
    } else {
        post.svrStats = passes.front().svrStats;
    }
    if (opts.trace)
        measureFunctionalAndMemory(ctx, specs, post);

    const double calib =
        medianOver(passes, false,
                   [](const PassResult &p, unsigned) { return p.calMs; });
    const std::string fingerprint = fingerprintJson(calib);
    const std::vector<Metric> metrics =
        opts.trace ? perLayerMetrics(ctx, passes, post)
                   : endToEndMetrics(passes, peak_rss);

    std::printf("perfbench: %s seed %llu window %llu, %zu passes, %u "
                "job(s)%s\n",
                opts.def->name, static_cast<unsigned long long>(opts.seed),
                static_cast<unsigned long long>(opts.window), passes.size(),
                opts.def->jobs, opts.trace ? ", traced" : "");
    std::printf("fingerprint: %s\n", fingerprint.c_str());
    for (const auto &m : metrics)
        std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-32s %14zu of %zu cells_attempted\n", "cells_failed",
                failed, attempted);
    if (!opts.trace)
        std::printf("  svr_speedup and svr_energy_ratio are simulated and "
                    "unvalidated for this workload (no reference results)\n");

    const std::string metrics_json = metricsJson(metrics);
    std::ostringstream result;
    result << "{\"workload\": \"" << opts.def->name << "\", \"seed\": "
           << opts.seed << ", \"window\": " << opts.window
           << ", \"passes\": " << passesJson(passes) << ", \"fingerprint\": "
           << fingerprint << ", \"metrics\": " << metrics_json << "}\n";
    writeFileAtomic(ctx.out("result.json"), result.str());
    if (opts.trace)
        tracer.write(ctx.out("trace.json"));

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false", attempted, failed,
                metrics_json.c_str());
    return failed == 0 ? 0 : 1;
}
