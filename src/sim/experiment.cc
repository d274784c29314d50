#include "sim/experiment.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"

namespace svr
{

namespace
{

/**
 * Run one (workload, config) cell with the engine's fault isolation:
 * legacy panic()/fatal() sites captured as SimErrors, injected faults
 * applied, up to opts.maxAttempts tries. On final failure either
 * rethrows (fail-fast) or returns a deterministic failure record
 * (opts.keepGoing).
 */
SimResult
runIsolatedCell(const WorkloadSpec &spec, const SimConfig &config,
                const MatrixOptions &opts)
{
    for (unsigned attempt = 1;; attempt++) {
        try {
            WorkloadInstance w;
            {
                ScopedErrorCapture scope(ErrCode::WorkloadBuild);
                w = spec.make();
            }
            ScopedErrorCapture scope(ErrCode::ConfigInvalid);
            if (opts.faultPlan.shouldThrow(spec.name, config.label,
                                           attempt, opts.baseSeed)) {
                throw simErrorf(ErrCode::InternalInvariant, {},
                                "injected fault (attempt %u)", attempt);
            }
            SimResult res =
                opts.faultPlan.shouldHang(spec.name, config.label)
                    ? simulateInjectedHang(config, w)
                    : simulate(config, w);
            res.attempts = attempt;
            return res;
        } catch (const SimError &e) {
            if (attempt < opts.maxAttempts)
                continue;
            const SimError err =
                SimError::withCell(e, spec.name, config.label);
            if (!opts.keepGoing)
                throw err;
            SimResult res;
            res.workload = spec.name;
            res.config = config.label;
            res.failed = true;
            res.errCode = errCodeName(err.code());
            res.errMessage = err.what();
            res.attempts = attempt;
            return res;
        }
    }
}

} // namespace

std::vector<MatrixRow>
runMatrix(const std::vector<WorkloadSpec> &workloads,
          const std::vector<SimConfig> &configs, const MatrixOptions &opts,
          MatrixTiming *timing)
{
    using Clock = std::chrono::steady_clock;

    const std::size_t num_workloads = workloads.size();
    const std::size_t num_configs = configs.size();
    const std::size_t num_cells = num_workloads * num_configs;

    // Preallocate every result slot up front: each cell writes only
    // matrix[wi].results[ci], so workers never touch shared state and
    // the output order is fixed regardless of scheduling.
    std::vector<MatrixRow> matrix(num_workloads);
    std::vector<std::atomic<std::size_t>> cells_left(num_workloads);
    for (std::size_t wi = 0; wi < num_workloads; wi++) {
        matrix[wi].workload = workloads[wi].name;
        matrix[wi].results.resize(num_configs);
        matrix[wi].timings.resize(num_configs);
        cells_left[wi].store(num_configs, std::memory_order_relaxed);
    }

    ThreadPool pool(opts.jobs);
    std::mutex done_mutex; // serializes the onCellDone journal hook
    std::atomic<std::size_t> restored_cells{0};
    const auto t_start = Clock::now();
    pool.parallelFor(num_cells, [&](std::size_t idx) {
        const std::size_t wi = idx / num_configs;
        const std::size_t ci = idx % num_configs;
        const WorkloadSpec &spec = workloads[wi];
        const SimConfig &config = configs[ci];

        // Every cell gets its own seed-derived stream, keyed by name
        // rather than index, so the stream survives matrix reshapes.
        const std::uint64_t stream =
            Rng::cellSeed(opts.baseSeed, spec.name, config.label);

        const auto c_start = Clock::now();
        SimResult res;
        const bool restored =
            opts.restoreCell &&
            opts.restoreCell(spec.name, config.label, res);
        if (!restored) {
            res = runIsolatedCell(spec, config, opts);
            // The cell identity is the spec name, not whatever the
            // workload instance called itself — journal keys and the
            // restoreCell() lookup must agree on it.
            res.workload = spec.name;
            res.config = config.label;
        } else {
            restored_cells.fetch_add(1, std::memory_order_relaxed);
        }
        matrix[wi].results[ci] = std::move(res);
        const std::chrono::duration<double, std::milli> c_elapsed =
            Clock::now() - c_start;
        matrix[wi].timings[ci] = {c_elapsed.count(), stream};

        if (!restored && opts.onCellDone) {
            std::lock_guard<std::mutex> lock(done_mutex);
            opts.onCellDone(matrix[wi].results[ci]);
        }

        if (cells_left[wi].fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            opts.progress) {
            inform("done: %-12s (%zu configs)", spec.name.c_str(),
                   num_configs);
        }
    });
    const std::chrono::duration<double> elapsed = Clock::now() - t_start;

    MatrixTiming t;
    t.wallSeconds = elapsed.count();
    t.cells = num_cells;
    t.jobs = pool.concurrency();
    t.restoredCells = restored_cells.load(std::memory_order_relaxed);
    for (const auto &row : matrix) {
        for (const auto &res : row.results) {
            t.instructions += res.core.instructions;
            if (res.failed)
                t.failedCells++;
        }
    }
    if (opts.summary) {
        inform("matrix: %zu cells in %.2fs (%.2f cells/sec, "
               "%.2f Msimips, %u jobs)",
               t.cells, t.wallSeconds, t.cellsPerSec(), t.msimips(),
               t.jobs);
        if (t.failedCells > 0)
            warn("matrix: %zu cell(s) failed (see failure records)",
                 t.failedCells);
        if (t.restoredCells > 0)
            inform("matrix: %zu cell(s) restored from journal",
                   t.restoredCells);
    }
    if (timing)
        *timing = t;
    return matrix;
}

std::vector<MatrixRow>
runMatrix(const std::vector<WorkloadSpec> &workloads,
          const std::vector<SimConfig> &configs)
{
    return runMatrix(workloads, configs, MatrixOptions{});
}

std::vector<SimResult>
flattenMatrix(const std::vector<MatrixRow> &matrix)
{
    std::vector<SimResult> out;
    for (const auto &row : matrix)
        out.insert(out.end(), row.results.begin(), row.results.end());
    return out;
}

std::vector<double>
harmonicMeanIpc(const std::vector<MatrixRow> &matrix)
{
    if (matrix.empty())
        return {};
    std::vector<double> result;
    const std::size_t num_configs = matrix[0].results.size();
    for (std::size_t c = 0; c < num_configs; c++) {
        std::vector<double> ipcs;
        for (const auto &row : matrix)
            ipcs.push_back(row.results[c].ipc());
        result.push_back(harmonicMean(ipcs));
    }
    return result;
}

std::vector<double>
meanSpeedup(const std::vector<MatrixRow> &matrix, std::size_t baseline)
{
    if (matrix.empty())
        return {};
    std::vector<double> result;
    const std::size_t num_configs = matrix[0].results.size();
    for (std::size_t c = 0; c < num_configs; c++) {
        std::vector<double> speedups;
        for (const auto &row : matrix) {
            const double base = row.results[baseline].ipc();
            const double ipc = row.results[c].ipc();
            if (base > 0 && ipc > 0)
                speedups.push_back(ipc / base);
        }
        result.push_back(harmonicMean(speedups));
    }
    return result;
}

std::vector<double>
meanEnergyPerInstr(const std::vector<MatrixRow> &matrix)
{
    if (matrix.empty())
        return {};
    std::vector<double> result;
    const std::size_t num_configs = matrix[0].results.size();
    for (std::size_t c = 0; c < num_configs; c++) {
        std::vector<double> vals;
        for (const auto &row : matrix)
            vals.push_back(row.results[c].energyPerInstr());
        result.push_back(arithmeticMean(vals));
    }
    return result;
}

void
printHeader(const std::string &first, const std::vector<std::string> &labels)
{
    std::printf("%-12s", first.c_str());
    for (const auto &l : labels)
        std::printf(" %9s", l.c_str());
    std::printf("\n");
}

void
printRow(const std::string &name, const std::vector<double> &values)
{
    std::printf("%-12s", name.c_str());
    for (double v : values)
        std::printf(" %9.3f", v);
    std::printf("\n");
}

void
printMetricTable(const std::vector<MatrixRow> &matrix,
                 const std::vector<std::string> &config_labels,
                 const std::string &metric_name,
                 double (*metric)(const SimResult &))
{
    std::printf("# %s\n", metric_name.c_str());
    printHeader("workload", config_labels);
    for (const auto &row : matrix) {
        std::vector<double> vals;
        for (const auto &res : row.results)
            vals.push_back(metric(res));
        printRow(row.workload, vals);
    }
}

} // namespace svr
