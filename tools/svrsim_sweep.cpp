/**
 * @file
 * svrsim_sweep — run a cartesian sweep of (workload x machine) and
 * emit CSV or JSON for downstream analysis.
 *
 * Usage:
 *   svrsim_sweep [--suite graph|hpcdb|full|spec|quick]
 *                [--configs LIST] [--window INSTRS] [--jobs N] [--json]
 *                [--sample-every E] [--sample-window W] [--warmup U]
 *                [--out PATH] [--resume] [--keep-going] [--retries N]
 *                [--keep-journal] [--journal-fsync]
 *                [--shard I/N] [--shards LIST]
 *
 * LIST is comma-separated from: ino, imp, ooo, svrN (e.g. svr16).
 * Default: --suite quick --configs ino,imp,ooo,svr16,svr64
 *
 * Cells are sharded across a work-stealing thread pool (--jobs, or
 * the SVRSIM_JOBS environment variable, default: all hardware
 * threads). Output is byte-identical for any job count; progress and
 * the cells/sec summary go to stderr.
 *
 * Fault tolerance:
 *   --out PATH      write the artifact atomically (tmp+rename) to PATH
 *                   instead of stdout, journaling each completed cell
 *                   to PATH.journal as it finishes
 *   --resume        restore cells already in PATH.journal (after a
 *                   crash/SIGKILL) instead of re-simulating them; the
 *                   final artifact is byte-identical to an
 *                   uninterrupted run
 *   --keep-going    record a failing cell as a structured failure row
 *                   (status=failed) and keep sweeping; exit code 3
 *                   when any cell failed. Default is fail-fast.
 *   --retries N     attempts per cell before a failure counts (def. 1)
 *   --keep-journal  keep PATH.journal after a successful sweep. Its
 *                   records are in cell completion order, so only
 *                   --jobs 1 journals compare byte for byte (cmp);
 *                   with more jobs the same records come in another
 *                   order, while the artifact itself is identical
 *   --journal-fsync fsync every journal record (and the artifact
 *                   rename) so the sweep survives power loss, not
 *                   just process death; slower per cell
 *
 * Multi-host sweeps:
 *   --shard I/N     simulate only the workloads whose position p in
 *                   the suite list has p % N == I. Every cell's seed
 *                   is keyed by its names, and the journal header
 *                   does not record the shard, so shard journals
 *                   merge with --shards into the full sweep's bytes.
 *   --shards LIST   restore the cells of comma-separated journal
 *                   files (e.g. PATH.journal of each --shard run) as
 *                   already completed, then simulate whatever no
 *                   shard covered. Every shard must come from the
 *                   same sweep arguments; a mismatch is ConfigInvalid.
 *
 * Sampled sweeps (--sample-every, see svrsim_cli) append three CSV
 * columns (sample_windows, measured_instructions, cpi_stderr) and tag
 * the journal header with the sampling parameters, so --resume
 * rejects a journal written under different sampling.
 *
 * The SVRSIM_FAULT environment variable injects deterministic faults
 * for testing (see src/common/fault.hh for the grammar). A rejected
 * argument or journal prints "error: ConfigInvalid: ..." and exits 1.
 *
 * Examples:
 *   svrsim_sweep --suite full --configs ino,svr16 > results.csv
 *   svrsim_sweep --suite quick --json --out results.json --resume
 *   # on host A and host B:
 *   svrsim_sweep --suite full --shard 0/2 --out a.csv --keep-journal
 *   svrsim_sweep --suite full --shard 1/2 --out b.csv --keep-journal
 *   # anywhere, with both journals copied over:
 *   svrsim_sweep --suite full --shards a.csv.journal,b.csv.journal \
 *                --out results.csv
 */

#include <csignal>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/io.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "workloads/suites.hh"

using namespace svr;

namespace
{

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t end = s.find(sep, start);
        if (end == std::string::npos) {
            out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

bool
fileExists(const std::string &path)
{
    if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
        std::fclose(f);
        return true;
    }
    return false;
}

int
runSweep(int argc, char **argv)
{
    std::string suite = "quick";
    std::string configs_arg = "ino,imp,ooo,svr16,svr64";
    std::uint64_t window = presets::simWindow();
    unsigned jobs = 0; // 0 = SVRSIM_JOBS / hardware default
    bool json = false;
    std::string out_path;
    bool resume = false;
    bool keep_going = false;
    bool keep_journal = false;
    unsigned retries = 1;
    SamplingParams sampling;
    std::uint64_t shard_index = 0;
    std::uint64_t shard_count = 1;
    std::string shards_arg;
    bool journal_fsync = false;

    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--suite") {
            suite = next();
        } else if (arg == "--configs") {
            configs_arg = next();
        } else if (arg == "--window") {
            window = parseNumber<std::uint64_t>(arg, next());
        } else if (arg == "--jobs") {
            jobs = parseNumber<unsigned>(arg, next());
        } else if (arg == "--sample-every") {
            sampling.sampleEvery = parseNumber<std::uint64_t>(arg, next());
        } else if (arg == "--sample-window") {
            sampling.sampleWindow = parseNumber<std::uint64_t>(arg, next());
        } else if (arg == "--warmup") {
            sampling.warmup = parseNumber<std::uint64_t>(arg, next());
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--resume") {
            resume = true;
        } else if (arg == "--keep-going") {
            keep_going = true;
        } else if (arg == "--keep-journal") {
            keep_journal = true;
        } else if (arg == "--retries") {
            retries = parseNumber<unsigned>(arg, next());
            if (retries == 0)
                fatal("--retries must be >= 1");
        } else if (arg == "--shard") {
            const std::string spec = next();
            const std::size_t slash = spec.find('/');
            if (slash == std::string::npos)
                fatal("--shard: '%s' is not I/N", spec.c_str());
            shard_index =
                parseNumber<std::uint64_t>(arg, spec.substr(0, slash));
            shard_count =
                parseNumber<std::uint64_t>(arg, spec.substr(slash + 1));
            if (shard_index >= shard_count)
                fatal("--shard: '%s' needs I < N", spec.c_str());
        } else if (arg == "--shards") {
            shards_arg = next();
        } else if (arg == "--journal-fsync") {
            journal_fsync = true;
        } else {
            fatal("unknown argument '%s' (see header comment)",
                  arg.c_str());
        }
    }

    if (resume && out_path.empty())
        fatal("--resume requires --out PATH (the journal lives at "
              "PATH.journal)");

    std::vector<WorkloadSpec> workloads;
    const std::vector<WorkloadSpec> suite_list = suiteByName(suite);
    for (std::size_t p = 0; p < suite_list.size(); p++) {
        if (p % shard_count == shard_index)
            workloads.push_back(suite_list[p]);
    }
    if (shard_count > 1) {
        inform("shard %llu/%llu: %zu of %zu workload(s)",
               static_cast<unsigned long long>(shard_index),
               static_cast<unsigned long long>(shard_count),
               workloads.size(), suite_list.size());
    }

    std::vector<SimConfig> configs;
    for (const std::string &name : split(configs_arg, ',')) {
        if (name.empty())
            continue;
        SimConfig c = presets::byName(name);
        c.maxInstructions = window;
        c.sampling = sampling;
        configs.push_back(c);
    }

    const FaultPlan faults = FaultPlan::fromEnv();

    MatrixOptions opts;
    opts.jobs = jobs;
    opts.keepGoing = keep_going;
    opts.maxAttempts = retries;
    opts.faultPlan = faults;

    SweepKey key{suite, configs_arg, window, opts.baseSeed, {}};
    if (sampling.enabled()) {
        key.sampling = std::to_string(sampling.sampleEvery) + "/" +
                       std::to_string(sampling.sampleWindow) + "/" +
                       std::to_string(sampling.warmup);
    }
    const std::string journal_path = out_path + ".journal";
    std::unique_ptr<SweepJournal> journal;
    JournalCells completed;
    std::set<std::pair<std::string, std::string>> in_primary;

    if (!out_path.empty() && resume && fileExists(journal_path)) {
        completed = loadJournal(journal_path, key);
        for (const auto &kv : completed)
            in_primary.insert(kv.first);
        inform("resume: %zu cell(s) already journaled in '%s'",
               completed.size(), journal_path.c_str());
    } else if (resume) {
        inform("resume: no journal at '%s'; starting fresh",
               journal_path.c_str());
    }

    if (!shards_arg.empty()) {
        std::vector<std::string> shard_paths;
        for (const std::string &p : split(shards_arg, ','))
            if (!p.empty())
                shard_paths.push_back(p);
        std::size_t dups = 0;
        JournalCells shard_cells =
            loadJournalShards(shard_paths, key, &dups);
        std::size_t added = 0;
        for (auto &kv : shard_cells) {
            if (completed.emplace(kv.first, std::move(kv.second)).second)
                added++;
        }
        inform("shards: %zu cell(s) restored from %zu shard(s) "
               "(%zu duplicate record(s))",
               added, shard_paths.size(), dups);
    }

    if (!out_path.empty()) {
        journal = std::make_unique<SweepJournal>(journal_path, key,
                                                 journal_fsync);
        // Cells restored from shards are not in the primary journal
        // yet; append them so PATH.journal alone can resume the sweep.
        for (const auto &kv : completed) {
            if (in_primary.find(kv.first) == in_primary.end())
                journal->append(kv.second);
        }
    }

    if (!completed.empty()) {
        opts.restoreCell = [&completed](const std::string &w,
                                        const std::string &c,
                                        SimResult &out) {
            const auto it = completed.find({w, c});
            if (it == completed.end())
                return false;
            out = it->second;
            return true;
        };
    }
    if (journal) {
        opts.onCellDone = [&journal, &faults](const SimResult &r) {
            journal->append(r);
            if (faults.shouldKill(r.workload, r.config)) {
                // Crash-safety test hook: die without any cleanup,
                // exactly like an external SIGKILL, right after this
                // cell hit the journal.
                warn("injected kill after cell %s/%s", r.workload.c_str(),
                     r.config.c_str());
                std::raise(SIGKILL);
            }
        };
    }
    MatrixTiming timing;
    const std::vector<SimResult> results =
        flattenMatrix(runMatrix(workloads, configs, opts, &timing));

    std::string content;
    if (json) {
        content = toJson(results);
    } else {
        content = csvHeader(sampling.enabled()) + "\n";
        for (const auto &r : results)
            content += csvRow(r, sampling.enabled()) + "\n";
    }

    if (!out_path.empty()) {
        writeFileAtomic(out_path, content, faults, journal_fsync);
        journal.reset();
        // The artifact is durable; the journal is now redundant.
        if (!keep_journal)
            std::remove(journal_path.c_str());
    } else {
        std::fputs(content.c_str(), stdout);
    }
    return timing.failedCells > 0 ? 3 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        // fatal() anywhere in the tool (a bad flag value, config or
        // suite name) becomes a ConfigInvalid SimError reported below.
        ScopedErrorCapture capture(ErrCode::ConfigInvalid);
        return runSweep(argc, argv);
    } catch (const SimError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
