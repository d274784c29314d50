/**
 * @file
 * svrsim_cli — run any workload on any machine configuration and print
 * a full statistics report.
 *
 * Usage:
 *   svrsim_cli [--list] [--workload NAME] [--core ino|imp|ooo|svr]
 *              [--n N] [--window INSTRS] [--mshrs M] [--bw GIBPS]
 *              [--ptws P] [--loop-bound MODE] [--no-waiting]
 *              [--svu-width W] [--srf K] [--dvr-recycling]
 *              [--sample-every E] [--sample-window W] [--warmup U]
 *              [--compare] [--jobs J]
 *
 * Examples:
 *   svrsim_cli --workload PR_KR --core svr --n 64
 *   svrsim_cli --workload HJ8 --core imp --window 1000000
 *   svrsim_cli --workload Camel --core svr --loop-bound maxlength
 *   svrsim_cli --workload BFS_UR --compare --jobs 4
 *   svrsim_cli --workload Camel --core svr --window 20000000 \
 *              --sample-every 2000000 --sample-window 40000 --warmup 20000
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "workloads/suites.hh"

using namespace svr;

namespace
{

void
usage()
{
    std::printf(
        "svrsim_cli — Scalar Vector Runahead simulator driver\n\n"
        "  --list                 list all workloads and exit\n"
        "  --workload NAME        workload to run (default PR_KR)\n"
        "  --core ino|imp|ooo|svr machine model (default svr)\n"
        "  --n N                  SVR vector length (default 16)\n"
        "  --window INSTRS        instructions to simulate (default %llu)\n"
        "  --mshrs M              L1D MSHRs (default 16)\n"
        "  --bw GIBPS             DRAM bandwidth (default 50)\n"
        "  --ptws P               page-table walkers (default 4)\n"
        "  --loop-bound MODE      lbd-wait|maxlength|lbd-maxlength|\n"
        "                         lbd-cv|ewma|tournament\n"
        "  --no-waiting           disable waiting mode (ablation)\n"
        "  --svu-width W          SVU scalars per cycle (default 1)\n"
        "  --srf K                speculative registers (default 8)\n"
        "  --dvr-recycling        DVR-style stop-when-full SRF policy\n"
        "  --sample-every E       sampled simulation: one timing sample\n"
        "                         per E instrs (0 = full detail)\n"
        "  --sample-window W      measured instrs per sample\n"
        "  --warmup U             detailed-warmup instrs per sample\n"
        "  --json                 emit the result as JSON\n"
        "  --compare              run ino/imp/ooo/svrN side by side\n"
        "                         (parallel; see also SVRSIM_JOBS)\n"
        "  --jobs J               worker threads for --compare\n",
        static_cast<unsigned long long>(presets::simWindow()));
}

LoopBoundMode
parseLoopBound(const std::string &s)
{
    if (s == "lbd-wait")
        return LoopBoundMode::LbdWait;
    if (s == "maxlength")
        return LoopBoundMode::Maxlength;
    if (s == "lbd-maxlength")
        return LoopBoundMode::LbdMaxlength;
    if (s == "lbd-cv")
        return LoopBoundMode::LbdCv;
    if (s == "ewma")
        return LoopBoundMode::Ewma;
    if (s == "tournament")
        return LoopBoundMode::Tournament;
    fatal("unknown loop-bound mode '%s'", s.c_str());
}

/** Hits as a percentage of all accesses; 0 when there were none. */
double
hitRatePct(std::uint64_t hits, std::uint64_t misses)
{
    const std::uint64_t accesses = hits + misses;
    if (accesses == 0)
        return 0.0;
    return 100.0 * static_cast<double>(hits) /
           static_cast<double>(accesses);
}

} // namespace

int
main(int argc, char **argv)
try {
    std::string workload = "PR_KR";
    std::string core = "svr";
    bool json = false;
    bool compare = false;
    unsigned jobs = 0;
    unsigned n = 16;
    SimConfig config = presets::svrCore(16);
    config.maxInstructions = presets::simWindow();

    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--list") {
            std::printf("graph + HPC-DB suite:\n");
            for (const auto &w : fullSuite())
                std::printf("  %s\n", w.name.c_str());
            std::printf("SPEC-like suite:\n");
            for (const auto &w : specSuite())
                std::printf("  %s\n", w.name.c_str());
            return 0;
        } else if (arg == "--workload") {
            workload = next();
        } else if (arg == "--core") {
            core = next();
        } else if (arg == "--n") {
            n = parseNumber<unsigned>(arg, next());
        } else if (arg == "--window") {
            config.maxInstructions =
                parseNumber<std::uint64_t>(arg, next());
        } else if (arg == "--mshrs") {
            config.mem.l1d.numMshrs = parseNumber<unsigned>(arg, next());
        } else if (arg == "--bw") {
            config.mem.dram.bandwidthGiBps =
                parseNumber<double>(arg, next());
        } else if (arg == "--ptws") {
            config.mem.translation.numWalkers =
                parseNumber<unsigned>(arg, next());
        } else if (arg == "--loop-bound") {
            config.svr.loopBound = parseLoopBound(next());
        } else if (arg == "--no-waiting") {
            config.svr.waitingMode = false;
        } else if (arg == "--svu-width") {
            config.svr.svuWidth = parseNumber<unsigned>(arg, next());
        } else if (arg == "--srf") {
            config.svr.numSrfRegs = parseNumber<unsigned>(arg, next());
        } else if (arg == "--dvr-recycling") {
            config.svr.recycle = SrfRecycle::StopWhenFull;
        } else if (arg == "--sample-every") {
            config.sampling.sampleEvery =
                parseNumber<std::uint64_t>(arg, next());
        } else if (arg == "--sample-window") {
            config.sampling.sampleWindow =
                parseNumber<std::uint64_t>(arg, next());
        } else if (arg == "--warmup") {
            config.sampling.warmup = parseNumber<std::uint64_t>(arg, next());
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--compare") {
            compare = true;
        } else if (arg == "--jobs") {
            jobs = parseNumber<unsigned>(arg, next());
        } else {
            usage();
            fatal("unknown argument '%s'", arg.c_str());
        }
    }

    if (core == "ino")
        config.core = CoreType::InOrder;
    else if (core == "imp")
        config.core = CoreType::InOrderImp;
    else if (core == "ooo")
        config.core = CoreType::OutOfOrder;
    else if (core == "svr")
        config.core = CoreType::Svr;
    else
        fatal("unknown core '%s'", core.c_str());
    config.svr.vectorLength = n;
    config.label = config.core == CoreType::Svr
                       ? "SVR" + std::to_string(n)
                       : std::string(coreTypeName(config.core));

    setInformEnabled(false);

    if (compare) {
        // One workload across the paper's comparison set, sharded
        // over the experiment engine's thread pool.
        std::vector<SimConfig> configs = {
            presets::inorder(), presets::impCore(), presets::outOfOrder(),
            presets::svrCore(n)};
        for (auto &c : configs)
            c.maxInstructions = config.maxInstructions;
        std::vector<std::string> labels;
        for (const auto &c : configs)
            labels.push_back(c.label);

        MatrixOptions opts;
        opts.jobs = jobs;
        opts.progress = false;
        MatrixTiming timing;
        const auto matrix =
            runMatrix({findWorkload(workload)}, configs, opts, &timing);

        printMetricTable(matrix, labels, "IPC",
                         [](const SimResult &res) { return res.ipc(); });
        printMetricTable(matrix, labels, "DRAM transfers (K lines)",
                         [](const SimResult &res) {
                             return static_cast<double>(res.dramTransfers) /
                                    1000.0;
                         });
        printMetricTable(matrix, labels, "energy per instr [nJ]",
                         [](const SimResult &res) {
                             return res.energyPerInstr();
                         });
        std::fprintf(stderr, "matrix: %zu cells in %.2fs "
                             "(%.2f cells/sec, %.2f Msimips, %u jobs)\n",
                     timing.cells, timing.wallSeconds,
                     timing.cellsPerSec(), timing.msimips(), timing.jobs);
        return 0;
    }

    const WorkloadInstance inst = findWorkload(workload).make();
    const SimResult r = simulate(config, inst);

    if (json) {
        std::fputs(toJson(r).c_str(), stdout);
        return 0;
    }

    std::printf("workload        %s\n", r.workload.c_str());
    std::printf("machine         %s\n", r.config.c_str());
    std::printf("instructions    %llu\n",
                static_cast<unsigned long long>(r.core.instructions));
    std::printf("cycles          %llu\n",
                static_cast<unsigned long long>(r.core.cycles));
    std::printf("IPC             %.4f\n", r.ipc());
    std::printf("CPI             %.4f\n", r.cpi());
    if (r.sampled) {
        std::printf("\nsampling\n");
        std::printf("  windows       %llu\n",
                    static_cast<unsigned long long>(r.sampleWindows));
        std::printf("  measured      %llu of %llu instrs (%.2f%%)\n",
                    static_cast<unsigned long long>(
                        r.measuredInstructions),
                    static_cast<unsigned long long>(r.core.instructions),
                    100.0 * static_cast<double>(r.measuredInstructions) /
                        static_cast<double>(r.core.instructions));
        std::printf("  CPI           %.4f +/- %.4f (95%% CI)\n", r.cpi(),
                    1.96 * r.cpiStderr);
    }
    std::printf("\nCPI stack (cycles)\n");
    std::printf("  base          %llu\n",
                static_cast<unsigned long long>(r.core.stackBase()));
    std::printf("  mem-L2        %llu\n",
                static_cast<unsigned long long>(r.core.stackL2));
    std::printf("  mem-DRAM      %llu\n",
                static_cast<unsigned long long>(r.core.stackDram));
    std::printf("  branch        %llu\n",
                static_cast<unsigned long long>(r.core.stackBranch));
    std::printf("  SVU lockstep  %llu\n",
                static_cast<unsigned long long>(r.core.stackSvu));
    std::printf("  other         %llu\n",
                static_cast<unsigned long long>(r.core.stackOther));
    std::printf("\nmemory\n");
    std::printf("  L1D hit rate  %.2f%%\n",
                hitRatePct(r.l1dHits, r.l1dMisses));
    std::printf("  L2 hit rate   %.2f%%\n", hitRatePct(r.l2Hits, r.l2Misses));
    std::printf("  DRAM lines    %llu (demand %llu, ifetch %llu, "
                "stride-pf %llu, svr %llu, imp %llu, wb %llu)\n",
                static_cast<unsigned long long>(r.dramTransfers),
                static_cast<unsigned long long>(r.traffic.demandData),
                static_cast<unsigned long long>(r.traffic.demandIfetch),
                static_cast<unsigned long long>(r.traffic.prefStride),
                static_cast<unsigned long long>(r.traffic.prefSvr),
                static_cast<unsigned long long>(r.traffic.prefImp),
                static_cast<unsigned long long>(r.traffic.writebacks));
    std::printf("  TLB walks     %llu\n",
                static_cast<unsigned long long>(r.tlbWalks));
    if (config.core == CoreType::Svr) {
        std::printf("\nSVR\n");
        std::printf("  rounds        %llu\n",
                    static_cast<unsigned long long>(r.core.svrRounds));
        std::printf("  scalars       %llu\n",
                    static_cast<unsigned long long>(
                        r.core.transientScalars));
        std::printf("  prefetches    %llu\n",
                    static_cast<unsigned long long>(r.core.svrPrefetches));
        std::printf("  LLC accuracy  %.2f%%\n", 100.0 * r.svrAccuracyLlc);
    }
    if (config.core == CoreType::InOrderImp)
        std::printf("\nIMP LLC accuracy %.2f%%\n",
                    100.0 * r.impAccuracyLlc);
    std::printf("\nenergy\n");
    std::printf("  total         %.1f uJ\n", r.energy.totalNJ() / 1000.0);
    std::printf("  per instr     %.3f nJ\n", r.energyPerInstr());
    std::printf("  core power    %.3f W\n",
                r.energy.corePowerW(r.core.cycles, 2.0));
    return 0;
} catch (const SimError &e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
