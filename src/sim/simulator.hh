/**
 * @file
 * The top-level simulator: wires a workload instance to a configured
 * machine, runs the timing window, and collects all per-run metrics
 * (core stats, cache/DRAM counters, prefetch effectiveness, energy).
 */

#ifndef SVR_SIM_SIMULATOR_HH
#define SVR_SIM_SIMULATOR_HH

#include <cstdint>
#include <functional>
#include <string>

#include "core/core_stats.hh"
#include "core/measure.hh"
#include "energy/energy_model.hh"
#include "mem/memory_system.hh"
#include "sim/config.hh"
#include "sim/stat_table.hh"
#include "workloads/workload.hh"

namespace svr
{

class CommitHook;
class Executor;
class FunctionalMemory;
class SvrEngine;
struct SvrEngineSnapshot;

/**
 * Observation hooks into one simulation run (debug/verification
 * tooling; see analysis/archcheck.hh for the main client). All
 * members are optional. The commit hook only fires in SVR_ARCHCHECK
 * builds — in Release it is attached but never called.
 */
struct SimHooks
{
    /** Per-committed-instruction observer (not owned). */
    CommitHook *commit = nullptr;
    /** Called once with the run's executor, before the timing loop. */
    std::function<void(const Executor &)> onExecutor;
    /**
     * Called with the SVR engine before each timing segment starts
     * (CoreType::Svr runs only).
     */
    std::function<void(const SvrEngine &)> onSvrEngine;
    /**
     * Called with the SVR engine after each timing segment completes,
     * before the engine is torn down (CoreType::Svr runs only) — the
     * hook for run-end observations like the chain log.
     */
    std::function<void(const SvrEngine &)> onSvrEngineDone;
};

/** Everything measured in one simulation run. */
struct SimResult
{
    std::string workload;
    std::string config;

    CoreStats core;

    // Memory-side counters.
    std::uint64_t l1dHits = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t dramTransfers = 0;
    DramTraffic traffic;
    std::uint64_t tlbWalks = 0;

    // Prefetch effectiveness (Figure 13).
    std::uint64_t prefIssued[numPrefetchOrigins] = {}; //!< by PrefetchOrigin
    double svrAccuracyLlc = 1.0;
    double impAccuracyLlc = 1.0;
    double strideAccuracyLlc = 1.0;

    EnergyBreakdown energy;

    /**
     * Failure record. A cell that threw a SimError under --keep-going
     * is recorded here instead of aborting the sweep: failed=true,
     * errCode/errMessage carry the structured error, attempts counts
     * how many tries the engine made. All three are deterministic
     * (the message never embeds host data), so failed cells are part
     * of the bit-identical-output contract like everything else.
     */
    bool failed = false;
    std::string errCode;    //!< errCodeName() of the SimError
    std::string errMessage; //!< decorated what() text
    unsigned attempts = 1;  //!< simulation attempts for this cell

    /**
     * Sampled-simulation provenance. When SamplingParams was enabled
     * the counters above are whole-region *estimates* stitched from
     * the timing windows (instructions stays exact), and these fields
     * describe the estimate. All four stay at their defaults on a
     * full-detail run, and the JSON/CSV reports only mention sampling
     * when sampled is true, keeping non-sampled artifacts byte-
     * identical to what they were before sampling existed.
     */
    bool sampled = false;
    std::uint64_t sampleWindows = 0;        //!< timing windows measured
    std::uint64_t measuredInstructions = 0; //!< instrs in those windows
    double cpiStderr = 0.0; //!< standard error of the per-window CPIs

    /**
     * Host wall-clock time spent inside the timing loop [ms]. Host-
     * side measurement only: deliberately kept out of toJson()/csv
     * reports, whose byte-identity across job counts is a test
     * invariant (see tests/test_parallel_experiment.cc).
     */
    double hostMillis = 0.0;

    double ipc() const { return core.ipc(); }
    double cpi() const { return core.cpi(); }
    /** Simulated instructions per host second, in millions. */
    double
    hostMsimips() const
    {
        return hostMillis > 0.0
                   ? static_cast<double>(core.instructions) /
                         (hostMillis * 1e3)
                   : 0.0;
    }
    /** Whole-system energy per committed instruction [nJ]. */
    double energyPerInstr() const
    {
        return energy.perInstrNJ(core.instructions);
    }
};

/**
 * Resolve SimConfig-level watchdog budgets (0 = auto, watchdogOff =
 * disabled) into concrete core-level params (0 = disabled).
 */
WatchdogParams resolveWatchdog(const SimConfig &config);

/**
 * One detailed-timing segment over an already-positioned machine.
 * simulate() runs exactly one covering the whole region; the sampled
 * driver (sim/sampled_sim.hh) runs one per sample period.
 */
struct TimingWindow
{
    /** Instructions to commit, *including* any warmup. */
    std::uint64_t maxInstructions = 0;

    /** Optional warmup/measure split (see core/measure.hh). */
    const MeasureWindow *measure = nullptr;

    /**
     * SVR predictor state carried across windows (CoreType::Svr only):
     * svrIn warms the freshly built engine before the run, svrOut
     * receives its state afterwards. Either may be null.
     */
    const SvrEngineSnapshot *svrIn = nullptr;
    SvrEngineSnapshot *svrOut = nullptr;
};

/**
 * A MemorySystem's counters (or a sampled estimate): SVR_MEM_COUNTERS
 * rows in table order, then the energy and accuracy inputs.
 */
struct MemCounters
{
    std::uint64_t reported[numMemCounters] = {};
    std::uint64_t l1Accesses = 0; //!< L1D + L1I hits and misses, summed
    std::uint64_t l2Accesses = 0; //!< L2 hits and misses, summed
    std::uint64_t llcFirstUse[numPrefetchOrigins] = {};
    std::uint64_t llcEvictedUnused[numPrefetchOrigins] = {};
};

/** Snapshot every counter of @p mem. */
MemCounters captureCounters(const MemorySystem &mem);

/** Set @p r's memory rows from @p mc, then accuracies and energy. */
void finishResult(SimResult &r, const SimConfig &config,
                  const MemCounters &mc);

/**
 * Build the configured core (plus SVR engine / IMP prefetcher) over
 * @p mem and run one timing segment on @p exec from its current
 * position. @p fmem is the workload's functional memory (value source
 * for IMP). Returns the segment's core stats (rebaselined when
 * window.measure has a warmup).
 */
CoreStats runTimingWindow(const SimConfig &config, MemorySystem &mem,
                          Executor &exec, FunctionalMemory &fmem,
                          const SimHooks &hooks, const WatchdogParams &wd,
                          const TimingWindow &window);

/** Run @p config on @p workload (fresh instance) and measure. */
SimResult simulate(const SimConfig &config, const WorkloadInstance &w);

/** As above, with observation hooks attached to the run. */
SimResult simulate(const SimConfig &config, const WorkloadInstance &w,
                   const SimHooks &hooks);

/** Convenience: build a fresh instance from @p spec and simulate. */
SimResult simulate(const SimConfig &config, const WorkloadSpec &spec);

/**
 * Fault-injection hook (hang@ rules): run the cell with a
 * deliberately livelocked runahead engine attached, so the
 * forward-progress watchdog must trip. Always throws
 * SimError(NoForwardProgress) — or CycleBudgetExceeded if the stall
 * check was disabled — unless the watchdog is fully off, in which
 * case it panics (an injected hang must never complete).
 */
SimResult simulateInjectedHang(const SimConfig &config,
                               const WorkloadInstance &w);

} // namespace svr

#endif // SVR_SIM_SIMULATOR_HH
