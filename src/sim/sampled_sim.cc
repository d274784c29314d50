#include "sim/sampled_sim.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "core/executor.hh"
#include "svr/svr_engine.hh"

namespace svr
{

namespace
{

/**
 * Extrapolate one window counter to its whole period. The ratio-1
 * case (degenerate configs, where the window covers everything it
 * represents) stays exactly integral rather than round-tripping
 * through a double.
 */
std::uint64_t
scaled(std::uint64_t v, std::uint64_t represented, std::uint64_t measured)
{
    if (represented == measured)
        return v;
    const double ratio = static_cast<double>(represented) /
                         static_cast<double>(measured);
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(v) * ratio));
}

} // namespace

SimResult
simulateSampled(const SimConfig &config, const WorkloadInstance &w,
                const SimHooks &hooks,
                std::vector<SampleWindow> *windows_out)
{
    validateConfig(config);
    if (!config.sampling.enabled())
        fatal("simulateSampled: config '%s' has sampling disabled",
              config.label.c_str());
    if (!w.program || !w.mem)
        fatal("simulate: workload '%s' has no program/memory",
              w.name.c_str());
    if (hooks.commit) {
        ErrContext ctx;
        ctx.workload = w.name;
        ctx.config = config.label;
        throw simErrorf(ErrCode::ConfigInvalid, ctx,
                        "config '%s': sampling is incompatible with "
                        "per-commit hooks (lockstep validation needs "
                        "every commit; run without --sample-every)",
                        config.label.c_str());
    }

    const SamplingParams &sp = config.sampling;
    const WatchdogParams wd = resolveWatchdog(config);

    SimResult r;
    r.workload = w.name;
    r.config = config.label;
    r.sampled = true;

    Executor exec(*w.program, *w.mem);
    if (hooks.onExecutor)
        hooks.onExecutor(exec);

    // SVR predictor state carried window to window (warm SRAM).
    SvrEngineSnapshot svr_state;
    bool have_svr = false;

    MemCounters est; // whole-region memory-counter estimates
    std::vector<double> cpis;
    std::uint64_t done = 0;      //!< region instructions executed so far
    std::uint64_t measured = 0;  //!< instructions measured in detail
    std::uint64_t unsampled = 0; //!< executed under no window at all

    const auto t_start = std::chrono::steady_clock::now();
    while (done < config.maxInstructions && !exec.halted()) {
        const std::uint64_t period =
            std::min(sp.sampleEvery, config.maxInstructions - done);
        const std::uint64_t window_target = std::min(sp.sampleWindow, period);
        const std::uint64_t warmup_target =
            std::min(sp.warmup, period - window_target);
        const std::uint64_t ff_target =
            period - window_target - warmup_target;

        const std::uint64_t ffed = exec.run(ff_target);
        done += ffed;
        if (ffed < ff_target || exec.halted()) {
            unsampled += ffed;
            break;
        }

        // Fresh timing state per window; the detailed warmup (not the
        // previous window's stale image) populates it.
        MemorySystem mem(config.mem);
        MemCounters start; // all-zero == fresh-memory baseline
        MeasureWindow mw;
        mw.warmupInstrs = warmup_target;
        mw.onMeasureStart = [&] { start = captureCounters(mem); };

        TimingWindow tw;
        tw.maxInstructions = warmup_target + window_target;
        tw.measure = warmup_target ? &mw : nullptr;
        tw.svrIn = have_svr ? &svr_state : nullptr;
        tw.svrOut = &svr_state;

        const std::uint64_t seq_before = exec.instructionsExecuted();
        const CoreStats ws =
            runTimingWindow(config, mem, exec, *w.mem, hooks, wd, tw);
        const std::uint64_t committed =
            exec.instructionsExecuted() - seq_before;
        done += committed;
        have_svr = config.core == CoreType::Svr;

        if (ws.instructions == 0) {
            unsampled += committed;
            continue;
        }

        // Everything this period executed — fast-forward, warmup, and
        // the measured window itself — is represented by the window.
        const std::uint64_t represented = ffed + committed;
        const MemCounters end = captureCounters(mem);
        const auto scale = [&](std::uint64_t v) {
            return scaled(v, represented, ws.instructions);
        };
        // One rule for every counter, the access sums included (the
        // exact instructions are set below); accuracy inputs add up
        // unscaled, as only their ratio counts.
#define SVR_SCALE(field) r.core.field += scale(ws.field);
        SVR_CORE_COUNTERS(SVR_SCALE)
#undef SVR_SCALE
        for (unsigned i = 0; i < numMemCounters; i++)
            est.reported[i] += scale(end.reported[i] - start.reported[i]);
        est.l1Accesses += scale(end.l1Accesses - start.l1Accesses);
        est.l2Accesses += scale(end.l2Accesses - start.l2Accesses);
        for (unsigned o = 0; o < numPrefetchOrigins; o++) {
            est.llcFirstUse[o] += end.llcFirstUse[o] - start.llcFirstUse[o];
            est.llcEvictedUnused[o] +=
                end.llcEvictedUnused[o] - start.llcEvictedUnused[o];
        }

        const double cpi = static_cast<double>(ws.cycles) /
                           static_cast<double>(ws.instructions);
        cpis.push_back(cpi);
        measured += ws.instructions;
        if (windows_out) {
            SampleWindow sw;
            sw.startInstruction = done - ws.instructions;
            sw.warmup = committed - ws.instructions;
            sw.measured = ws.instructions;
            sw.cycles = ws.cycles;
            sw.cpi = cpi;
            windows_out->push_back(sw);
        }
    }

    // A tail the program-halt cut off before any window could measure
    // it: extrapolate its cycles at the region's mean sampled CPI.
    if (unsampled > 0 && !cpis.empty()) {
        r.core.cycles += static_cast<std::uint64_t>(std::llround(
            arithmeticMean(cpis) * static_cast<double>(unsampled)));
    }

    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - t_start;
    r.hostMillis = elapsed.count();

    r.core.instructions = done; // exact, not an estimate
    r.sampleWindows = cpis.size();
    r.measuredInstructions = measured;
    r.cpiStderr =
        cpis.size() > 1
            ? sampleStdDev(cpis) / std::sqrt(static_cast<double>(cpis.size()))
            : 0.0;

    finishResult(r, config, est);
    return r;
}

} // namespace svr
