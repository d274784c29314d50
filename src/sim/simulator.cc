#include "sim/simulator.hh"

#include <chrono>
#include <memory>

#include "common/logging.hh"
#include "core/executor.hh"
#include "core/inorder_core.hh"
#include "core/ooo_core.hh"
#include "imp/imp_prefetcher.hh"
#include "sim/sampled_sim.hh"
#include "svr/svr_engine.hh"

namespace svr
{

/**
 * The auto cycle budget is deliberately loose — three orders of
 * magnitude above any plausible CPI — so it only ever fires on a
 * genuinely stuck run, never on a slow one.
 */
WatchdogParams
resolveWatchdog(const SimConfig &config)
{
    WatchdogParams wd;
    if (config.watchdog.maxCycles == watchdogOff) {
        wd.maxCycles = 0;
    } else if (config.watchdog.maxCycles != 0) {
        wd.maxCycles = config.watchdog.maxCycles;
    } else {
        const std::uint64_t window = config.maxInstructions;
        // Saturate: an enormous window gets an unlimited budget
        // rather than a wrapped (tiny) one.
        wd.maxCycles = window > (~std::uint64_t{0} >> 10) ? 0
                                                          : window << 10;
    }
    if (config.watchdog.maxStallCycles == watchdogOff)
        wd.maxStallCycles = 0;
    else if (config.watchdog.maxStallCycles != 0)
        wd.maxStallCycles = config.watchdog.maxStallCycles;
    else
        wd.maxStallCycles = std::uint64_t{1} << 22;
    return wd;
}

CoreStats
runTimingWindow(const SimConfig &config, MemorySystem &mem, Executor &exec,
                FunctionalMemory &fmem, const SimHooks &hooks,
                const WatchdogParams &wd, const TimingWindow &window)
{
    CoreStats stats;
    switch (config.core) {
      case CoreType::InOrder: {
        InOrderCore core(config.inorder, mem);
        core.setCommitHook(hooks.commit);
        stats = core.run(exec, window.maxInstructions, wd, window.measure);
        break;
      }
      case CoreType::InOrderImp: {
        ImpPrefetcher imp(config.imp, fmem);
        mem.setObserver(&imp);
        InOrderCore core(config.inorder, mem);
        core.setCommitHook(hooks.commit);
        stats = core.run(exec, window.maxInstructions, wd, window.measure);
        mem.setObserver(nullptr);
        break;
      }
      case CoreType::OutOfOrder: {
        OoOCore core(config.ooo, mem);
        core.setCommitHook(hooks.commit);
        stats = core.run(exec, window.maxInstructions, wd, window.measure);
        break;
      }
      case CoreType::Svr: {
        SvrEngine engine(config.svr, mem, exec);
        if (window.svrIn)
            engine.importState(*window.svrIn);
        if (hooks.onSvrEngine)
            hooks.onSvrEngine(engine);
        InOrderCore core(config.inorder, mem);
        core.setRunaheadEngine(&engine);
        core.setCommitHook(hooks.commit);
        stats = core.run(exec, window.maxInstructions, wd, window.measure);
        if (hooks.onSvrEngineDone)
            hooks.onSvrEngineDone(engine);
        if (window.svrOut)
            *window.svrOut = engine.exportState();
        break;
      }
      default:
        fatal("simulate: bad core type");
    }
    return stats;
}

MemCounters
captureCounters(const MemorySystem &m)
{
    MemCounters c;
    unsigned i = 0;
#define SVR_CAPTURE(field, source) c.reported[i++] = source;
    SVR_MEM_COUNTERS(SVR_CAPTURE)
#undef SVR_CAPTURE
    c.l1Accesses =
        m.l1d().hits + m.l1d().misses + m.l1i().hits + m.l1i().misses;
    c.l2Accesses = m.l2().hits + m.l2().misses;
    for (unsigned o = 0; o < numPrefetchOrigins; o++) {
        c.llcFirstUse[o] = m.llcPrefFirstUse(PrefetchOrigin(o));
        c.llcEvictedUnused[o] = m.llcPrefEvictedUnused(PrefetchOrigin(o));
    }
    return c;
}

void
finishResult(SimResult &r, const SimConfig &config, const MemCounters &mc)
{
    unsigned i = 0;
#define SVR_ASSIGN(field, source) r.field = mc.reported[i++];
    SVR_MEM_COUNTERS(SVR_ASSIGN)
#undef SVR_ASSIGN
    const auto accuracy = [&](PrefetchOrigin origin) {
        const auto o = static_cast<unsigned>(origin);
        return prefetchAccuracy(mc.llcFirstUse[o], mc.llcEvictedUnused[o]);
    };
    r.svrAccuracyLlc = accuracy(PrefetchOrigin::Svr);
    r.impAccuracyLlc = accuracy(PrefetchOrigin::Imp);
    r.strideAccuracyLlc = accuracy(PrefetchOrigin::Stride);

    const CoreKind kind = config.core == CoreType::OutOfOrder
                              ? CoreKind::OutOfOrder
                              : CoreKind::InOrder;
    const MemEnergyEvents ev{mc.l1Accesses, mc.l2Accesses, r.dramTransfers};
    r.energy = computeEnergy(kind, config.core == CoreType::Svr, r.core, ev,
                             config.energy);
}

SimResult
simulate(const SimConfig &config, const WorkloadInstance &w)
{
    return simulate(config, w, SimHooks{});
}

SimResult
simulate(const SimConfig &config, const WorkloadInstance &w,
         const SimHooks &hooks)
{
    validateConfig(config);
    if (!w.program || !w.mem)
        fatal("simulate: workload '%s' has no program/memory",
              w.name.c_str());

    if (config.sampling.enabled())
        return simulateSampled(config, w, hooks);

    const WatchdogParams wd = resolveWatchdog(config);

    SimResult r;
    r.workload = w.name;
    r.config = config.label;

    MemorySystem mem(config.mem);
    Executor exec(*w.program, *w.mem);
    if (hooks.onExecutor)
        hooks.onExecutor(exec);

    TimingWindow window;
    window.maxInstructions = config.maxInstructions;

    const auto t_start = std::chrono::steady_clock::now();
    r.core = runTimingWindow(config, mem, exec, *w.mem, hooks, wd, window);
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - t_start;
    r.hostMillis = elapsed.count();

    finishResult(r, config, captureCounters(mem));
    return r;
}

SimResult
simulate(const SimConfig &config, const WorkloadSpec &spec)
{
    const WorkloadInstance w = spec.make();
    return simulate(config, w);
}

namespace
{

/**
 * A runahead engine that blocks issue forever: every onIssue()
 * pushes the next issue cycle out by the watchdog's whole stall
 * budget and then some, so the core can never retire again.
 */
class StuckEngine : public RunaheadEngine
{
  public:
    Cycle
    onIssue(const DynInst &, Cycle issue_cycle) override
    {
        return issue_cycle + (Cycle{1} << 40);
    }
    void reset() override {}
    std::uint64_t transientScalars() const override { return 0; }
    std::uint64_t prefetchesIssued() const override { return 0; }
    std::uint64_t runaheadRounds() const override { return 0; }
};

} // namespace

SimResult
simulateInjectedHang(const SimConfig &config, const WorkloadInstance &w)
{
    validateConfig(config);
    if (!w.program || !w.mem)
        fatal("simulate: workload '%s' has no program/memory",
              w.name.c_str());

    const WatchdogParams wd = resolveWatchdog(config);

    MemorySystem mem(config.mem);
    Executor exec(*w.program, *w.mem);
    StuckEngine stuck;
    InOrderCore core(config.inorder, mem);
    core.setRunaheadEngine(&stuck);
    core.run(exec, config.maxInstructions, wd);
    panic("injected hang in '%s'/'%s' completed: watchdog disabled?",
          w.name.c_str(), config.label.c_str());
}

} // namespace svr
