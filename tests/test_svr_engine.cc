/**
 * @file
 * Behavioural tests for the SVR engine: piggyback-runahead triggering,
 * lane prefetch generation (trigger + dependents), waiting mode,
 * termination (HSLR recurrence / timeout / LIL), divergence masking,
 * multi-chain handling, chain-utility gating, and the accuracy
 * governor — driven instruction by instruction for full control.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/executor.hh"
#include "mem/memory_system.hh"
#include "svr/svr_engine.hh"
#include "test_helpers.hh"

namespace svr
{
namespace
{

/** Drives an engine directly from the executor (no core timing). */
class EngineHarness
{
  public:
    EngineHarness(WorkloadInstance w, const SvrParams &sp = {},
                  const MemParams &mp = noStridePf())
        : work(std::move(w)),
          mem(mp),
          exec(*work.program, *work.mem),
          engine(sp, mem, exec)
    {
    }

    static MemParams
    noStridePf()
    {
        MemParams p;
        p.enableStridePf = false;
        return p;
    }

    /**
     * Issue @p n instructions through the engine, emulating the
     * core's demand memory accesses so prefetch-use accounting and
     * the governor behave as they would under the real core.
     */
    void
    run(std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n && !exec.halted(); i++) {
            const DynInst dyn = exec.step();
            if (dyn.si->isLoad()) {
                const AccessResult r =
                    mem.access(AccessKind::Load, dyn.pc, dyn.addr, cycle);
                cycle = std::max(cycle, r.done); // stall-on-use-ish
            } else if (dyn.si->isStore()) {
                mem.access(AccessKind::Store, dyn.pc, dyn.addr, cycle);
            }
            engine.onIssue(dyn, cycle);
            cycle += 2;
        }
    }

    WorkloadInstance work;
    MemorySystem mem;
    Executor exec;
    SvrEngine engine;
    Cycle cycle = 100;
};

TEST(SvrEngine, TriggersOnStridingLoad)
{
    EngineHarness h(test::strideIndirect(1 << 14, 1 << 18));
    h.run(2000);
    EXPECT_GT(h.engine.stats().rounds, 0u);
    EXPECT_GT(h.engine.stats().prefetches, 0u);
}

TEST(SvrEngine, PrefetchesFutureIndirectTargets)
{
    // After warmup, the demand stream should hit lines SVR prefetched.
    EngineHarness h(test::strideIndirect(1 << 14, 1 << 18));
    h.run(20000);
    EXPECT_GT(h.mem.l1PrefFirstUse(PrefetchOrigin::Svr), 100u);
}

TEST(SvrEngine, LaneAddressesMatchFutureDemand)
{
    // Property: with a pure stride-indirect loop, SVR's prefetched
    // lines are exactly the lines demanded a few iterations later, so
    // accuracy at the LLC stays near-perfect.
    EngineHarness h(test::strideIndirect(1 << 14, 1 << 18));
    h.run(40000);
    EXPECT_GT(h.mem.llcPrefetchAccuracy(PrefetchOrigin::Svr), 0.9);
}

TEST(SvrEngine, WaitingModeLimitsRounds)
{
    SvrParams sp;
    sp.vectorLength = 16;
    EngineHarness h(test::strideIndirect(1 << 14, 1 << 18), sp);
    h.run(30000);
    const auto &st = h.engine.stats();
    // The loop body is 7 instructions; 30000 instructions are ~4300
    // iterations. With waiting mode, rounds ~ iterations / 16.
    EXPECT_LT(st.rounds, 600u);
    EXPECT_GT(st.rounds, 100u);
}

TEST(SvrEngine, WaitingModeOffTriggersEveryIteration)
{
    SvrParams on;
    SvrParams off;
    off.waitingMode = false;
    EngineHarness h_on(test::strideIndirect(1 << 14, 1 << 18), on);
    EngineHarness h_off(test::strideIndirect(1 << 14, 1 << 18), off);
    h_on.run(30000);
    h_off.run(30000);
    // Without waiting mode nearly every instance re-triggers (the
    // paper's "unfathomably high compute cost").
    EXPECT_GT(h_off.engine.stats().rounds,
              3 * h_on.engine.stats().rounds);
    EXPECT_GT(h_off.engine.stats().scalars,
              2 * h_on.engine.stats().scalars);
}

TEST(SvrEngine, RoundTerminatesAtHeadRecurrence)
{
    // The round must close when the trigger load's PC recurs: the
    // engine is out of runahead at instruction-granularity boundaries.
    EngineHarness h(test::strideIndirect(1 << 14, 1 << 18));
    h.run(5000);
    EXPECT_GT(h.engine.stats().rounds, 0u);
    EXPECT_EQ(h.engine.stats().timeouts, 0u);
}

TEST(SvrEngine, TimeoutTerminatesLongRounds)
{
    // A straight-line region longer than the PRM timeout after a
    // striding load: rounds can only end by timeout.
    auto mem = std::make_shared<FunctionalMemory>();
    std::vector<std::uint32_t> idx(1 << 12);
    for (std::size_t i = 0; i < idx.size(); i++)
        idx[i] = static_cast<std::uint32_t>(i * 7 % 1024);
    const Addr ib = layoutArray32(*mem, idx);
    ProgramBuilder b("longbody");
    b.li(1, ib);
    b.label("top");
    b.lw(6, 1, 0); // striding trigger
    for (int i = 0; i < 300; i++)
        b.addi(9, 9, 1); // body longer than the 256-instr timeout
    b.addi(1, 1, 4);
    b.jmp("top");
    WorkloadInstance w{"longbody", mem,
                       std::make_shared<Program>(b.build())};
    SvrParams sp;
    sp.chainUtilityGate = false; // keep triggering despite no chain
    EngineHarness h(std::move(w), sp);
    h.run(20000);
    EXPECT_GT(h.engine.stats().timeouts, 0u);
}

TEST(SvrEngine, DivergenceMasksLanes)
{
    // Loop with a data-dependent branch on the loaded value: lanes
    // following the other path get masked. The fall-through path does
    // a real random indirect load so the chain stays worth running.
    auto mem = std::make_shared<FunctionalMemory>();
    Rng rng(5);
    std::vector<std::uint32_t> data(1 << 14);
    for (auto &v : data)
        v = static_cast<std::uint32_t>(rng.nextBounded(1 << 18));
    const Addr db = layoutArray32(*mem, data);
    const Addr tb = layoutZeros(*mem, 1 << 18, 8);
    ProgramBuilder b("divergent");
    b.li(5, tb);
    b.label("top");
    b.li(1, db);
    b.li(2, db + static_cast<Addr>(data.size()) * 4);
    b.label("loop");
    b.lw(6, 1, 0);      // striding trigger
    b.andi(9, 6, 1);    // tainted low bit
    b.cmpi(9, 0);       // tainted compare
    b.beq("skip");      // divergent branch (~50/50)
    b.slli(7, 6, 3);
    b.add(7, 5, 7);
    b.ld(8, 7, 0);      // random indirect load
    b.label("skip");
    b.addi(1, 1, 4);
    b.cmp(1, 2);
    b.blt("loop");
    b.jmp("top");
    WorkloadInstance w{"divergent", mem,
                       std::make_shared<Program>(b.build())};
    EngineHarness h(std::move(w));
    h.run(40000);
    EXPECT_GT(h.engine.stats().maskedLanes, 100u);
}

TEST(SvrEngine, LilStopsVectorizationPastLastIndirectLoad)
{
    EngineHarness h(test::strideIndirect(1 << 14, 1 << 18));
    h.run(30000);
    // The loop has one indirect load followed by ALU/branch tail: the
    // LIL cuts SVI generation there in steady state.
    EXPECT_GT(h.engine.stats().lilStops, 30u);
    EXPECT_GT(h.engine.stats().lilStops,
              h.engine.stats().rounds / 2);
}

TEST(SvrEngine, ChainUtilityGateSuppressesStreamLoops)
{
    SvrParams sp;
    EngineHarness h(test::streamSum(1 << 14), sp);
    h.run(40000);
    const auto &st = h.engine.stats();
    // The stream has no dependent loads: after the learning rounds
    // saturate the utility score, triggering stops.
    EXPECT_LE(st.rounds, SvrParams{}.uselessRoundLimit + 2);
    EXPECT_GT(st.uselessSuppressed, 0u);
}

TEST(SvrEngine, ChainUtilityGateCanBeDisabled)
{
    SvrParams sp;
    sp.chainUtilityGate = false;
    EngineHarness h(test::streamSum(1 << 14), sp);
    h.run(40000);
    EXPECT_GT(h.engine.stats().rounds, 20u);
}

TEST(SvrEngine, GovernorBansInaccuratePrefetching)
{
    // An adversarial loop: the "index" values alternate so that the
    // prefetched region is never touched by demand (indices loaded,
    // but demand uses idx ^ mask far away).
    auto mem = std::make_shared<FunctionalMemory>();
    Rng rng(17);
    const std::uint32_t entries = 1 << 20;
    std::vector<std::uint32_t> idx(1 << 14);
    for (auto &v : idx)
        v = static_cast<std::uint32_t>(rng.nextBounded(entries / 2));
    const Addr ib = layoutArray32(*mem, idx);
    const Addr tb = layoutZeros(*mem, entries, 8);
    ProgramBuilder b("hostile");
    b.li(5, tb);
    b.li(24, entries - 1);
    b.label("top");
    b.li(1, ib);
    b.li(2, ib + static_cast<Addr>(idx.size()) * 4);
    b.label("loop");
    b.lw(6, 1, 0);
    b.slli(7, 6, 3);
    b.add(7, 5, 7);
    b.ld(8, 7, 0);     // the address SVR prefetches for future lanes
    // Demand actually consumes a *different* region next iteration:
    // overwrite the index register so SVR's lane values mislead it.
    b.addi(1, 1, 4);
    b.cmp(1, 2);
    b.blt("loop");
    b.jmp("top");
    WorkloadInstance w{"hostile", mem,
                       std::make_shared<Program>(b.build())};
    // Make prefetched lines die before use: tiny window between
    // prefetch and (non-)use with a hostile governor threshold.
    SvrParams sp;
    sp.governorThreshold = 1.01; // everything is "inaccurate"
    sp.governorWarmup = 50;
    EngineHarness h(std::move(w), sp);
    h.run(30000);
    EXPECT_TRUE(h.engine.governorBanned());
    EXPECT_GT(h.engine.stats().governorBans, 0u);
}

TEST(SvrEngine, GovernorResetsEveryInterval)
{
    SvrParams sp;
    sp.governorThreshold = 1.01;
    sp.governorWarmup = 50;
    sp.governorResetInterval = 10000;
    EngineHarness h(test::strideIndirect(1 << 14, 1 << 18), sp);
    h.run(9000);
    EXPECT_TRUE(h.engine.governorBanned());
    h.run(9000); // crosses the reset boundary with room to re-ban
    // More rounds happened after the reset (ban lifted at least once).
    EXPECT_GT(h.engine.stats().governorBans, 1u);
}

TEST(SvrEngine, GovernorReEvaluatesAfterEveryReset)
{
    // With no warm-up and a threshold above any accuracy, the verdict
    // is "ban" before any prefetch outcome exists. The governor skips
    // re-evaluating while the LLC outcome counters stand still, so it
    // must still re-evaluate on the very instruction that resets its
    // window (the 1000th of each), not when an outcome next arrives.
    SvrParams sp;
    sp.governorThreshold = 1.01;
    sp.governorWarmup = 0;
    sp.governorResetInterval = 1000;
    EngineHarness h(test::streamSum(1 << 14), sp);
    h.run(1);
    EXPECT_TRUE(h.engine.governorBanned());
    for (std::uint64_t window = 1; window <= 10; window++) {
        h.run(window == 1 ? 999 : 1000);
        EXPECT_TRUE(h.engine.governorBanned()) << "window " << window;
        EXPECT_EQ(h.engine.stats().governorBans, window + 1);
    }
}

TEST(SvrEngine, UnrolledLoopsVectorizeBothChains)
{
    // Two independent stride-indirect chains in one loop body.
    auto mem = std::make_shared<FunctionalMemory>();
    Rng rng(23);
    const std::uint32_t n = 1 << 14;
    std::vector<std::uint32_t> ia(n), ib_(n);
    for (auto &v : ia)
        v = static_cast<std::uint32_t>(rng.nextBounded(1 << 18));
    for (auto &v : ib_)
        v = static_cast<std::uint32_t>(rng.nextBounded(1 << 18));
    const Addr a_base = layoutArray32(*mem, ia);
    const Addr b_base = layoutArray32(*mem, ib_);
    const Addr t1 = layoutZeros(*mem, 1 << 18, 8);
    const Addr t2 = layoutZeros(*mem, 1 << 18, 8);
    ProgramBuilder b("unrolled");
    b.li(5, t1);
    b.li(15, t2);
    b.li(16, b_base - a_base);
    b.label("top");
    b.li(1, a_base);
    b.li(2, a_base + static_cast<Addr>(n) * 4);
    b.label("loop");
    b.lw(6, 1, 0);       // chain A trigger
    b.slli(7, 6, 3);
    b.add(7, 5, 7);
    b.ld(8, 7, 0);       // IndA
    b.add(9, 1, 16);
    b.lw(10, 9, 0);      // chain B trigger (stride load at other base)
    b.slli(11, 10, 3);
    b.add(11, 15, 11);
    b.ld(13, 11, 0);     // IndB
    b.addi(1, 1, 4);
    b.cmp(1, 2);
    b.blt("loop");
    b.jmp("top");
    WorkloadInstance w{"unrolled", mem,
                       std::make_shared<Program>(b.build())};
    EngineHarness h(std::move(w));
    h.run(60000);
    EXPECT_GT(h.engine.stats().extraChains, 10u);
    // Both indirect tables get prefetched: accuracy stays high.
    EXPECT_GT(h.mem.llcPrefetchAccuracy(PrefetchOrigin::Svr), 0.8);
}

TEST(SvrEngine, NestedLoopsRetargetToInner)
{
    // Outer striding load feeding nothing + inner stride-indirect
    // loop: SVR must end up doing its rounds on the inner load.
    auto mem = std::make_shared<FunctionalMemory>();
    Rng rng(29);
    const std::uint32_t outer_n = 1 << 10;
    const std::uint32_t inner_n = 32;
    std::vector<std::uint32_t> inner_idx(outer_n * inner_n);
    for (auto &v : inner_idx)
        v = static_cast<std::uint32_t>(rng.nextBounded(1 << 18));
    const Addr idx_base = layoutArray32(*mem, inner_idx);
    const Addr tab = layoutZeros(*mem, 1 << 18, 8);
    const Addr outer_arr = layoutZeros(*mem, outer_n, 8);
    ProgramBuilder b("nested");
    b.li(5, tab);
    b.label("top");
    b.li(20, outer_arr);
    b.li(21, outer_arr + static_cast<Addr>(outer_n) * 8);
    b.li(1, idx_base);
    b.label("outer");
    b.ld(22, 20, 0);     // outer striding load
    b.addi(2, 1, inner_n * 4);
    b.label("inner");
    b.lw(6, 1, 0);       // inner striding trigger
    b.slli(7, 6, 3);
    b.add(7, 5, 7);
    b.ld(8, 7, 0);       // indirect
    b.addi(1, 1, 4);
    b.cmp(1, 2);
    b.blt("inner");
    b.addi(20, 20, 8);
    b.cmp(20, 21);
    b.blt("outer");
    b.jmp("top");
    WorkloadInstance w{"nested", mem,
                       std::make_shared<Program>(b.build())};
    EngineHarness h(std::move(w));
    h.run(60000);
    const auto &st = h.engine.stats();
    // The inner trigger (the program's first Lw) dominates the round
    // histogram.
    Addr inner_pc = 0;
    for (std::size_t i = 0; i < h.work.program->size(); i++) {
        if (h.work.program->at(i).op == Opcode::Lw) {
            inner_pc = Program::pcOf(i);
            break;
        }
    }
    ASSERT_TRUE(st.roundsByPc.count(inner_pc));
    std::uint64_t inner_rounds = st.roundsByPc.at(inner_pc);
    EXPECT_GT(inner_rounds, st.rounds / 2);
}

TEST(SvrEngine, SvuBlockingReportedForTriggerLoads)
{
    SvrParams sp;
    sp.vectorLength = 16;
    sp.svuWidth = 1;
    EngineHarness h(test::strideIndirect(1 << 14, 1 << 18), sp);
    // Drive one round manually: first trigger returns a block window
    // of about vectorLength/svuWidth cycles.
    bool saw_block = false;
    for (int i = 0; i < 5000 && !h.exec.halted(); i++) {
        const DynInst dyn = h.exec.step();
        const Cycle block = h.engine.onIssue(dyn, h.cycle);
        if (block >= h.cycle + 15)
            saw_block = true;
        h.cycle += 2;
    }
    EXPECT_TRUE(saw_block);
}

TEST(SvrEngine, WiderSvuBlocksLess)
{
    SvrParams w1;
    w1.svuWidth = 1;
    SvrParams w8;
    w8.svuWidth = 8;
    Cycle max_block1 = 0, max_block8 = 0;
    {
        EngineHarness h(test::strideIndirect(1 << 14, 1 << 18), w1);
        for (int i = 0; i < 5000 && !h.exec.halted(); i++) {
            const DynInst dyn = h.exec.step();
            max_block1 = std::max(max_block1,
                                  h.engine.onIssue(dyn, h.cycle) - h.cycle);
            h.cycle += 2;
        }
    }
    {
        EngineHarness h(test::strideIndirect(1 << 14, 1 << 18), w8);
        for (int i = 0; i < 5000 && !h.exec.halted(); i++) {
            const DynInst dyn = h.exec.step();
            max_block8 = std::max(max_block8,
                                  h.engine.onIssue(dyn, h.cycle) - h.cycle);
            h.cycle += 2;
        }
    }
    EXPECT_GT(max_block1, 2 * max_block8);
}

TEST(SvrEngine, RegisterCopyCostAddsBlocking)
{
    SvrParams with;
    with.modelRegisterCopyCost = true;
    SvrParams without;
    Cycle blk_with = 0, blk_without = 0;
    {
        EngineHarness h(test::strideIndirect(1 << 14, 1 << 18), with);
        for (int i = 0; i < 3000 && !h.exec.halted(); i++) {
            const DynInst dyn = h.exec.step();
            blk_with = std::max(blk_with,
                                h.engine.onIssue(dyn, h.cycle) - h.cycle);
            h.cycle += 2;
        }
    }
    {
        EngineHarness h(test::strideIndirect(1 << 14, 1 << 18), without);
        for (int i = 0; i < 3000 && !h.exec.halted(); i++) {
            const DynInst dyn = h.exec.step();
            blk_without = std::max(blk_without,
                                   h.engine.onIssue(dyn, h.cycle) -
                                       h.cycle);
            h.cycle += 2;
        }
    }
    EXPECT_EQ(blk_with, blk_without + SvrParams{}.registerCopyCycles);
}

TEST(SvrEngine, ResetRestoresInitialState)
{
    EngineHarness h(test::strideIndirect(1 << 14, 1 << 18));
    h.run(10000);
    EXPECT_GT(h.engine.stats().rounds, 0u);
    h.engine.reset();
    EXPECT_EQ(h.engine.stats().rounds, 0u);
    EXPECT_FALSE(h.engine.inRunahead());
    EXPECT_FALSE(h.engine.governorBanned());
}

TEST(SvrEngine, TransientScalarsCounted)
{
    EngineHarness h(test::strideIndirect(1 << 14, 1 << 18));
    h.run(20000);
    // Each round vectorizes the trigger + chain (slli/add/ld at least).
    EXPECT_GT(h.engine.transientScalars(),
              2 * h.engine.stats().prefetches);
}

TEST(SvrEngine, SrfPressureLosesChainsButDoesNotCrash)
{
    // One SRF register with the DVR-style policy: dependents cannot
    // map and vectorization degrades, but execution stays correct.
    SvrParams sp;
    sp.numSrfRegs = 1;
    sp.recycle = SrfRecycle::StopWhenFull;
    EngineHarness h(test::strideIndirect(1 << 14, 1 << 18), sp);
    h.run(20000);
    EXPECT_GT(h.engine.stats().rounds, 0u);
}

void
expectSnapshotEq(const SvrEngineSnapshot &a, const SvrEngineSnapshot &b)
{
    ASSERT_EQ(a.strideEntries.size(), b.strideEntries.size());
    for (std::size_t i = 0; i < a.strideEntries.size(); i++) {
        const StrideEntry &x = a.strideEntries[i];
        const StrideEntry &y = b.strideEntries[i];
        EXPECT_EQ(x.pc, y.pc) << "entry " << i;
        EXPECT_EQ(x.valid, y.valid) << "entry " << i;
        EXPECT_EQ(x.prevAddress, y.prevAddress) << "entry " << i;
        EXPECT_EQ(x.stride, y.stride) << "entry " << i;
        EXPECT_EQ(x.satCounter, y.satCounter) << "entry " << i;
        EXPECT_EQ(x.lastPrefetch, y.lastPrefetch) << "entry " << i;
        EXPECT_EQ(x.hasLastPrefetch, y.hasLastPrefetch) << "entry " << i;
        EXPECT_EQ(x.seen, y.seen) << "entry " << i;
        EXPECT_EQ(x.lil, y.lil) << "entry " << i;
        EXPECT_EQ(x.lilConfidence, y.lilConfidence) << "entry " << i;
        EXPECT_EQ(x.hasLil, y.hasLil) << "entry " << i;
        EXPECT_EQ(x.uselessRounds, y.uselessRounds) << "entry " << i;
        EXPECT_EQ(x.lastUse, y.lastUse) << "entry " << i;
    }
    EXPECT_EQ(a.strideClock, b.strideClock);
    EXPECT_EQ(a.governorBanned, b.governorBanned);
}

/**
 * The predictor SRAM the sampled driver hands from window to window:
 * a fresh engine that imports a warm engine's snapshot exports the
 * same state right back, ban flag included.
 */
TEST(SvrEngine, PredictorStateRoundTripsThroughSnapshot)
{
    EngineHarness warm(test::strideIndirect(1 << 14, 1 << 18));
    warm.run(30000);
    SvrEngineSnapshot snap = warm.engine.exportState();
    ASSERT_GT(snap.strideClock, 0u);
    ASSERT_TRUE(std::any_of(snap.strideEntries.begin(),
                            snap.strideEntries.end(),
                            [](const StrideEntry &e) { return e.valid; }));

    for (const bool banned : {false, true}) {
        snap.governorBanned = banned;
        EngineHarness fresh(test::strideIndirect(1 << 14, 1 << 18));
        fresh.engine.importState(snap);
        EXPECT_EQ(fresh.engine.governorBanned(), banned);
        expectSnapshotEq(fresh.engine.exportState(), snap);
    }
}

} // namespace
} // namespace svr
