/**
 * @file
 * Shared helpers for the timing-model tests: canned workloads, run
 * harnesses, and the stat-table comparator.
 */

#ifndef SVR_TESTS_TEST_HELPERS_HH
#define SVR_TESTS_TEST_HELPERS_HH

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.hh"
#include "core/executor.hh"
#include "core/inorder_core.hh"
#include "core/ooo_core.hh"
#include "isa/program.hh"
#include "mem/functional_memory.hh"
#include "mem/memory_system.hh"
#include "sim/simulator.hh"
#include "sim/stat_table.hh"
#include "svr/svr_engine.hh"
#include "workloads/workload.hh"

namespace svr::test
{

/**
 * Classic stride-indirect loop:
 *   for (i = 0; i < n; i++) sum += table[index[i]];
 * `table_entries` controls how DRAM-bound the indirect loads are.
 * Loops forever (the timing window bounds execution).
 */
inline WorkloadInstance
strideIndirect(std::uint32_t n = 1 << 16,
               std::uint32_t table_entries = 1 << 20,
               std::uint64_t seed = 42)
{
    auto mem = std::make_shared<FunctionalMemory>();
    Rng rng(seed);
    std::vector<std::uint32_t> index(n);
    for (auto &v : index)
        v = static_cast<std::uint32_t>(rng.nextBounded(table_entries));
    const Addr index_base = layoutArray32(*mem, index);
    const Addr table_base = layoutZeros(*mem, table_entries, 8);

    ProgramBuilder b("stride-indirect");
    b.li(5, table_base);
    b.li(12, 0);
    b.label("top");
    b.li(1, index_base);
    b.li(2, index_base + static_cast<Addr>(n) * 4);
    b.label("loop");
    b.lw(6, 1, 0);
    b.slli(7, 6, 3);
    b.add(7, 5, 7);
    b.ld(8, 7, 0);
    b.add(12, 12, 8);
    b.addi(1, 1, 4);
    b.cmp(1, 2);
    b.blt("loop");
    b.jmp("top");

    WorkloadInstance w;
    w.name = "stride-indirect";
    w.mem = mem;
    w.program = std::make_shared<Program>(b.build());
    return w;
}

/**
 * Pure streaming loop with no indirect chain:
 *   for (i = 0; i < n; i++) sum += a[i];
 */
inline WorkloadInstance
streamSum(std::uint32_t n = 1 << 16)
{
    auto mem = std::make_shared<FunctionalMemory>();
    std::vector<std::uint64_t> a(n);
    for (std::uint32_t i = 0; i < n; i++)
        a[i] = i;
    const Addr base = layoutArray64(*mem, a);

    ProgramBuilder b("stream-sum");
    b.li(12, 0);
    b.label("top");
    b.li(1, base);
    b.li(2, base + static_cast<Addr>(n) * 8);
    b.label("loop");
    b.ld(6, 1, 0);
    b.add(12, 12, 6);
    b.addi(1, 1, 8);
    b.cmp(1, 2);
    b.blt("loop");
    b.jmp("top");

    WorkloadInstance w;
    w.name = "stream-sum";
    w.mem = mem;
    w.program = std::make_shared<Program>(b.build());
    return w;
}

/** Run the in-order core over a workload instance. */
inline CoreStats
runInOrder(const WorkloadInstance &w, std::uint64_t max_instrs,
           const MemParams &mp = {}, const InOrderParams &cp = {})
{
    MemorySystem mem(mp);
    Executor exec(*w.program, *w.mem);
    InOrderCore core(cp, mem);
    return core.run(exec, max_instrs);
}

/** Run the OoO core over a workload instance. */
inline CoreStats
runOoO(const WorkloadInstance &w, std::uint64_t max_instrs,
       const MemParams &mp = {}, const OoOParams &cp = {})
{
    MemorySystem mem(mp);
    Executor exec(*w.program, *w.mem);
    OoOCore core(cp, mem);
    return core.run(exec, max_instrs);
}

/** Run the SVR core; optionally return engine stats via out-param. */
inline CoreStats
runSvr(const WorkloadInstance &w, std::uint64_t max_instrs,
       const SvrParams &sp = {}, const MemParams &mp = {},
       SvrEngineStats *engine_stats = nullptr)
{
    MemorySystem mem(mp);
    Executor exec(*w.program, *w.mem);
    SvrEngine engine(sp, mem, exec);
    InOrderCore core(InOrderParams{}, mem);
    core.setRunaheadEngine(&engine);
    CoreStats stats = core.run(exec, max_instrs);
    if (engine_stats)
        *engine_stats = engine.stats();
    return stats;
}

/** How expectStatsEqual() compares the SVR_RESULT_REALS rows. */
enum class RealsCompare
{
    Exact,    //!< bitwise (EXPECT_EQ)
    DoubleEq, //!< within 4 ULPs (EXPECT_DOUBLE_EQ)
};

/** Every SVR_CORE_COUNTERS row of two CoreStats, compared exactly. */
inline void
expectStatsEqual(const CoreStats &a, const CoreStats &b,
                 const std::string &what)
{
#define SVR_EXPECT_CORE(field)                                        \
    EXPECT_EQ(a.field, b.field) << what << " core." #field;
    SVR_CORE_COUNTERS(SVR_EXPECT_CORE)
#undef SVR_EXPECT_CORE
}

/**
 * Every stat-table row of two results: the core and memory counters
 * exactly, the reals as @p reals says. @p what labels failures.
 */
inline void
expectStatsEqual(const SimResult &a, const SimResult &b, RealsCompare reals,
                 const std::string &what)
{
    expectStatsEqual(a.core, b.core, what);
#define SVR_EXPECT_MEM(field, source)                                 \
    EXPECT_EQ(a.field, b.field) << what << " " #field;
    SVR_MEM_COUNTERS(SVR_EXPECT_MEM)
#undef SVR_EXPECT_MEM
#define SVR_EXPECT_REAL(field)                                        \
    if (reals == RealsCompare::Exact) {                               \
        EXPECT_EQ(a.field, b.field) << what << " " #field;            \
    } else {                                                          \
        EXPECT_DOUBLE_EQ(a.field, b.field) << what << " " #field;     \
    }
    SVR_RESULT_REALS(SVR_EXPECT_REAL)
#undef SVR_EXPECT_REAL
}

} // namespace svr::test

#endif // SVR_TESTS_TEST_HELPERS_HH
