/**
 * @file
 * The stat table: every counter and real of a SimResult, listed once
 * in journal record order. Warmup rebaselining, memory-counter
 * collection, sampled scaling and the journal walk these X-macro
 * lists; a row's group decides how it is treated. JSON and CSV keep
 * their own layout (docs/ARCHITECTURE.md, "The stat table").
 */

#ifndef SVR_SIM_STAT_TABLE_HH
#define SVR_SIM_STAT_TABLE_HH

#include "core/core_stats.hh"
#include "energy/energy_model.hh"
#include "mem/memory_system.hh"

/** CoreStats: rebaselined at warmup; sampling scales all but instructions. */
#define SVR_CORE_COUNTERS(X)                                          \
    X(instructions) X(cycles) X(loads) X(stores) X(branches)          \
    X(branchMispredicts) X(transientScalars) X(svrPrefetches)         \
    X(svrRounds) X(stackL2) X(stackDram) X(stackBranch) X(stackSvu)   \
    X(stackOther)

// Memory counters: snapshotted, subtracted and scaled. Each row is
// X(field, source); `source` reads it from a `const MemorySystem &m`.
#define SVR_MEM_COUNTERS(X)                                           \
    X(l1dHits, m.l1d().hits)                                          \
    X(l1dMisses, m.l1d().misses)                                      \
    X(l2Hits, m.l2().hits)                                            \
    X(l2Misses, m.l2().misses)                                        \
    X(dramTransfers, m.dram().transfers())                            \
    X(traffic.demandData, m.dramTraffic().demandData)                 \
    X(traffic.demandIfetch, m.dramTraffic().demandIfetch)             \
    X(traffic.prefStride, m.dramTraffic().prefStride)                 \
    X(traffic.prefSvr, m.dramTraffic().prefSvr)                       \
    X(traffic.prefImp, m.dramTraffic().prefImp)                       \
    X(traffic.writebacks, m.dramTraffic().writebacks)                 \
    X(tlbWalks, m.translation().walks)                                \
    X(prefIssued[0], m.prefIssued(PrefetchOrigin::None))              \
    X(prefIssued[1], m.prefIssued(PrefetchOrigin::Stride))            \
    X(prefIssued[2], m.prefIssued(PrefetchOrigin::Svr))               \
    X(prefIssued[3], m.prefIssued(PrefetchOrigin::Imp))

/** SimResult reals: journaled and recomputed, never scaled. */
#define SVR_RESULT_REALS(X)                                           \
    X(svrAccuracyLlc) X(impAccuracyLlc) X(strideAccuracyLlc)          \
    X(energy.coreStatic) X(energy.coreDynamic) X(energy.svrDynamic)   \
    X(energy.svrStatic) X(energy.cacheDynamic) X(energy.dramStatic)   \
    X(energy.dramDynamic)

namespace svr
{

#define SVR_STAT_ONE(...) +1
inline constexpr unsigned numMemCounters = 0 SVR_MEM_COUNTERS(SVR_STAT_ONE);

// A CoreStats, DramTraffic or EnergyBreakdown member without a row
// fails here (all are 8 bytes; 6 memory rows and 3 reals are scalars).
static_assert(sizeof(CoreStats) == 8 * (0 SVR_CORE_COUNTERS(SVR_STAT_ONE)));
static_assert(sizeof(DramTraffic) + 8 * numPrefetchOrigins ==
              8 * (numMemCounters - 6));
static_assert(sizeof(EnergyBreakdown) ==
              8 * ((0 SVR_RESULT_REALS(SVR_STAT_ONE)) - 3));
#undef SVR_STAT_ONE

} // namespace svr

#endif // SVR_SIM_STAT_TABLE_HH
