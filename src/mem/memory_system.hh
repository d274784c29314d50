/**
 * @file
 * The composed memory hierarchy: L1I/L1D + L2 + DRAM, TLBs and page
 * table walkers, baseline stride prefetcher, and hooks for cache-side
 * prefetchers (IMP). This is the timing authority for all memory
 * accesses issued by the cores and by SVR's transient lanes.
 */

#ifndef SVR_MEM_MEMORY_SYSTEM_HH
#define SVR_MEM_MEMORY_SYSTEM_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/stride_prefetcher.hh"
#include "mem/tlb.hh"

namespace svr
{

/** What kind of access is being made. */
enum class AccessKind : std::uint8_t
{
    Load,       //!< demand data load
    Store,      //!< demand data store (write-allocate)
    Ifetch,     //!< instruction fetch
    PrefSvr,    //!< SVR transient-lane prefetch
    PrefImp,    //!< IMP prefetch
    PrefStride, //!< baseline stride-prefetcher prefetch
};

/** Deepest level an access had to go to. */
enum class HitLevel : std::uint8_t { L1, L2, Dram };

/** Timing outcome of one access. */
struct AccessResult
{
    Cycle done = 0;            //!< cycle the data is available
    HitLevel level = HitLevel::L1;
    /** Demand access was the first use of an SVR-prefetched L1 line. */
    bool svrFirstUse = false;
};

/**
 * Observer for cache-side prefetchers (IMP): sees every demand load
 * at the L1D and may append line addresses to prefetch.
 */
class DemandObserver
{
  public:
    virtual ~DemandObserver() = default;

    /**
     * Observe one demand load.
     * @param pc      load instruction PC
     * @param addr    effective byte address
     * @param l1_hit  whether it hit in the L1D
     * @param out     line-aligned addresses to prefetch
     */
    virtual void observeLoad(Addr pc, Addr addr, bool l1_hit,
                             std::vector<Addr> &out) = 0;
};

/** Parameters for the whole hierarchy (Table III defaults). */
struct MemParams
{
    CacheParams l1i = {"l1i", 64 * 1024, 4, 3, 4};
    CacheParams l1d = {"l1d", 64 * 1024, 4, 3, 16};
    CacheParams l2 = {"l2", 512 * 1024, 8, 12, 32};
    DramParams dram;
    TranslationParams translation;
    StridePrefetcherParams stridePf;
    bool enableStridePf = true;
    /**
     * Event-skip: consult the cached next-event cycle (min outstanding
     * miss completion over all levels) before running the per-level
     * drain pass, so accesses in quiet stretches skip it entirely.
     * Cycle-accurate results are identical either way (the drain pass
     * is a no-op before the next event); the toggle exists so tests
     * can prove that, and to fall back if a bug is ever suspected.
     */
    bool eventSkip = true;
};

/** DRAM traffic attribution for the Figure 13b coverage breakdown. */
struct DramTraffic
{
    std::uint64_t demandData = 0;
    std::uint64_t demandIfetch = 0;
    std::uint64_t prefStride = 0;
    std::uint64_t prefSvr = 0;
    std::uint64_t prefImp = 0;
    std::uint64_t writebacks = 0;

    std::uint64_t
    total() const
    {
        return demandData + demandIfetch + prefStride + prefSvr + prefImp;
    }
};

/** firstUse / (firstUse + evictedUnused); 1.0 when both are 0. */
inline double
prefetchAccuracy(std::uint64_t first_use, std::uint64_t evicted_unused)
{
    if (first_use + evicted_unused == 0)
        return 1.0;
    return static_cast<double>(first_use) /
           static_cast<double>(first_use + evicted_unused);
}

/**
 * The memory hierarchy. All timing questions ("when is this load's
 * value available?") are answered by access(); the functional value
 * itself lives in FunctionalMemory and is resolved by the Executor.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemParams &params);

    /** Perform a data-side access (demand or prefetch). */
    AccessResult access(AccessKind kind, Addr pc, Addr addr, Cycle now);

    /** Perform an instruction fetch at @p pc. */
    AccessResult instrFetch(Addr pc, Cycle now);

    /** Attach/detach a cache-side prefetcher (IMP). */
    void setObserver(DemandObserver *obs) { observer = obs; }

    /**
     * The next cycle at which hierarchy state changes on its own: the
     * earliest outstanding-miss completion over L1I/L1D/L2, or
     * Cycle(~0) when nothing is in flight. Accesses strictly before
     * this cycle cannot observe a drainable fill.
     */
    Cycle
    nextEventCycle() const
    {
        return std::min({l1iCache.earliestPendingDone(),
                         l1dCache.earliestPendingDone(),
                         l2Cache.earliestPendingDone()});
    }

    /** Reset all state (caches, TLBs, queues, statistics). */
    void reset();

    const Cache &l1d() const { return l1dCache; }
    const Cache &l1i() const { return l1iCache; }
    const Cache &l2() const { return l2Cache; }
    const Dram &dram() const { return dramModel; }
    const TranslationStack &translation() const { return trans; }
    const DramTraffic &dramTraffic() const { return traffic; }

    /** Total prefetch lines issued (not merged/duplicates) per origin. */
    std::uint64_t prefIssued(PrefetchOrigin origin) const
    {
        return prefIssuedCount[static_cast<unsigned>(origin)];
    }

    /** LLC prefetch accuracy (the paper's Figure 13a definition). */
    double llcPrefetchAccuracy(PrefetchOrigin o) const
    {
        return prefetchAccuracy(llcPrefFirstUse(o), llcPrefEvictedUnused(o));
    }

    /** L1 first uses of prefetched lines. */
    std::uint64_t l1PrefFirstUse(PrefetchOrigin origin) const;

    /**
     * LLC-level prefetch-use counts (first uses propagate from the L1
     * via markPrefetchUsed, so these are the authoritative "used
     * before leaving the chip" numbers the accuracy governor wants).
     */
    std::uint64_t llcPrefFirstUse(PrefetchOrigin origin) const;
    std::uint64_t llcPrefEvictedUnused(PrefetchOrigin origin) const;

    /** Moves whenever any LLC first-use or unused-eviction count does. */
    std::uint64_t llcPrefOutcomes() const { return l2Cache.prefetchOutcomes; }

  private:
    AccessResult accessLine(AccessKind kind, Addr line, Cycle start,
                            bool is_demand, bool is_store,
                            PrefetchOrigin fill_origin);
    void issuePrefetches(const std::vector<Addr> &lines, Cycle now,
                         AccessKind kind);
    void drainAll(Cycle now);

    /** Run the drain pass unless event-skip proves it a no-op. */
    void
    maybeDrain(Cycle now)
    {
        if (!p.eventSkip || now >= nextEventCycle())
            drainAll(now);
    }

    MemParams p;
    Cache l1iCache;
    Cache l1dCache;
    Cache l2Cache;
    Dram dramModel;
    TranslationStack trans;
    StridePrefetcher stridePf;
    DemandObserver *observer = nullptr;
    DramTraffic traffic;
    std::uint64_t prefIssuedCount[numPrefetchOrigins] = {};
    std::vector<Addr> scratchPrefetches;
};

} // namespace svr

#endif // SVR_MEM_MEMORY_SYSTEM_HH
