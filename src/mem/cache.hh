/**
 * @file
 * Set-associative write-back cache with LRU replacement, MSHRs, and
 * per-line prefetch tags (who brought the line in, and whether it has
 * been demanded since) — the tags drive both SVR's accuracy governor
 * and the paper's Figure 13 accuracy metric.
 *
 * Hot-path layout (see ARCHITECTURE.md §7): ways are kept MRU-first
 * inside each set, outstanding misses live in a stable slot pool
 * threaded onto an allocation-order list with an open-addressed index
 * (backward-shift deletion), and MSHR occupancy is a min-heap of free
 * times. The steady state is allocation-free: drains unlink entries
 * in place instead of compacting and re-hashing.
 */

#ifndef SVR_MEM_CACHE_HH
#define SVR_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace svr
{

/** Who caused a cache line to be filled. */
enum class PrefetchOrigin : std::uint8_t
{
    None,   //!< demand fill
    Stride, //!< baseline L1D stride prefetcher
    Svr,    //!< SVR scalar-vector runahead prefetch
    Imp,    //!< indirect memory prefetcher
};

/** Number of PrefetchOrigin values (bounds per-origin counter arrays). */
inline constexpr unsigned numPrefetchOrigins = 4;

/** Cache geometry and timing parameters. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    unsigned assoc = 4;
    unsigned hitLatency = 3;
    unsigned numMshrs = 16;
};

/** Result of inserting a line (describes the eviction victim, if any). */
struct EvictResult
{
    bool evictedValid = false;
    bool evictedDirty = false;
    Addr evictedLine = 0;
    /** Victim carried a prefetch tag and was never demanded. */
    bool evictedUnusedPrefetch = false;
    PrefetchOrigin evictedOrigin = PrefetchOrigin::None;
};

/**
 * One cache level. Pure state container: lookup/insert/MSHR tracking.
 * The MemorySystem composes levels into a hierarchy and owns timing.
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /** Parameters this cache was built with. */
    const CacheParams &params() const { return p; }

    /**
     * Look up @p line_addr (line-aligned). On hit, updates LRU and
     * returns true. @p out_first_use is set when the hit is the first
     * demand access to a prefetched line; @p out_origin reports who
     * prefetched it. Pass @p is_demand false for prefetch probes so
     * they do not clear prefetch tags.
     */
    bool lookup(Addr line_addr, bool is_demand, bool &out_first_use,
                PrefetchOrigin &out_origin);

    /** Simple presence probe without LRU/tag side effects. */
    bool contains(Addr line_addr) const;

    /** Insert @p line_addr with fill origin @p origin. */
    EvictResult insert(Addr line_addr, PrefetchOrigin origin, bool dirty);

    /** Mark @p line_addr dirty if present (store hit). */
    void setDirty(Addr line_addr);

    /** Invalidate everything (between simulation runs). */
    void reset();

    // -- MSHR / outstanding-miss tracking ---------------------------------

    /**
     * If @p line_addr already has an outstanding miss completing after
     * @p now, return its completion cycle (merged miss); otherwise 0.
     */
    Cycle outstandingMiss(Addr line_addr, Cycle now) const;

    /**
     * Earliest cycle >= @p now at which an MSHR is available.
     * (A full MSHR file delays the miss, it does not drop it.)
     */
    Cycle mshrAvailable(Cycle now) const;

    /**
     * Record a new outstanding miss occupying an MSHR until @p done,
     * with its fill metadata (origin/dirty/source) set in the same
     * hash probe — callers previously paid a second findPending via
     * setPendingFill immediately after every allocation.
     */
    void allocateMshr(Addr line_addr, Cycle start, Cycle done,
                      PrefetchOrigin origin = PrefetchOrigin::None,
                      bool dirty = false, bool from_dram = false);

    /** Everything accessLine needs about one outstanding miss. */
    struct PendingInfo
    {
        Cycle done = 0;
        PrefetchOrigin origin = PrefetchOrigin::None;
        bool fromDram = false;
    };

    /**
     * Single-probe view of @p line_addr's outstanding miss: done is 0
     * when there is no miss completing after @p now (same contract as
     * outstandingMiss()), in which case the other fields are
     * meaningless. Replaces the outstandingMiss / pendingOrigin /
     * pendingFromDram probe triple on the merged-miss hot path.
     */
    PendingInfo
    pendingInfo(Addr line_addr, Cycle now) const
    {
        const int idx = findPending(line_addr);
        if (idx < 0)
            return {};
        const PendingMiss &m = pool[static_cast<std::size_t>(idx)];
        return {m.done > now ? m.done : 0, m.origin, m.fromDram};
    }

    /**
     * Fill all outstanding misses that completed at or before @p now
     * into the array, invoking @p on_evict for each victim. Misses
     * fill in allocation order; the common nothing-completed case is a
     * single compare against the cached earliest completion time.
     * Completed entries are unlinked in place (pool slot freed, hash
     * entry backward-shifted out) — no compaction, no re-hash.
     */
    template <typename EvictFn>
    void
    drainCompletedMisses(Cycle now, EvictFn &&on_evict)
    {
        if (now < earliestDone)
            return;
        Cycle next_earliest = neverDone;
        std::int32_t i = pendingHead;
        while (i >= 0) {
            PendingMiss &m = pool[static_cast<std::size_t>(i)];
            const std::int32_t next = m.next;
            if (m.done <= now) {
                const EvictResult ev = insert(m.line, m.origin, m.dirty);
                on_evict(ev);
                unlinkPending(i);
            } else if (m.done < next_earliest) {
                next_earliest = m.done;
            }
            i = next;
        }
        earliestDone = next_earliest;
    }

    /** Record fill metadata for a pending miss (origin/dirty/source). */
    void setPendingFill(Addr line_addr, PrefetchOrigin origin, bool dirty,
                        bool from_dram);

    /** Prefetch origin of an outstanding miss (None if absent/demand). */
    PrefetchOrigin pendingOrigin(Addr line_addr) const;

    /**
     * A demand access merged into an outstanding prefetch miss: the
     * prefetch was useful (albeit late). Counts a first use for its
     * origin and converts the pending fill to a demand fill.
     */
    void convertPendingToDemand(Addr line_addr);

    /** True if the given outstanding miss is being filled from DRAM. */
    bool pendingFromDram(Addr line_addr) const;

    /**
     * Mark a resident prefetched line as used without a demand lookup
     * (used to propagate first-use information from L1 to the LLC for
     * the paper's Figure 13a accuracy metric). Counts as a first use
     * if the line was present, tagged, and unused.
     */
    void markPrefetchUsed(Addr line_addr);

    /** Count of pending (not yet drained) misses. */
    std::size_t pendingMisses() const { return pendingCount; }

    /**
     * Earliest completion cycle over all outstanding misses, or
     * Cycle(~0) when none are pending. MemorySystem aggregates this
     * across levels into its next-event cycle so quiet accesses skip
     * the drain pass entirely.
     */
    Cycle earliestPendingDone() const { return earliestDone; }

    // -- Statistics --------------------------------------------------------
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    /** Demand hits that were the first use of a prefetched line. */
    std::uint64_t prefetchFirstUse[numPrefetchOrigins] = {};
    /** Evictions of never-used prefetched lines. */
    std::uint64_t prefetchEvictedUnused[numPrefetchOrigins] = {};
    /**
     * Increments of the two arrays above, all origins together: one
     * number that moves whenever any of them does, for readers that
     * poll them every instruction.
     */
    std::uint64_t prefetchOutcomes = 0;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
        PrefetchOrigin origin = PrefetchOrigin::None;
        bool prefUsed = false;
    };

    /**
     * One outstanding miss in the stable slot pool. Entries outlive
     * the MSHR slot that issued them: the slot frees at `done`, but
     * the entry stays until the next drainCompletedMisses() call fills
     * it into the array. prev/next thread the allocation-order list
     * (fills replay in allocation order, which fixes LRU/writeback
     * order); a re-allocated line keeps its original list position,
     * exactly as in-place overwrite did in the compacting array.
     */
    struct PendingMiss
    {
        Addr line = 0;
        Cycle done = 0;
        PrefetchOrigin origin = PrefetchOrigin::None;
        bool dirty = false;
        bool fromDram = false;
        std::int32_t prev = -1;
        std::int32_t next = -1;
    };

    static constexpr Cycle neverDone = ~static_cast<Cycle>(0);

    unsigned setIndex(Addr line_addr) const;

    /** Pool index for @p line_addr's pending miss, or -1 if absent. */
    int findPending(Addr line_addr) const;
    /** Hash slot a probe for @p line_addr starts at. */
    std::size_t hashSlot(Addr line_addr) const;
    /** Point the open-addressed index at pool[idx]. */
    void indexPending(Addr line_addr, int idx);
    /** Remove pool index @p idx from the hash (backward shift). */
    void eraseIndex(std::int32_t idx);
    /** Unlink pool[idx]: hash erase + list unlink + slot free. */
    void unlinkPending(std::int32_t idx);
    /** Double the index and re-hash from the allocation-order list. */
    void growPendingIndex();

    CacheParams p;
    unsigned numSets;
    std::vector<Line> lines; // numSets * assoc, MRU-first within a set
    std::uint64_t useClock = 0;

    /** Min-heap of MSHR free times (slots are interchangeable). */
    std::vector<Cycle> mshrFreeHeap;

    /** Stable slot pool of outstanding misses (reused via freeSlots). */
    std::vector<PendingMiss> pool;
    /** Free pool slots (LIFO). */
    std::vector<std::int32_t> freeSlots;
    /** Allocation-order list through `pool` (drain/fill order). */
    std::int32_t pendingHead = -1;
    std::int32_t pendingTail = -1;
    /** Live entries in the pool. */
    std::size_t pendingCount = 0;
    /** Open-addressed index: slot -> pool index, -1 empty. */
    std::vector<std::int32_t> pendingSlots;
    std::size_t pendingSlotMask = 0;
    /** Min completion time over outstanding misses (or neverDone). */
    Cycle earliestDone = neverDone;
};

} // namespace svr

#endif // SVR_MEM_CACHE_HH
