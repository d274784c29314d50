/**
 * @file
 * Address translation: first-level TLBs, a shared second-level TLB,
 * and a pool of page-table walkers (Table III: 16-entry fully
 * associative D-TLB/I-TLB, 2048-entry 8-way S-TLB, 4 PTWs).
 */

#ifndef SVR_MEM_TLB_HH
#define SVR_MEM_TLB_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace svr
{

/** A single TLB level (fully associative when numSets == 1). */
class Tlb
{
  public:
    /**
     * @param entries total entries
     * @param assoc   associativity (entries for fully associative)
     */
    Tlb(unsigned entries, unsigned assoc);

    /**
     * Probe for the page containing @p addr; updates LRU on hit. The
     * most recently hit or filled way is compared inline; the all-ways
     * scan runs only when it misses.
     */
    bool
    lookup(Addr addr)
    {
        if (pages[mruWay] == pageAlign(addr)) {
            lastUse[mruWay] = ++useClock;
            hits++;
            return true;
        }
        return scan(pageAlign(addr));
    }

    /** Install the translation for @p addr's page. */
    void insert(Addr addr);

    /** Drop all entries and statistics. */
    void reset();

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    /**
     * Tag value no valid entry can carry (page-aligned tags have zero
     * low bits), so unfilled ways never match a lookup and the scan
     * needs no valid flags.
     */
    static constexpr Addr emptyTag = ~static_cast<Addr>(0);

    unsigned setOf(Addr page) const;
    /** The all-ways compare of lookup() (@p page is page-aligned). */
    bool scan(Addr page);

    unsigned assoc;
    unsigned numSets;
    /**
     * Structure-of-arrays layout: the scan behind the MRU check
     * touches only the page tags (a branchless all-ways compare the
     * compiler can vectorize), and the LRU stamps live separately.
     * Ways fill front-to-back (fillCount per set), so "first invalid
     * way" is just the fill cursor and eviction is an argmin over
     * unique lastUse stamps — both identical choices to the
     * scan-based implementation.
     */
    std::vector<Addr> pages;              // numSets * assoc tags
    std::vector<std::uint64_t> lastUse;   // parallel LRU stamps
    std::vector<std::uint16_t> fillCount; // valid ways per set
    std::uint64_t useClock = 0;
    /**
     * Index into pages/lastUse of the way last hit or filled. Tags are
     * unique across the whole table (the set is a function of the
     * page), so a match here is the match the scan would find; an
     * empty or overwritten way simply fails the compare.
     */
    std::size_t mruWay = 0;
};

/** Parameters for the translation stack. */
struct TranslationParams
{
    unsigned dtlbEntries = 16;
    unsigned itlbEntries = 16;
    unsigned stlbEntries = 2048;
    unsigned stlbAssoc = 8;
    unsigned numWalkers = 4;
    unsigned stlbHitLatency = 4;   //!< extra cycles on D-TLB miss, S-TLB hit
    unsigned walkLatency = 50;     //!< cycles per page-table walk
};

/**
 * The full translation stack: D-TLB -> S-TLB -> walker pool.
 * translateData() returns the cycle at which translation completes
 * (equal to @p now on a first-level hit).
 */
class TranslationStack
{
  public:
    explicit TranslationStack(const TranslationParams &params);

    /** Translate a data access starting at @p now. */
    Cycle translateData(Addr addr, Cycle now);

    /** Translate an instruction fetch starting at @p now. */
    Cycle translateInstr(Addr addr, Cycle now);

    /** Reset all TLB and walker state. */
    void reset();

    std::uint64_t walks = 0;

    const Tlb &dtlb() const { return dtlbImpl; }
    const Tlb &itlb() const { return itlbImpl; }
    const Tlb &stlb() const { return stlbImpl; }

  private:
    Cycle walk(Cycle now);

    TranslationParams p;
    Tlb dtlbImpl;
    Tlb itlbImpl;
    Tlb stlbImpl;
    std::vector<Cycle> walkerFreeAt;
};

} // namespace svr

#endif // SVR_MEM_TLB_HH
