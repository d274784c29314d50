#include "mem/tlb.hh"

#include <algorithm>

#include "common/logging.hh"

namespace svr
{

Tlb::Tlb(unsigned num_entries, unsigned associativity)
    : assoc(associativity)
{
    if (num_entries == 0 || associativity == 0 ||
        num_entries % associativity != 0) {
        fatal("Tlb: bad geometry (%u entries, %u-way)", num_entries,
              associativity);
    }
    numSets = num_entries / associativity;
    if ((numSets & (numSets - 1)) != 0)
        fatal("Tlb: set count must be a power of two");
    pages.assign(num_entries, emptyTag);
    lastUse.assign(num_entries, 0);
    fillCount.assign(numSets, 0);
}

unsigned
Tlb::setOf(Addr page) const
{
    return static_cast<unsigned>((page / pageBytes) & (numSets - 1));
}

bool
Tlb::scan(Addr page)
{
    const std::size_t base =
        static_cast<std::size_t>(setOf(page)) * assoc;
    // Branchless all-ways compare (at most one way can match: insert
    // only runs after a failed lookup, so tags are unique per set).
    unsigned hit_way = assoc;
    for (unsigned w = 0; w < assoc; w++) {
        if (pages[base + w] == page)
            hit_way = w;
    }
    if (hit_way != assoc) {
        mruWay = base + hit_way;
        lastUse[mruWay] = ++useClock;
        hits++;
        return true;
    }
    misses++;
    return false;
}

void
Tlb::insert(Addr addr)
{
    const Addr page = pageAlign(addr);
    const unsigned set = setOf(page);
    const std::size_t base = static_cast<std::size_t>(set) * assoc;
    // Next unfilled way, else the LRU way (unique lastUse stamps make
    // the argmin exact LRU). No duplicate check: insert() only runs
    // after a failed lookup() of the same page.
    unsigned w;
    if (fillCount[set] < assoc) {
        w = fillCount[set]++;
    } else {
        w = 0;
        for (unsigned i = 1; i < assoc; i++) {
            if (lastUse[base + i] < lastUse[base + w])
                w = i;
        }
    }
    mruWay = base + w;
    pages[mruWay] = page;
    lastUse[mruWay] = ++useClock;
}

void
Tlb::reset()
{
    std::fill(pages.begin(), pages.end(), emptyTag);
    std::fill(lastUse.begin(), lastUse.end(), 0);
    std::fill(fillCount.begin(), fillCount.end(), 0);
    useClock = 0;
    mruWay = 0;
    hits = misses = 0;
}

TranslationStack::TranslationStack(const TranslationParams &params)
    : p(params),
      dtlbImpl(params.dtlbEntries, params.dtlbEntries),
      itlbImpl(params.itlbEntries, params.itlbEntries),
      stlbImpl(params.stlbEntries, params.stlbAssoc)
{
    if (params.numWalkers == 0)
        fatal("TranslationStack: need at least one page-table walker");
    walkerFreeAt.assign(params.numWalkers, 0);
}

Cycle
TranslationStack::walk(Cycle now)
{
    auto it = std::min_element(walkerFreeAt.begin(), walkerFreeAt.end());
    const Cycle start = std::max(now, *it);
    const Cycle done = start + p.walkLatency;
    *it = done;
    walks++;
    return done;
}

Cycle
TranslationStack::translateData(Addr addr, Cycle now)
{
    if (dtlbImpl.lookup(addr))
        return now;
    if (stlbImpl.lookup(addr)) {
        dtlbImpl.insert(addr);
        return now + p.stlbHitLatency;
    }
    const Cycle done = walk(now + p.stlbHitLatency);
    stlbImpl.insert(addr);
    dtlbImpl.insert(addr);
    return done;
}

Cycle
TranslationStack::translateInstr(Addr addr, Cycle now)
{
    if (itlbImpl.lookup(addr))
        return now;
    if (stlbImpl.lookup(addr)) {
        itlbImpl.insert(addr);
        return now + p.stlbHitLatency;
    }
    const Cycle done = walk(now + p.stlbHitLatency);
    stlbImpl.insert(addr);
    itlbImpl.insert(addr);
    return done;
}

void
TranslationStack::reset()
{
    dtlbImpl.reset();
    itlbImpl.reset();
    stlbImpl.reset();
    std::fill(walkerFreeAt.begin(), walkerFreeAt.end(), 0);
    walks = 0;
}

} // namespace svr
