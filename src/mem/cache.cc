#include "mem/cache.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.hh"

namespace svr
{

Cache::Cache(const CacheParams &params) : p(params)
{
    if (p.sizeBytes == 0 || p.assoc == 0)
        fatal("Cache '%s': bad geometry", p.name.c_str());
    const std::uint64_t num_lines = p.sizeBytes / cacheLineBytes;
    if (num_lines % p.assoc != 0)
        fatal("Cache '%s': size/assoc mismatch", p.name.c_str());
    numSets = static_cast<unsigned>(num_lines / p.assoc);
    if ((numSets & (numSets - 1)) != 0)
        fatal("Cache '%s': number of sets must be a power of two",
              p.name.c_str());
    lines.resize(num_lines);
    if (p.numMshrs == 0)
        fatal("Cache '%s': need at least one MSHR", p.name.c_str());
    mshrFreeHeap.assign(p.numMshrs, 0);

    // Index sized for <= 50% load at numMshrs entries; it grows if
    // undrained entries ever exceed that (entries outlive their slot).
    const std::size_t cap =
        std::bit_ceil<std::size_t>(std::max<std::size_t>(16, 2 * p.numMshrs));
    pendingSlots.assign(cap, -1);
    pendingSlotMask = cap - 1;
    pool.reserve(cap);
    freeSlots.reserve(cap);
}

unsigned
Cache::setIndex(Addr line_addr) const
{
    return static_cast<unsigned>((line_addr / cacheLineBytes) &
                                 (numSets - 1));
}

std::size_t
Cache::hashSlot(Addr line_addr) const
{
    std::uint64_t h =
        (line_addr / cacheLineBytes) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
    return static_cast<std::size_t>(h) & pendingSlotMask;
}

int
Cache::findPending(Addr line_addr) const
{
    std::size_t s = hashSlot(line_addr);
    while (true) {
        const std::int32_t idx = pendingSlots[s];
        if (idx < 0)
            return -1;
        if (pool[static_cast<std::size_t>(idx)].line == line_addr)
            return idx;
        s = (s + 1) & pendingSlotMask;
    }
}

void
Cache::indexPending(Addr line_addr, int idx)
{
    std::size_t s = hashSlot(line_addr);
    while (pendingSlots[s] >= 0)
        s = (s + 1) & pendingSlotMask;
    pendingSlots[s] = idx;
}

void
Cache::eraseIndex(std::int32_t idx)
{
    // Find the slot holding idx, then backward-shift later entries of
    // the same probe chain into the hole so probes never need
    // tombstones (Knuth 6.4 algorithm R, open addressing with linear
    // probing).
    std::size_t hole = hashSlot(pool[static_cast<std::size_t>(idx)].line);
    while (pendingSlots[hole] != idx)
        hole = (hole + 1) & pendingSlotMask;
    std::size_t j = hole;
    while (true) {
        j = (j + 1) & pendingSlotMask;
        const std::int32_t moved = pendingSlots[j];
        if (moved < 0)
            break;
        const std::size_t ideal =
            hashSlot(pool[static_cast<std::size_t>(moved)].line);
        // Entry at j may move into the hole iff the hole lies within
        // its probe path, i.e. cyclically between ideal and j.
        if (((j - ideal) & pendingSlotMask) >=
            ((j - hole) & pendingSlotMask)) {
            pendingSlots[hole] = moved;
            hole = j;
        }
    }
    pendingSlots[hole] = -1;
}

void
Cache::unlinkPending(std::int32_t idx)
{
    eraseIndex(idx);
    PendingMiss &m = pool[static_cast<std::size_t>(idx)];
    if (m.prev >= 0)
        pool[static_cast<std::size_t>(m.prev)].next = m.next;
    else
        pendingHead = m.next;
    if (m.next >= 0)
        pool[static_cast<std::size_t>(m.next)].prev = m.prev;
    else
        pendingTail = m.prev;
    freeSlots.push_back(idx);
    pendingCount--;
}

void
Cache::growPendingIndex()
{
    const std::size_t cap = pendingSlots.size() * 2;
    pendingSlots.assign(cap, -1);
    pendingSlotMask = cap - 1;
    for (std::int32_t i = pendingHead; i >= 0;
         i = pool[static_cast<std::size_t>(i)].next)
        indexPending(pool[static_cast<std::size_t>(i)].line, i);
}

bool
Cache::lookup(Addr line_addr, bool is_demand, bool &out_first_use,
              PrefetchOrigin &out_origin)
{
    out_first_use = false;
    out_origin = PrefetchOrigin::None;
    const unsigned set = setIndex(line_addr);
    Line *base = &lines[static_cast<std::size_t>(set) * p.assoc];
    for (unsigned w = 0; w < p.assoc; w++) {
        Line &line = base[w];
        if (line.valid && line.tag == line_addr) {
            hits++;
            line.lastUse = ++useClock;
            out_origin = line.origin;
            if (is_demand && line.origin != PrefetchOrigin::None &&
                !line.prefUsed) {
                line.prefUsed = true;
                out_first_use = true;
                prefetchFirstUse[static_cast<unsigned>(line.origin)]++;
                prefetchOutcomes++;
            }
            // Keep ways MRU-first so the hot line is checked first on
            // the next lookup (position never affects victim choice:
            // valid lines have unique lastUse values).
            if (w != 0)
                std::swap(base[0], line);
            return true;
        }
    }
    misses++;
    return false;
}

bool
Cache::contains(Addr line_addr) const
{
    const unsigned set = setIndex(line_addr);
    const Line *base = &lines[static_cast<std::size_t>(set) * p.assoc];
    for (unsigned w = 0; w < p.assoc; w++) {
        if (base[w].valid && base[w].tag == line_addr)
            return true;
    }
    return false;
}

EvictResult
Cache::insert(Addr line_addr, PrefetchOrigin origin, bool dirty)
{
    EvictResult result;
    const unsigned set = setIndex(line_addr);
    Line *base = &lines[static_cast<std::size_t>(set) * p.assoc];
    // One pass: present check, first-invalid search, and LRU victim
    // scan fused (valid lines form set state where the choices are
    // identical to running the three scans separately — present wins,
    // else first invalid, else unique-lastUse minimum).
    Line *victim = nullptr;
    Line *lru = base;
    for (unsigned w = 0; w < p.assoc; w++) {
        Line &line = base[w];
        if (!line.valid) {
            if (!victim)
                victim = &line;
            continue;
        }
        if (line.tag == line_addr) {
            // Already present (e.g. a racing fill): just update.
            line.dirty = line.dirty || dirty;
            return result;
        }
        if (line.lastUse < lru->lastUse)
            lru = &line;
    }
    if (!victim) {
        victim = lru;
        result.evictedValid = true;
        result.evictedDirty = victim->dirty;
        result.evictedLine = victim->tag;
        result.evictedOrigin = victim->origin;
        if (victim->origin != PrefetchOrigin::None && !victim->prefUsed) {
            result.evictedUnusedPrefetch = true;
            prefetchEvictedUnused[static_cast<unsigned>(victim->origin)]++;
            prefetchOutcomes++;
        }
        if (victim->dirty)
            writebacks++;
    }
    victim->tag = line_addr;
    victim->valid = true;
    victim->dirty = dirty;
    victim->lastUse = ++useClock;
    victim->origin = origin;
    victim->prefUsed = false;
    // Fresh fills are MRU: move to the front of the set.
    if (victim != base)
        std::swap(*base, *victim);
    return result;
}

void
Cache::setDirty(Addr line_addr)
{
    const unsigned set = setIndex(line_addr);
    Line *base = &lines[static_cast<std::size_t>(set) * p.assoc];
    for (unsigned w = 0; w < p.assoc; w++) {
        if (base[w].valid && base[w].tag == line_addr) {
            base[w].dirty = true;
            return;
        }
    }
}

void
Cache::reset()
{
    for (auto &line : lines)
        line = Line{};
    useClock = 0;
    std::fill(mshrFreeHeap.begin(), mshrFreeHeap.end(), 0);
    pool.clear();
    freeSlots.clear();
    pendingHead = pendingTail = -1;
    pendingCount = 0;
    std::fill(pendingSlots.begin(), pendingSlots.end(), -1);
    earliestDone = neverDone;
    hits = misses = writebacks = 0;
    prefetchOutcomes = 0;
    for (unsigned i = 0; i < numPrefetchOrigins; i++) {
        prefetchFirstUse[i] = 0;
        prefetchEvictedUnused[i] = 0;
    }
}

Cycle
Cache::outstandingMiss(Addr line_addr, Cycle now) const
{
    const int idx = findPending(line_addr);
    if (idx < 0)
        return 0;
    const Cycle done = pool[static_cast<std::size_t>(idx)].done;
    return done > now ? done : 0;
}

Cycle
Cache::mshrAvailable(Cycle now) const
{
    return std::max(now, mshrFreeHeap[0]);
}

void
Cache::allocateMshr(Addr line_addr, Cycle start, Cycle done,
                    PrefetchOrigin origin, bool dirty, bool from_dram)
{
    // Occupy the MSHR that frees earliest (the heap root).
    if (mshrFreeHeap[0] > start)
        panic("Cache '%s': MSHR allocated before one is free", p.name.c_str());
    mshrFreeHeap[0] = done;
    const std::size_t n = mshrFreeHeap.size();
    std::size_t i = 0;
    while (true) {
        const std::size_t l = 2 * i + 1;
        const std::size_t r = l + 1;
        std::size_t min = i;
        if (l < n && mshrFreeHeap[l] < mshrFreeHeap[min])
            min = l;
        if (r < n && mshrFreeHeap[r] < mshrFreeHeap[min])
            min = r;
        if (min == i)
            break;
        std::swap(mshrFreeHeap[i], mshrFreeHeap[min]);
        i = min;
    }

    const int idx = findPending(line_addr);
    if (idx >= 0) {
        // Re-allocation of a line whose previous miss completed but is
        // not drained yet: restart the entry in place, keeping its
        // allocation-order position (as overwriting the array slot
        // did).
        PendingMiss &m = pool[static_cast<std::size_t>(idx)];
        m.done = done;
        m.origin = origin;
        m.dirty = dirty;
        m.fromDram = from_dram;
    } else {
        if ((pendingCount + 1) * 2 > pendingSlots.size())
            growPendingIndex();
        std::int32_t slot;
        if (!freeSlots.empty()) {
            slot = freeSlots.back();
            freeSlots.pop_back();
        } else {
            slot = static_cast<std::int32_t>(pool.size());
            pool.emplace_back();
        }
        pool[static_cast<std::size_t>(slot)] = {
            line_addr, done, origin, dirty, from_dram, pendingTail, -1};
        if (pendingTail >= 0)
            pool[static_cast<std::size_t>(pendingTail)].next = slot;
        else
            pendingHead = slot;
        pendingTail = slot;
        pendingCount++;
        indexPending(line_addr, slot);
    }
    if (done < earliestDone)
        earliestDone = done;
}

void
Cache::setPendingFill(Addr line_addr, PrefetchOrigin origin, bool dirty,
                      bool from_dram)
{
    const int idx = findPending(line_addr);
    if (idx < 0)
        panic("Cache '%s': setPendingFill on non-outstanding line",
              p.name.c_str());
    PendingMiss &m = pool[static_cast<std::size_t>(idx)];
    m.origin = origin;
    m.dirty = m.dirty || dirty;
    m.fromDram = from_dram;
}

PrefetchOrigin
Cache::pendingOrigin(Addr line_addr) const
{
    const int idx = findPending(line_addr);
    return idx < 0 ? PrefetchOrigin::None
                   : pool[static_cast<std::size_t>(idx)].origin;
}

void
Cache::convertPendingToDemand(Addr line_addr)
{
    const int idx = findPending(line_addr);
    if (idx < 0)
        return;
    PendingMiss &m = pool[static_cast<std::size_t>(idx)];
    if (m.origin == PrefetchOrigin::None)
        return;
    prefetchFirstUse[static_cast<unsigned>(m.origin)]++;
    prefetchOutcomes++;
    m.origin = PrefetchOrigin::None;
}

bool
Cache::pendingFromDram(Addr line_addr) const
{
    const int idx = findPending(line_addr);
    return idx >= 0 && pool[static_cast<std::size_t>(idx)].fromDram;
}

void
Cache::markPrefetchUsed(Addr line_addr)
{
    const unsigned set = setIndex(line_addr);
    Line *base = &lines[static_cast<std::size_t>(set) * p.assoc];
    for (unsigned w = 0; w < p.assoc; w++) {
        Line &line = base[w];
        if (line.valid && line.tag == line_addr) {
            if (line.origin != PrefetchOrigin::None && !line.prefUsed) {
                line.prefUsed = true;
                prefetchFirstUse[static_cast<unsigned>(line.origin)]++;
                prefetchOutcomes++;
            }
            return;
        }
    }
}

} // namespace svr
