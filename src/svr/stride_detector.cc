#include "svr/stride_detector.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>

#include "common/logging.hh"

namespace svr
{

StrideDetector::StrideDetector(const StrideDetectorParams &params) : p(params)
{
    if (p.entries == 0)
        fatal("StrideDetector: need at least one entry");
    table.resize(p.entries);
    const std::size_t cap = std::bit_ceil<std::size_t>(
        std::max<std::size_t>(16, 2 * p.entries));
    pcHint.assign(cap, 0);
    pcHintMask = cap - 1;
}

StrideEntry *
StrideDetector::scan(Addr pc)
{
    for (std::size_t i = 0; i < table.size(); i++) {
        if (table[i].valid && table[i].pc == pc) {
            pcHint[hintSlot(pc)] = static_cast<std::uint32_t>(i);
            return &table[i];
        }
    }
    return nullptr;
}

StrideObservation
StrideDetector::observe(Addr pc, Addr addr)
{
    StrideObservation obs;
    StrideEntry *entry = find(pc);
    if (!entry) {
        // Last invalid slot, else the LRU one (valid stamps are unique).
        StrideEntry *victim = &table[0];
        for (auto &e : table) {
            if (!e.valid || e.lastUse < victim->lastUse)
                victim = &e;
        }
        *victim = StrideEntry{};
        victim->pc = pc;
        victim->valid = true;
        victim->prevAddress = addr;
        victim->lastUse = ++useClock;
        pcHint[hintSlot(pc)] =
            static_cast<std::uint32_t>(victim - table.data());
        obs.entry = victim;
        return obs;
    }
    entry->lastUse = ++useClock;
    obs.entry = entry;

    // Waiting-mode range check *before* updating Previous Address: a
    // load cannot retrigger while its address lies between the range
    // start and Last Prefetch covered by the previous round.
    if (entry->hasLastPrefetch) {
        const Addr lo = entry->stride >= 0 ? entry->prevAddress
                                           : entry->lastPrefetch;
        const Addr hi = entry->stride >= 0 ? entry->lastPrefetch
                                           : entry->prevAddress;
        obs.inWaitRange = addr >= lo && addr <= hi;
        if (!obs.inWaitRange)
            entry->hasLastPrefetch = false; // leave waiting mode
    }

    const auto delta = static_cast<std::int64_t>(addr) -
                       static_cast<std::int64_t>(entry->prevAddress);
    if (delta == entry->stride && delta != 0) {
        obs.matched = true;
        if (entry->satCounter < 3)
            entry->satCounter++;
    } else {
        if (entry->satCounter > 0)
            entry->satCounter--;
        if (entry->satCounter == 0)
            entry->stride = delta;
    }
    entry->prevAddress = addr;

    obs.isStriding = entry->satCounter >= p.confidenceThreshold &&
                     entry->stride != 0 &&
                     std::llabs(entry->stride) <= p.maxStride;
    return obs;
}

void
StrideDetector::clearSeenExcept(Addr except_pc)
{
    for (auto &e : table) {
        if (e.valid && e.pc != except_pc)
            e.seen = false;
    }
}

void
StrideDetector::resetUselessness()
{
    for (auto &e : table) {
        if (e.valid)
            e.uselessRounds = 0;
    }
}

void
StrideDetector::reset()
{
    for (auto &e : table)
        e = StrideEntry{};
    useClock = 0;
}

void
StrideDetector::importEntries(const std::vector<StrideEntry> &entries,
                              std::uint64_t clock)
{
    for (std::size_t i = 0; i < table.size(); i++)
        table[i] = i < entries.size() ? entries[i] : StrideEntry{};
    useClock = clock;
}

} // namespace svr
