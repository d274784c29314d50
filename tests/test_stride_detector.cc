/**
 * @file
 * Unit tests for SVR's stride detector: confidence training, waiting
 * mode ranges, Seen bits, stride limits, LRU replacement, and a
 * differential check of the PC-hinted lookup against a plain scan.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/rng.hh"
#include "svr/stride_detector.hh"

namespace svr
{
namespace
{

StrideDetectorParams
params(unsigned entries = 32)
{
    StrideDetectorParams p;
    p.entries = entries;
    return p;
}

TEST(StrideDetector, DetectsConstantStride)
{
    StrideDetector sd(params());
    StrideObservation obs;
    for (int i = 0; i < 4; i++)
        obs = sd.observe(0x400, 0x1000 + i * 8);
    EXPECT_TRUE(obs.isStriding);
    EXPECT_TRUE(obs.matched);
    EXPECT_EQ(obs.entry->stride, 8);
}

TEST(StrideDetector, NeedsConfidence)
{
    StrideDetector sd(params());
    sd.observe(0x400, 0x1000);
    const StrideObservation obs = sd.observe(0x400, 0x1008);
    // One delta observed: stride recorded but confidence too low.
    EXPECT_FALSE(obs.isStriding);
}

TEST(StrideDetector, NegativeStride)
{
    StrideDetector sd(params());
    StrideObservation obs;
    for (int i = 0; i < 4; i++)
        obs = sd.observe(0x400, 0x8000 - i * 4);
    EXPECT_TRUE(obs.isStriding);
    EXPECT_EQ(obs.entry->stride, -4);
}

TEST(StrideDetector, LargeStrideRejected)
{
    StrideDetector sd(params());
    StrideObservation obs;
    for (int i = 0; i < 6; i++)
        obs = sd.observe(0x400, 0x1000 + i * 4096);
    // Stride 4096 exceeds the 8-bit stride field (Table II).
    EXPECT_FALSE(obs.isStriding);
}

TEST(StrideDetector, RandomAddressesNeverStride)
{
    StrideDetector sd(params());
    const Addr addrs[] = {0x1000, 0x9230, 0x4418, 0xff00, 0x0140};
    StrideObservation obs;
    for (Addr a : addrs)
        obs = sd.observe(0x400, a);
    EXPECT_FALSE(obs.isStriding);
}

TEST(StrideDetector, WaitRangePositiveStride)
{
    StrideDetector sd(params());
    for (int i = 0; i < 4; i++)
        sd.observe(0x400, 0x1000 + i * 8);
    StrideEntry *e = sd.find(0x400);
    ASSERT_NE(e, nullptr);
    // Simulate a runahead round covering 16 elements ahead.
    e->lastPrefetch = 0x1018 + 16 * 8;
    e->hasLastPrefetch = true;
    // Next accesses inside the range report waiting.
    StrideObservation obs = sd.observe(0x400, 0x1020);
    EXPECT_TRUE(obs.inWaitRange);
    obs = sd.observe(0x400, 0x1018 + 16 * 8);
    EXPECT_TRUE(obs.inWaitRange);
    // First access beyond Last Prefetch leaves waiting mode.
    obs = sd.observe(0x400, 0x1018 + 17 * 8);
    EXPECT_FALSE(obs.inWaitRange);
    EXPECT_FALSE(e->hasLastPrefetch);
}

TEST(StrideDetector, WaitRangeDiscontinuityExitsEarly)
{
    // A jump far away (new loop instance) must escape waiting mode
    // even though the covered range was not consumed (footnote 3).
    StrideDetector sd(params());
    for (int i = 0; i < 4; i++)
        sd.observe(0x400, 0x1000 + i * 8);
    StrideEntry *e = sd.find(0x400);
    e->lastPrefetch = 0x2000;
    e->hasLastPrefetch = true;
    const StrideObservation obs = sd.observe(0x400, 0x90000);
    EXPECT_FALSE(obs.inWaitRange);
}

TEST(StrideDetector, WaitRangeNegativeStride)
{
    StrideDetector sd(params());
    for (int i = 0; i < 4; i++)
        sd.observe(0x400, 0x8000 - i * 8);
    StrideEntry *e = sd.find(0x400);
    e->lastPrefetch = 0x8000 - 20 * 8;
    e->hasLastPrefetch = true;
    StrideObservation obs = sd.observe(0x400, 0x8000 - 5 * 8);
    EXPECT_TRUE(obs.inWaitRange);
    obs = sd.observe(0x400, 0x8000 - 21 * 8);
    EXPECT_FALSE(obs.inWaitRange);
}

TEST(StrideDetector, SeenBitsClearedExcept)
{
    StrideDetector sd(params());
    sd.observe(0x400, 0x1000);
    sd.observe(0x500, 0x2000);
    sd.observe(0x600, 0x3000);
    sd.find(0x400)->seen = true;
    sd.find(0x500)->seen = true;
    sd.find(0x600)->seen = true;
    sd.clearSeenExcept(0x500);
    EXPECT_FALSE(sd.find(0x400)->seen);
    EXPECT_TRUE(sd.find(0x500)->seen);
    EXPECT_FALSE(sd.find(0x600)->seen);
}

TEST(StrideDetector, LruEviction)
{
    StrideDetector sd(params(2));
    sd.observe(0x400, 0x1000);
    sd.observe(0x500, 0x2000);
    sd.observe(0x400, 0x1008); // refresh 0x400
    sd.observe(0x600, 0x3000); // evicts 0x500
    EXPECT_NE(sd.find(0x400), nullptr);
    EXPECT_EQ(sd.find(0x500), nullptr);
    EXPECT_NE(sd.find(0x600), nullptr);
}

TEST(StrideDetector, ConfidenceDecaysOnMismatch)
{
    StrideDetector sd(params());
    for (int i = 0; i < 4; i++)
        sd.observe(0x400, 0x1000 + i * 8);
    // Break the pattern repeatedly.
    sd.observe(0x400, 0x9000);
    sd.observe(0x400, 0xa000);
    sd.observe(0x400, 0xb500);
    const StrideObservation obs = sd.observe(0x400, 0xc000);
    EXPECT_FALSE(obs.isStriding);
}

TEST(StrideDetector, UselessnessResets)
{
    StrideDetector sd(params());
    sd.observe(0x400, 0x1000);
    sd.find(0x400)->uselessRounds = 8;
    sd.resetUselessness();
    EXPECT_EQ(sd.find(0x400)->uselessRounds, 0u);
}

TEST(StrideDetector, ResetDropsEntries)
{
    StrideDetector sd(params());
    sd.observe(0x400, 0x1000);
    sd.reset();
    EXPECT_EQ(sd.find(0x400), nullptr);
}

/**
 * Plain-scan stride detector: the table semantics StrideDetector must
 * keep, with every lookup a full scan of the table.
 */
struct ScanStrideDetector
{
    explicit ScanStrideDetector(const StrideDetectorParams &params)
        : p(params), table(params.entries)
    {
    }

    StrideEntry *
    find(Addr pc)
    {
        for (auto &e : table) {
            if (e.valid && e.pc == pc)
                return &e;
        }
        return nullptr;
    }

    StrideObservation
    observe(Addr pc, Addr addr)
    {
        StrideObservation obs;
        StrideEntry *entry = nullptr;
        StrideEntry *victim = &table[0];
        for (auto &e : table) {
            if (e.valid && e.pc == pc) {
                entry = &e;
                break;
            }
            if (!e.valid || e.lastUse < victim->lastUse)
                victim = &e;
        }
        if (!entry) {
            *victim = StrideEntry{};
            victim->pc = pc;
            victim->valid = true;
            victim->prevAddress = addr;
            victim->lastUse = ++clock;
            obs.entry = victim;
            return obs;
        }
        entry->lastUse = ++clock;
        obs.entry = entry;
        if (entry->hasLastPrefetch) {
            const Addr lo = entry->stride >= 0 ? entry->prevAddress
                                               : entry->lastPrefetch;
            const Addr hi = entry->stride >= 0 ? entry->lastPrefetch
                                               : entry->prevAddress;
            obs.inWaitRange = addr >= lo && addr <= hi;
            if (!obs.inWaitRange)
                entry->hasLastPrefetch = false;
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

    StrideDetectorParams p;
    std::vector<StrideEntry> table;
    std::uint64_t clock = 0;
};

void
expectEntryEq(const StrideEntry &x, const StrideEntry &y, std::size_t i)
{
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

/** Same slot (or both absent), compared relative to each table. */
void
expectSameSlot(const StrideDetector &fast, const StrideEntry *f,
               const ScanStrideDetector &ref, const StrideEntry *r)
{
    ASSERT_EQ(f == nullptr, r == nullptr);
    if (f) {
        ASSERT_EQ(f - fast.entries().data(), r - ref.table.data());
    }
}

/**
 * Random PC/address streams through StrideDetector and the plain scan:
 * more PCs than entries (evictions leave stale hints), striding and
 * random addresses, finds of present and absent PCs that then write
 * the found entry, Seen clears, uselessness resets, reset(), and
 * importEntries() of a table whose PCs sit in other slots than the
 * hints point at. Every observation, found slot, entry field and the
 * LRU clock must agree.
 */
TEST(StrideDetector, HintedLookupMatchesScan)
{
    for (unsigned entries : {32u, 4u, 1u}) {
        StrideDetector fast(params(entries));
        ScanStrideDetector ref(params(entries));
        Rng rng(entries);
        const unsigned num_pcs = entries + entries / 2 + 2;
        std::vector<Addr> next_addr(num_pcs);
        for (unsigned i = 0; i < num_pcs; i++)
            next_addr[i] = 0x100000 * (i + 1);
        for (unsigned step = 0; step < 40000; step++) {
            const unsigned op = static_cast<unsigned>(rng.nextBounded(100));
            const unsigned k = static_cast<unsigned>(rng.nextBounded(num_pcs));
            const Addr pc = 0x400 + 4 * k;
            if (op < 80) {
                Addr &a = next_addr[k];
                a = rng.nextBounded(8) == 0 ? a + rng.nextBounded(4096)
                                            : a + 8 * (k % 5) - 16;
                const StrideObservation f = fast.observe(pc, a);
                const StrideObservation r = ref.observe(pc, a);
                expectSameSlot(fast, f.entry, ref, r.entry);
                ASSERT_EQ(f.matched, r.matched) << "step " << step;
                ASSERT_EQ(f.isStriding, r.isStriding) << "step " << step;
                ASSERT_EQ(f.inWaitRange, r.inWaitRange) << "step " << step;
            } else if (op < 92) {
                // find() of a present or absent PC; write what it found
                // the way the engine does (Seen, waiting range, LIL).
                StrideEntry *f = fast.find(pc);
                StrideEntry *r = ref.find(pc);
                expectSameSlot(fast, f, ref, r);
                if (f && r) {
                    for (StrideEntry *e : {f, r}) {
                        e->seen = true;
                        e->lastPrefetch = e->prevAddress + 64;
                        e->hasLastPrefetch = true;
                        e->uselessRounds++;
                        e->lil = static_cast<std::uint16_t>(step);
                        e->hasLil = true;
                    }
                }
            } else if (op < 96) {
                fast.clearSeenExcept(pc);
                for (auto &e : ref.table) {
                    if (e.valid && e.pc != pc)
                        e.seen = false;
                }
            } else if (op < 98) {
                fast.resetUselessness();
                for (auto &e : ref.table) {
                    if (e.valid)
                        e.uselessRounds = 0;
                }
            } else if (op < 99) {
                // Rotate the table so every PC moves to another slot.
                std::vector<StrideEntry> moved = ref.table;
                const std::size_t shift = 1 + rng.nextBounded(entries);
                for (std::size_t i = 0; i < moved.size(); i++)
                    moved[i] = ref.table[(i + shift) % entries];
                fast.importEntries(moved, ref.clock + 5);
                ref.table = moved;
                ref.clock += 5;
            } else if (rng.nextBounded(4) == 0) {
                fast.reset();
                ref.table.assign(entries, StrideEntry{});
                ref.clock = 0;
            }
            if (step % 16 == 0 || op >= 92) {
                ASSERT_EQ(fast.clock(), ref.clock) << "step " << step;
                for (std::size_t i = 0; i < entries; i++)
                    expectEntryEq(fast.entries()[i], ref.table[i], i);
                if (HasFailure())
                    FAIL() << "entries differ at step " << step;
            }
        }
    }
}

TEST(StrideDetector, StaleHintAfterImportFallsBackToScan)
{
    StrideDetector sd(params(4));
    sd.observe(0x400, 0x1000); // slot 3 (the last invalid slot)
    sd.observe(0x500, 0x2000); // slot 2
    std::vector<StrideEntry> swapped = sd.entries();
    std::swap(swapped[2], swapped[3]);
    sd.importEntries(swapped, sd.clock());
    ASSERT_NE(sd.find(0x400), nullptr);
    EXPECT_EQ(sd.find(0x400) - sd.entries().data(), 2);
    EXPECT_EQ(sd.find(0x500) - sd.entries().data(), 3);
    sd.reset();
    EXPECT_EQ(sd.find(0x400), nullptr);
    EXPECT_EQ(sd.observe(0x400, 0x1000).entry - sd.entries().data(), 3);
}

} // namespace
} // namespace svr
