/**
 * @file
 * Unit tests for the DRAM bandwidth-queue model and the translation
 * stack (TLBs + page-table walkers).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "mem/dram.hh"
#include "mem/tlb.hh"

namespace svr
{
namespace
{

TEST(Dram, IdleLatency)
{
    Dram d(DramParams{});
    // 45 ns at 2 GHz = 90 cycles.
    EXPECT_NEAR(d.latencyCycles(), 90.0, 0.01);
    const Cycle done = d.access(1000);
    EXPECT_NEAR(static_cast<double>(done), 1090.0, 2.0);
}

TEST(Dram, TransferOccupancy)
{
    // 50 GiB/s, 64 B lines, 2 GHz -> ~2.38 cycles per transfer.
    Dram d(DramParams{});
    EXPECT_NEAR(d.transferCycles(), 64.0 / (50.0 * 1.073741824) * 2.0,
                0.01);
}

TEST(Dram, BackToBackAccessesQueue)
{
    Dram d(DramParams{});
    const Cycle first = d.access(0);
    const Cycle second = d.access(0);
    const Cycle third = d.access(0);
    // Each successive access queues behind the channel.
    EXPECT_GT(second, first);
    EXPECT_GT(third, second);
    EXPECT_NEAR(static_cast<double>(second - first), d.transferCycles(),
                1.01);
}

TEST(Dram, LowerBandwidthQueuesLonger)
{
    DramParams slow;
    slow.bandwidthGiBps = 12.5;
    Dram fast(DramParams{}), queued(slow);
    Cycle f = 0, s = 0;
    for (int i = 0; i < 32; i++) {
        f = fast.access(0);
        s = queued.access(0);
    }
    EXPECT_GT(s, f);
}

TEST(Dram, WritebackConsumesBandwidthOnly)
{
    Dram d(DramParams{});
    d.writeback(0);
    const Cycle read = d.access(0);
    // The read queues behind the writeback transfer.
    EXPECT_GT(static_cast<double>(read), d.latencyCycles());
    EXPECT_EQ(d.transfers(), 2u);
}

TEST(Dram, ResetClearsQueue)
{
    Dram d(DramParams{});
    for (int i = 0; i < 100; i++)
        d.access(0);
    d.reset();
    EXPECT_EQ(d.transfers(), 0u);
    const Cycle done = d.access(0);
    EXPECT_NEAR(static_cast<double>(done), d.latencyCycles(), 2.0);
}

TEST(Tlb, HitAfterInsert)
{
    Tlb t(16, 16);
    EXPECT_FALSE(t.lookup(0x5000));
    t.insert(0x5000);
    EXPECT_TRUE(t.lookup(0x5abc)); // same page
    EXPECT_FALSE(t.lookup(0x9000));
    EXPECT_EQ(t.hits, 1u);
    EXPECT_EQ(t.misses, 2u);
}

TEST(Tlb, LruReplacementFullyAssociative)
{
    Tlb t(2, 2);
    t.insert(0x0000);
    t.insert(0x1000);
    t.lookup(0x0000); // page 0 most recently used
    t.insert(0x2000); // evicts page 1
    EXPECT_TRUE(t.lookup(0x0000));
    EXPECT_FALSE(t.lookup(0x1000));
    EXPECT_TRUE(t.lookup(0x2000));
}

TEST(Tlb, SetAssociativeIndexing)
{
    Tlb t(4, 2); // 2 sets x 2 ways
    // Pages 0 and 2 map to set 0; page 1 maps to set 1.
    t.insert(0x0000);
    t.insert(0x2000);
    t.insert(0x1000);
    EXPECT_TRUE(t.lookup(0x0000));
    EXPECT_TRUE(t.lookup(0x2000));
    EXPECT_TRUE(t.lookup(0x1000));
}

/**
 * Plain-scan TLB: every lookup compares all ways of the set, fills take
 * the first invalid way, else the least recently used one. Tlb must
 * behave exactly like it, whatever its MRU way remembers.
 */
class ScanTlb
{
  public:
    ScanTlb(unsigned entries, unsigned assoc)
        : assoc(assoc), numSets(entries / assoc), pages(entries),
          valid(entries, false), lastUse(entries, 0)
    {
    }

    bool
    lookup(Addr addr)
    {
        const Addr page = pageAlign(addr);
        const unsigned base = setOf(page) * assoc;
        for (unsigned w = 0; w < assoc; w++) {
            if (valid[base + w] && pages[base + w] == page) {
                lastUse[base + w] = ++clock;
                hits++;
                return true;
            }
        }
        misses++;
        return false;
    }

    void
    insert(Addr addr)
    {
        const Addr page = pageAlign(addr);
        const unsigned base = setOf(page) * assoc;
        unsigned victim = base;
        for (unsigned w = base; w < base + assoc; w++) {
            if (!valid[w]) {
                victim = w;
                break;
            }
            if (lastUse[w] < lastUse[victim])
                victim = w;
        }
        pages[victim] = page;
        valid[victim] = true;
        lastUse[victim] = ++clock;
    }

    void
    reset()
    {
        *this = ScanTlb(static_cast<unsigned>(pages.size()), assoc);
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    unsigned
    setOf(Addr page) const
    {
        return static_cast<unsigned>((page / pageBytes) & (numSets - 1));
    }

    unsigned assoc;
    unsigned numSets;
    std::vector<Addr> pages;
    std::vector<bool> valid;
    std::vector<std::uint64_t> lastUse;
    std::uint64_t clock = 0;
};

/**
 * Drive a random page stream (mostly repeats of recent pages, so the
 * MRU way hits, evicts and goes stale) through Tlb and ScanTlb with the
 * translate-style lookup-then-insert, resetting both now and then.
 * Every lookup must agree; every 64 steps, copies of both are probed on
 * every page of the universe, which compares the resident sets (and so
 * every victim chosen so far) without disturbing the originals.
 */
void
expectTlbMatchesScan(unsigned entries, unsigned assoc, unsigned universe,
                     std::uint64_t seed)
{
    Tlb fast(entries, assoc);
    ScanTlb ref(entries, assoc);
    Rng rng(seed);
    std::vector<Addr> recent(4, 0);
    for (unsigned step = 0; step < 20000; step++) {
        if (rng.nextBounded(2000) == 0) {
            fast.reset();
            ref.reset();
        }
        Addr page;
        if (rng.nextBounded(4) != 0)
            page = recent[rng.nextBounded(recent.size())];
        else
            page = rng.nextBounded(universe) * pageBytes;
        recent[step % recent.size()] = page;
        const Addr addr = page + rng.nextBounded(pageBytes);
        const bool hit = fast.lookup(addr);
        ASSERT_EQ(hit, ref.lookup(addr)) << "step " << step;
        if (!hit) {
            fast.insert(addr);
            ref.insert(addr);
        }
        if (step % 64 == 0) {
            Tlb fast_probe = fast;
            ScanTlb ref_probe = ref;
            for (unsigned q = 0; q < universe; q++) {
                ASSERT_EQ(fast_probe.lookup(q * pageBytes),
                          ref_probe.lookup(q * pageBytes))
                    << "step " << step << " page " << q;
            }
        }
    }
    EXPECT_EQ(fast.hits, ref.hits);
    EXPECT_EQ(fast.misses, ref.misses);
}

TEST(Tlb, MruFastPathMatchesScanFullyAssociative)
{
    // The D-TLB/I-TLB geometry (Table III) over more pages than fit.
    expectTlbMatchesScan(16, 16, 40, 1);
    expectTlbMatchesScan(2, 2, 5, 2);
}

TEST(Tlb, MruFastPathMatchesScanSetAssociative)
{
    // The S-TLB geometry, a small set-associative one and a
    // direct-mapped one (every fill there evicts within its set, so
    // the remembered way is overwritten under it).
    expectTlbMatchesScan(2048, 8, 4000, 3);
    expectTlbMatchesScan(16, 4, 48, 4);
    expectTlbMatchesScan(8, 1, 24, 5);
}

TEST(Tlb, MruWayEvictedThenRefilled)
{
    Tlb t(2, 1); // 2 sets x 1 way
    t.insert(0x0000);            // remembered way: set 0
    EXPECT_TRUE(t.lookup(0x0000));
    t.insert(0x2000);            // same set: overwrites page 0's way
    EXPECT_FALSE(t.lookup(0x0000));
    EXPECT_TRUE(t.lookup(0x2000));
    t.reset();
    EXPECT_FALSE(t.lookup(0x2000));
    EXPECT_EQ(t.hits, 0u);
    EXPECT_EQ(t.misses, 1u);
}

TEST(TranslationStack, FirstLevelHitIsFree)
{
    TranslationStack ts(TranslationParams{});
    ts.translateData(0x5000, 100); // walk + fills
    const Cycle done = ts.translateData(0x5008, 200);
    EXPECT_EQ(done, 200u); // D-TLB hit
}

TEST(TranslationStack, StlbHitCostsExtra)
{
    TranslationParams p;
    p.dtlbEntries = 1;
    TranslationStack ts(p);
    ts.translateData(0x5000, 0);
    ts.translateData(0x9000, 0); // evicts 0x5000 from the 1-entry D-TLB
    const Cycle done = ts.translateData(0x5000, 1000);
    EXPECT_EQ(done, 1000u + p.stlbHitLatency); // S-TLB hit
}

TEST(TranslationStack, WalkCostsWalkLatency)
{
    TranslationParams p;
    TranslationStack ts(p);
    const Cycle done = ts.translateData(0x5000, 1000);
    EXPECT_EQ(done, 1000u + p.stlbHitLatency + p.walkLatency);
    EXPECT_EQ(ts.walks, 1u);
}

TEST(TranslationStack, WalkerPoolSerializes)
{
    TranslationParams p;
    p.numWalkers = 1;
    TranslationStack ts(p);
    const Cycle a = ts.translateData(0x100000, 0);
    const Cycle b = ts.translateData(0x200000, 0);
    EXPECT_GE(b, a + p.walkLatency); // second walk queues behind
}

TEST(TranslationStack, MoreWalkersOverlap)
{
    TranslationParams p1;
    p1.numWalkers = 1;
    TranslationParams p4;
    p4.numWalkers = 4;
    TranslationStack one(p1), four(p4);
    Cycle last1 = 0, last4 = 0;
    for (int i = 0; i < 4; i++) {
        last1 = std::max(last1,
                         one.translateData(0x100000 + i * 0x1000, 0));
        last4 = std::max(last4,
                         four.translateData(0x100000 + i * 0x1000, 0));
    }
    EXPECT_GT(last1, last4);
}

TEST(TranslationStack, InstrSideSeparateFromDataSide)
{
    TranslationStack ts(TranslationParams{});
    ts.translateData(0x5000, 0);
    // The I-TLB has not seen this page; but the S-TLB has.
    const Cycle done = ts.translateInstr(0x5000, 100);
    EXPECT_EQ(done, 100u + TranslationParams{}.stlbHitLatency);
    EXPECT_EQ(ts.walks, 1u);
}

} // namespace
} // namespace svr
