/**
 * @file
 * SVR's stride detector: a reference-prediction table indexed by load
 * PC (paper Figure 6). Identifies striding loads, implements waiting
 * mode via the Last Prefetch field, tracks inner loops via the Seen
 * bit, and remembers the last indirect load (LIL) of each chain.
 */

#ifndef SVR_SVR_STRIDE_DETECTOR_HH
#define SVR_SVR_STRIDE_DETECTOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace svr
{

/** One stride-detector entry (Figure 6). */
struct StrideEntry
{
    Addr pc = 0;
    bool valid = false;
    Addr prevAddress = 0;
    std::int64_t stride = 0;
    unsigned satCounter = 0;       //!< 2-bit confidence
    Addr lastPrefetch = 0;         //!< end of the range covered last round
    bool hasLastPrefetch = false;  //!< waiting-mode range is armed
    bool seen = false;             //!< for nested/independent loop handling
    std::uint16_t lil = 0;         //!< 16 LSBs of the last indirect load PC
    unsigned lilConfidence = 0;    //!< 2-bit confidence in the LIL
    bool hasLil = false;
    /**
     * Chain-utility score: rounds at this PC with no dependent-load
     * misses ("no appropriate loop to vectorize", Figure 14) raise it
     * by 1; useful rounds lower it by 2. When it saturates high, the
     * PC stops triggering runahead until the periodic governor reset.
     * The asymmetric drift keeps divergent chains (where the real
     * path frequently skips the indirect load) from being banned.
     */
    unsigned uselessRounds = 0;
    std::uint64_t lastUse = 0;     //!< LRU state
};

/** Outcome of observing one load at the detector. */
struct StrideObservation
{
    StrideEntry *entry = nullptr;
    bool matched = false;   //!< address == previous + stride
    bool isStriding = false; //!< confidence at threshold with valid stride
    bool inWaitRange = false; //!< address inside [prev, lastPrefetch]
};

/** Stride-detector parameters (Table II: 32 entries, 8-bit stride). */
struct StrideDetectorParams
{
    unsigned entries = 32;
    unsigned confidenceThreshold = 2;
    std::int64_t maxStride = 127; //!< 8-bit signed stride field
};

/**
 * Fully associative, LRU-replaced stride detector. observe() performs
 * the per-load lookup/update; the engine reads the resulting entry to
 * decide whether to trigger piggyback runahead mode.
 *
 * Lookups go through a small PC-hashed hint array naming the slot
 * where the PC was last found or installed. A hint is only trusted
 * after checking that slot's valid bit and PC, so a stale hint (an
 * evicted, reset or imported table) just falls back to the scan, which
 * also picks the victim on a miss; results are those of a plain scan.
 */
class StrideDetector
{
  public:
    explicit StrideDetector(const StrideDetectorParams &params);

    /**
     * Observe a load at @p pc accessing @p addr. Updates the entry's
     * stride/confidence and reports whether it is a striding load and
     * whether the address falls inside the waiting-mode range.
     */
    StrideObservation observe(Addr pc, Addr addr);

    /** Find an entry without modifying it (nullptr if absent). */
    StrideEntry *
    find(Addr pc)
    {
        StrideEntry &hinted = table[pcHint[hintSlot(pc)]];
        if (hinted.valid && hinted.pc == pc)
            return &hinted;
        return scan(pc);
    }

    /** Clear all Seen bits except the one for @p except_pc. */
    void clearSeenExcept(Addr except_pc);

    /** Give useless-round-suppressed entries another chance. */
    void resetUselessness();

    /** Drop all entries. */
    void reset();

    /** Confidence threshold for "is striding". */
    unsigned confidenceThreshold() const { return p.confidenceThreshold; }

    // ---- Warm-state transfer (sampled-simulation windows) ----

    /** The full table, slot by slot (invalid entries included). */
    const std::vector<StrideEntry> &entries() const { return table; }

    /** Current LRU clock (monotone lastUse source). */
    std::uint64_t clock() const { return useClock; }

    /**
     * Replace the table with @p entries (excess slots cleared, excess
     * source entries dropped — only meaningful across equal-sized
     * detectors) and resume the LRU clock at @p clock.
     */
    void importEntries(const std::vector<StrideEntry> &entries,
                       std::uint64_t clock);

  private:
    /** Hint-array slot for @p pc. */
    std::size_t
    hintSlot(Addr pc) const
    {
        std::uint64_t h = pc * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 32;
        return static_cast<std::size_t>(h) & pcHintMask;
    }
    /** find() past a stale hint: scan, and re-point the hint. */
    StrideEntry *scan(Addr pc);

    StrideDetectorParams p;
    std::vector<StrideEntry> table;
    std::uint64_t useClock = 0;
    /** PC hash -> table slot last holding that PC (verified on use). */
    std::vector<std::uint32_t> pcHint;
    std::size_t pcHintMask = 0;
};

} // namespace svr

#endif // SVR_SVR_STRIDE_DETECTOR_HH
