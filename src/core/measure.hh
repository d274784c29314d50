/**
 * @file
 * Measurement windowing for the timing cores: run warmup instructions
 * through full detailed timing, then rebaseline the returned stats so
 * only the instructions after the warmup are counted. The sampled
 * simulator (sim/sampled_sim.hh) uses this to warm caches, branch
 * predictors, TLBs, and the SVR engine before each timing sample.
 */

#ifndef SVR_CORE_MEASURE_HH
#define SVR_CORE_MEASURE_HH

#include <cstdint>
#include <functional>

#include "core/core_stats.hh"
#include "sim/stat_table.hh"

namespace svr
{

/**
 * Optional measurement window for one core run. The core commits
 * @p warmupInstrs instructions with full timing first (warming every
 * microarchitectural structure in the machine), then fires
 * @p onMeasureStart exactly once and rebaselines: the CoreStats it
 * returns cover only the instructions committed after the warmup.
 * Cycle numbering stays continuous across the boundary, so in-flight
 * state (scoreboard ready times, MSHRs, DRAM queues) carries over
 * exactly as in an unwindowed run.
 */
struct MeasureWindow
{
    /** Committed instructions excluded from the returned stats. */
    std::uint64_t warmupInstrs = 0;

    /**
     * Fired once, right after the warmup's last instruction fully
     * committed (including its memory-system accesses), so callers can
     * snapshot memory-side counters at the measurement boundary.
     */
    std::function<void()> onMeasureStart;
};

/**
 * Rebaseline @p stats against the warmup-boundary snapshot @p base:
 * every SVR_CORE_COUNTERS row becomes (end - boundary), but cycles are
 * measured from @p base_cycles (the cycle count at the boundary, from
 * the core's end-of-run formula), saturating at 0. Shared by both cores.
 */
inline void
subtractBaseline(CoreStats &stats, const CoreStats &base, Cycle base_cycles)
{
    const Cycle end_cycles = stats.cycles;
#define SVR_SUBTRACT(field) stats.field -= base.field;
    SVR_CORE_COUNTERS(SVR_SUBTRACT)
#undef SVR_SUBTRACT
    stats.cycles = end_cycles > base_cycles ? end_cycles - base_cycles : 0;
}

} // namespace svr

#endif // SVR_CORE_MEASURE_HH
