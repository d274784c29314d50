/**
 * @file
 * The Scalar Vector Runahead engine (the paper's contribution).
 *
 * Attached to the in-order core's issue stage, the engine watches the
 * real instruction stream. When a confident striding load issues (and
 * its address is outside the waiting-mode range), the core enters
 * piggyback runahead mode (PRM): the Scalar Vector Unit (SVU) creates
 * N transient scalar copies of the load at future stride addresses,
 * taints the destination register, and thereafter replicates every
 * instruction that reads a tainted register — per lane, with lane
 * values held in the Speculative Register File. Lane loads prefetch
 * into the L1D (tagged), lane branches mask diverging lanes, and the
 * round ends when the head striding load recurs, the LIL is passed,
 * or a 256-instruction timeout fires. Waiting mode (the Last Prefetch
 * range) suppresses redundant rounds; loop-bound prediction (EWMA /
 * LBD / CV-scavenging / tournament) throttles N; an L1-prefetch-tag
 * accuracy governor can ban triggering entirely.
 */

#ifndef SVR_SVR_SVR_ENGINE_HH
#define SVR_SVR_SVR_ENGINE_HH

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/types.hh"
#include "core/executor.hh"
#include "core/runahead_iface.hh"
#include "mem/memory_system.hh"
#include "svr/loop_bound.hh"
#include "svr/srf.hh"
#include "svr/stride_detector.hh"
#include "svr/taint_tracker.hh"

namespace svr
{

/** SVR configuration knobs (defaults = the paper's SVR-16). */
struct SvrParams
{
    unsigned vectorLength = 16;     //!< N: scalars per scalar-vector
    unsigned numSrfRegs = 8;        //!< K: speculative registers
    unsigned svuWidth = 1;          //!< scalars through execute per cycle
    unsigned prmTimeout = 256;      //!< instruction timeout per round
    StrideDetectorParams stride;
    LoopBoundParams loopBoundTable;
    LoopBoundMode loopBound = LoopBoundMode::Tournament;
    SrfRecycle recycle = SrfRecycle::LruRecycle;

    bool waitingMode = true;        //!< section VI-D ablation
    bool accuracyGovernor = true;   //!< section IV-A7
    /**
     * Suppress triggering at PCs whose rounds repeatedly generate no
     * dependent-load misses (regular code with "no appropriate loops
     * to vectorize", Figure 14); re-enabled at each governor reset.
     */
    bool chainUtilityGate = true;
    unsigned uselessRoundLimit = 6; //!< score at which triggering stops
    unsigned uselessRoundMax = 8;   //!< score ceiling
    unsigned usefulRoundCredit = 2; //!< score drop per useful round
    double governorThreshold = 0.5;
    std::uint64_t governorWarmup = 100;
    std::uint64_t governorResetInterval = 1000000;

    /** Model DVR-style full register-file copy at round start. */
    bool modelRegisterCopyCost = false;
    unsigned registerCopyCycles = 11; //!< 32 regs / 3 write ports

    /**
     * EXPERIMENTAL (paper future work, section VI-D): when the
     * current HSLR's chain is fully covered by waiting mode, let an
     * outer striding load claim a round for its own chain (a cheap
     * in-order approximation of DVR's two-dimensional nesting for
     * queue-based kernels like BFS/BC/SSSP).
     */
    bool nestedRunahead = false;

    /** Record an event log (tests/debugging; off for bench runs). */
    bool enableEventLog = false;
    std::size_t eventLogCapacity = 4096;

    /**
     * Record the per-PC chain log (SvrEngine::chainLog()) for
     * static-vs-dynamic cross-validation. Only honored in
     * SVR_ARCHCHECK builds; Release compiles the recording out
     * entirely so bench runs stay untouched.
     */
    bool recordChains = false;
};

/**
 * What the hardware actually identified for one trigger PC across a
 * run (SvrParams::recordChains). The cross-validation harness
 * (analysis/chain_xcheck.hh) checks each record against the static
 * ChainReport.
 */
struct DynChainRecord
{
    std::int64_t stride = 0;        //!< detector stride at the last round
    std::uint64_t rounds = 0;       //!< PRM rounds triggered here
    std::uint64_t extraRounds = 0;  //!< extra-chain activations here
    std::set<Addr> memberPcs;       //!< tainted chain-member PCs observed
    std::set<Addr> extraRootPcs;    //!< extra-chain roots inside rounds
};

/** Engine event kinds for the optional event log (tests/debugging). */
enum class SvrEventKind : std::uint8_t
{
    Trigger,       //!< entered piggyback runahead mode
    Terminate,     //!< round closed at the HSLR recurrence
    Timeout,       //!< round closed by the 256-instruction timeout
    NestedAbort,   //!< round aborted: inner loop detected (Fig 9 top)
    ExtraChain,    //!< second chain vectorized (unrolled, Fig 9 middle)
    Retarget,      //!< independent-loop retarget (Fig 9 bottom)
    WaitSuppress,  //!< trigger blocked by waiting mode
    GovernorBan,   //!< accuracy governor banned triggering
};

/** One logged engine event. */
struct SvrEvent
{
    SvrEventKind kind;
    Addr pc;        //!< the load PC involved
    Cycle cycle;    //!< issue cycle of the causing instruction
    unsigned lanes; //!< round lanes (Trigger/ExtraChain), else 0
};

/** Per-run SVR-internal statistics. */
struct SvrEngineStats
{
    std::uint64_t rounds = 0;          //!< PRM rounds entered
    std::uint64_t roundsAborted = 0;   //!< nested-loop retargets
    std::uint64_t timeouts = 0;        //!< 256-instruction timeouts
    std::uint64_t lilStops = 0;        //!< rounds cut at the LIL
    std::uint64_t scalars = 0;         //!< transient scalars executed
    std::uint64_t prefetches = 0;      //!< lane memory prefetches issued
    std::uint64_t maskedLanes = 0;     //!< lanes masked by divergence
    std::uint64_t governorBans = 0;    //!< times the governor banned SVR
    std::uint64_t waitSuppressed = 0;  //!< triggers blocked by waiting mode
    std::uint64_t extraChains = 0;     //!< unrolled-loop secondary chains
    std::uint64_t retargets = 0;       //!< independent-loop retargets
    std::uint64_t lanesIssued = 0;     //!< sum of per-round vector lengths
    std::uint64_t uselessSuppressed = 0; //!< triggers gated by utility
    std::uint64_t nestedRounds = 0;    //!< outer-chain rounds (nesting)
    std::map<Addr, std::uint64_t> roundsByPc; //!< trigger-PC histogram
};

/**
 * Persistent (cross-run) SVR predictor state: the stride-detector
 * SRAM plus the accuracy-governor ban flag. This is what survives a
 * sampled-simulation window boundary — transient round state (PRM,
 * masks, SRF) never does; an engine that imports a snapshot starts
 * outside a round, exactly like hardware resuming from a context
 * switch.
 */
struct SvrEngineSnapshot
{
    std::vector<StrideEntry> strideEntries;
    std::uint64_t strideClock = 0;
    bool governorBanned = false;
};

/**
 * The SVR engine. One instance per simulated SVR core; owns all the
 * new SRAM structures from Figure 5.
 */
class SvrEngine : public RunaheadEngine
{
  public:
    /**
     * @param params  configuration
     * @param memory  the timing memory hierarchy (prefetch target)
     * @param exec    the executor (functional lane values + register
     *                scavenging for loop bounds)
     */
    SvrEngine(const SvrParams &params, MemorySystem &memory, Executor &exec);

    Cycle onIssue(const DynInst &dyn, Cycle issue_cycle) override;
    void reset() override;
    std::uint64_t transientScalars() const override { return st.scalars; }
    std::uint64_t prefetchesIssued() const override { return st.prefetches; }
    std::uint64_t runaheadRounds() const override { return st.rounds; }

    /** Engine-internal statistics. */
    const SvrEngineStats &stats() const { return st; }

    /** True while in piggyback runahead mode (for tests). */
    bool inRunahead() const { return prmActive; }

    /** True while the accuracy governor has SVR banned (for tests). */
    bool governorBanned() const { return banned; }

    /** Loop-bound predictor access (for tests). */
    const LoopBoundPredictor &loopBound() const { return lbp; }

    /** Taint tracker access (for tests). */
    const TaintTracker &taintTracker() const { return taint; }

    /**
     * Current divergence mask (for tests/ArchCheck): mask[lane] is
     * false once branch divergence masked the lane off. Meaningful
     * only while inRunahead(); lanes may only be cleared within a
     * round, never set.
     */
    const std::vector<bool> &laneMask() const { return mask; }

    /** Effective vector length of the current round (for ArchCheck). */
    unsigned currentRoundLanes() const { return roundLanes; }

    /** Event log (empty unless SvrParams::enableEventLog). */
    const std::vector<SvrEvent> &eventLog() const { return events; }

    /**
     * Per-trigger-PC chain log (empty unless SvrParams::recordChains
     * and SVR_ARCHCHECK_ENABLED). Deterministically ordered by PC.
     */
    const std::map<Addr, DynChainRecord> &chainLog() const
    {
        return chains;
    }

    /** Snapshot the persistent predictor state (see SvrEngineSnapshot). */
    SvrEngineSnapshot exportState() const;

    /**
     * Restore predictor state exported by exportState(). Only valid on
     * an engine that is not mid-round; statistics are unaffected.
     */
    void importState(const SvrEngineSnapshot &snapshot);

  private:
    /**
     * Enter PRM triggered by striding load @p dyn. Callers check
     * utilityGated() first.
     */
    Cycle triggerRound(const DynInst &dyn, const StrideEntry &entry,
                       Cycle issue_cycle);
    /** Generate the trigger load's N scalar copies. */
    void generateTriggerCopies(const DynInst &dyn, std::int64_t stride,
                               Cycle issue_cycle);
    /** Generate lane copies for a dependent (tainted-input) instr. */
    void generateDependentCopies(const DynInst &dyn, Cycle issue_cycle);
    /** Leave PRM (head load recurred / LIL passed / timeout). */
    void terminateRound(bool timed_out, Cycle cycle);
    /** Handle compare/branch bookkeeping (LC, LBD training, masks). */
    void observeControl(const DynInst &dyn);
    /** Accuracy-governor update; returns true when banned. */
    void updateGovernor();
    /** True when the chain-utility gate keeps @p e from triggering. */
    bool
    utilityGated(const StrideEntry &e) const
    {
        return p.chainUtilityGate && e.uselessRounds >= p.uselessRoundLimit;
    }
    /** Set @p e's Seen bit (all engine writes of Seen go through here). */
    void markSeen(StrideEntry &e);
    /** Clear every Seen bit but @p pc's, unless none other can be set. */
    void clearSeenExcept(Addr pc);
    /** SVU occupancy: schedule @p copies scalar issues from @p from. */
    Cycle svuSchedule(unsigned copies, Cycle from);
    /** Append to the event log when enabled. */
    void logEvent(SvrEventKind kind, Addr pc, Cycle cycle,
                  unsigned lanes = 0);

    SvrParams p;
    MemorySystem &mem;
    Executor &exec;

    StrideDetector sd;
    Srf srf;
    TaintTracker taint;
    LoopBoundPredictor lbp;

    /**
     * While seenOnlyValid, no valid stride entry other than
     * seenOnlyPc's has its Seen bit set, so clearSeenExcept(seenOnlyPc)
     * has nothing to clear. Seen bits are only set by markSeen() and
     * only cleared elsewhere (clears and entry replacement), so the
     * claim stays true until markSeen() sets another PC's bit.
     */
    bool seenOnlyValid = false;
    Addr seenOnlyPc = 0;

    // Head striding-load register + divergence mask (Figure 7).
    bool hslrValid = false;
    Addr hslrPc = 0;
    std::vector<bool> mask;

    // Round state.
    bool prmActive = false;
    unsigned roundLanes = 0;        //!< effective N for this round
    std::uint64_t prmInstrCount = 0;
    std::uint16_t roundLastIndirect = 0; //!< LIL candidate (16-bit PC)
    bool roundSawIndirect = false;
    std::uint64_t roundDependentMisses = 0; //!< chain-utility evidence
    bool lilStopped = false;        //!< stopped vectorizing at the LIL
    bool flagsLaneValid = false;    //!< lane flags produced by a compare
    std::vector<Flags> laneFlags;

    // Last Compare register (Figure 5).
    LcRegister lc;

    // SVU port occupancy.
    Cycle svuFreeAt = 0;

    // Accuracy governor.
    bool banned = false;
    std::uint64_t instrsSinceGovernorReset = 0;
    std::uint64_t governorUsefulBase = 0;
    std::uint64_t governorUnusedBase = 0;
    /**
     * mem.llcPrefOutcomes() when the governor last evaluated. Its two
     * counters only move when that does, so an equal value means the
     * same verdict as last time. governorStale forces a re-evaluation
     * after the bases or the ban change outside updateGovernor().
     */
    std::uint64_t governorOutcomesSeen = governorStale;
    static constexpr std::uint64_t governorStale = ~std::uint64_t{0};

    SvrEngineStats st;
    std::vector<SvrEvent> events;
    std::map<Addr, DynChainRecord> chains;

    /** Record a chain member observed inside the current round. */
    void recordChainMember(Addr pc);
};

} // namespace svr

#endif // SVR_SVR_SVR_ENGINE_HH
