#include "svr/svr_engine.hh"

#include <algorithm>

#include "common/logging.hh"

namespace svr
{

SvrEngine::SvrEngine(const SvrParams &params, MemorySystem &memory,
                     Executor &executor)
    : p(params),
      mem(memory),
      exec(executor),
      sd(params.stride),
      srf(params.numSrfRegs, params.vectorLength),
      taint(srf, params.recycle),
      lbp(params.loopBoundTable)
{
    if (p.vectorLength == 0 || p.svuWidth == 0)
        fatal("SvrEngine: vectorLength and svuWidth must be nonzero");
    mask.assign(p.vectorLength, false);
    laneFlags.assign(p.vectorLength, Flags{});
}

void
SvrEngine::recordChainMember(Addr pc)
{
#ifdef SVR_ARCHCHECK_ENABLED
    if (p.recordChains && hslrValid)
        chains[hslrPc].memberPcs.insert(pc);
#else
    (void)pc;
#endif
}

void
SvrEngine::reset()
{
    sd.reset();
    taint.clear();
    lbp.reset();
    seenOnlyValid = false;
    hslrValid = false;
    hslrPc = 0;
    prmActive = false;
    roundLanes = 0;
    prmInstrCount = 0;
    roundLastIndirect = 0;
    roundSawIndirect = false;
    roundDependentMisses = 0;
    lilStopped = false;
    flagsLaneValid = false;
    lc = LcRegister{};
    svuFreeAt = 0;
    banned = false;
    instrsSinceGovernorReset = 0;
    governorUsefulBase = 0;
    governorUnusedBase = 0;
    governorOutcomesSeen = governorStale;
    st = SvrEngineStats{};
    events.clear();
    chains.clear();
    std::fill(mask.begin(), mask.end(), false);
}

SvrEngineSnapshot
SvrEngine::exportState() const
{
    SvrEngineSnapshot snap;
    snap.strideEntries = sd.entries();
    snap.strideClock = sd.clock();
    snap.governorBanned = banned;
    return snap;
}

void
SvrEngine::importState(const SvrEngineSnapshot &snapshot)
{
    if (prmActive) {
        panic("SvrEngine::importState: engine is mid-round; predictor "
              "state can only be restored between rounds");
    }
    sd.importEntries(snapshot.strideEntries, snapshot.strideClock);
    seenOnlyValid = false;
    banned = snapshot.governorBanned;
    // The governor's accuracy window restarts against this engine's
    // (possibly fresh) memory system: re-anchor the counter bases.
    instrsSinceGovernorReset = 0;
    governorUsefulBase = mem.llcPrefFirstUse(PrefetchOrigin::Svr);
    governorUnusedBase = mem.llcPrefEvictedUnused(PrefetchOrigin::Svr);
    governorOutcomesSeen = governorStale;
}

Cycle
SvrEngine::svuSchedule(unsigned copies, Cycle from)
{
    const Cycle base = std::max(from, svuFreeAt);
    const Cycle done = base + (copies + p.svuWidth - 1) / p.svuWidth;
    svuFreeAt = done;
    return done;
}

void
SvrEngine::logEvent(SvrEventKind kind, Addr pc, Cycle cycle,
                    unsigned lanes)
{
    if (!p.enableEventLog || events.size() >= p.eventLogCapacity)
        return;
    events.push_back({kind, pc, cycle, lanes});
}

void
SvrEngine::markSeen(StrideEntry &e)
{
    e.seen = true;
    if (e.pc != seenOnlyPc)
        seenOnlyValid = false;
}

void
SvrEngine::clearSeenExcept(Addr pc)
{
    if (seenOnlyValid && pc == seenOnlyPc)
        return;
    sd.clearSeenExcept(pc);
    seenOnlyValid = true;
    seenOnlyPc = pc;
}

void
SvrEngine::updateGovernor()
{
    if (!p.accuracyGovernor || banned ||
        mem.llcPrefOutcomes() == governorOutcomesSeen)
        return;
    governorOutcomesSeen = mem.llcPrefOutcomes();
    const std::uint64_t useful =
        mem.llcPrefFirstUse(PrefetchOrigin::Svr) - governorUsefulBase;
    const std::uint64_t unused =
        mem.llcPrefEvictedUnused(PrefetchOrigin::Svr) - governorUnusedBase;
    if (useful + unused < p.governorWarmup)
        return;
    if (prefetchAccuracy(useful, unused) < p.governorThreshold) {
        banned = true;
        st.governorBans++;
        logEvent(SvrEventKind::GovernorBan, hslrPc, 0);
        if (prmActive)
            terminateRound(false, 0);
    }
}

void
SvrEngine::terminateRound(bool timed_out, Cycle cycle)
{
    if (!prmActive)
        return;
    prmActive = false;
    if (timed_out) {
        st.timeouts++;
        logEvent(SvrEventKind::Timeout, hslrPc, cycle);
    } else {
        logEvent(SvrEventKind::Terminate, hslrPc, cycle);
    }
    // Train the LIL (last indirect load) for the head striding load.
    if (StrideEntry *e = sd.find(hslrPc); e && roundSawIndirect) {
        if (e->hasLil && e->lil == roundLastIndirect) {
            if (e->lilConfidence < 3)
                e->lilConfidence++;
        } else if (e->lilConfidence > 0) {
            e->lilConfidence--;
        } else {
            e->lil = roundLastIndirect;
            e->lilConfidence = 1;
            e->hasLil = true;
        }
    }
    // Chain-utility tracking: rounds that produced no dependent-load
    // misses found nothing worth vectorizing at this PC.
    if (p.chainUtilityGate) {
        if (StrideEntry *e = sd.find(hslrPc)) {
            if (roundDependentMisses == 0) {
                if (e->uselessRounds < p.uselessRoundMax)
                    e->uselessRounds++;
            } else {
                e->uselessRounds =
                    e->uselessRounds > p.usefulRoundCredit
                        ? e->uselessRounds - p.usefulRoundCredit
                        : 0;
            }
        }
    }
    roundDependentMisses = 0;
    taint.clear();
    flagsLaneValid = false;
    lilStopped = false;
    roundSawIndirect = false;
}

void
SvrEngine::generateTriggerCopies(const DynInst &dyn, std::int64_t stride,
                                 Cycle issue_cycle)
{
    const Instruction &inst = *dyn.si;
    const unsigned srf_id = taint.taintAndMap(inst.rd, prmInstrCount);
    const Cycle base = std::max(issue_cycle, svuFreeAt);
    unsigned active = 0;
    for (unsigned k = 0; k < roundLanes; k++) {
        if (!mask[k])
            continue;
        const auto lane_addr = static_cast<Addr>(
            static_cast<std::int64_t>(dyn.addr) +
            stride * static_cast<std::int64_t>(k + 1));
        const Cycle slot = base + active / p.svuWidth;
        const AccessResult res =
            mem.access(AccessKind::PrefSvr, dyn.pc, lane_addr, slot);
        st.prefetches++;
        st.scalars++;
        active++;
        if (srf_id != invalidSrfReg) {
            const RegVal v = exec.memory().read(lane_addr, inst.memBytes());
            srf.setLane(srf_id, k, v, res.done);
        }
    }
    svuSchedule(active, issue_cycle);
}

Cycle
SvrEngine::triggerRound(const DynInst &dyn, const StrideEntry &entry,
                        Cycle issue_cycle)
{
    const auto reader = [this](RegId r) { return exec.readReg(r); };
    const unsigned lanes =
        lbp.predict(dyn.pc, p.vectorLength, p.loopBound, reader);
    if (lanes == 0) {
        // LbdWait: hold off until the loop-closing branch trains the
        // LBD. Arm the HSLR so that branch is recognized (DVR-style
        // discovery: observe one iteration, run ahead from the next).
        hslrValid = true;
        hslrPc = dyn.pc;
        return issue_cycle;
    }
    st.rounds++;
    st.roundsByPc[dyn.pc]++;
#ifdef SVR_ARCHCHECK_ENABLED
    if (p.recordChains) {
        DynChainRecord &rec = chains[dyn.pc];
        rec.stride = entry.stride;
        rec.rounds++;
    }
#endif
    logEvent(SvrEventKind::Trigger, dyn.pc, issue_cycle, lanes);
    prmActive = true;
    hslrValid = true;
    hslrPc = dyn.pc;
    roundLanes = std::min(lanes, p.vectorLength);
    st.lanesIssued += roundLanes;
    std::fill(mask.begin(), mask.end(), false);
    std::fill_n(mask.begin(), roundLanes, true);
    prmInstrCount = 0;
    roundSawIndirect = false;
    lilStopped = false;
    flagsLaneValid = false;
    taint.clear();
    clearSeenExcept(dyn.pc);
    if (StrideEntry *e = sd.find(dyn.pc)) {
        markSeen(*e);
        e->lastPrefetch = static_cast<Addr>(
            static_cast<std::int64_t>(dyn.addr) +
            entry.stride * static_cast<std::int64_t>(roundLanes));
        e->hasLastPrefetch = true;
    }
    generateTriggerCopies(dyn, entry.stride, issue_cycle);
    // Lockstep coupling: the next program instruction issues only after
    // all the striding load's scalar copies have issued.
    Cycle block =
        issue_cycle + (roundLanes + p.svuWidth - 1) / p.svuWidth;
    if (p.modelRegisterCopyCost)
        block += p.registerCopyCycles;
    return block;
}

void
SvrEngine::generateDependentCopies(const DynInst &dyn, Cycle issue_cycle)
{
    const Instruction &inst = *dyn.si;
    // Compares and branches are handled by observeControl().
    if (inst.isCompare() || inst.isControl() || inst.op == Opcode::Nop)
        return;

    const bool has_rs1 = inst.rs1 != invalidReg;
    bool rs2_is_source = false;
    for (RegId s : inst.sources()) {
        if (s != invalidReg && s == inst.rs2)
            rs2_is_source = true;
    }
    const bool t1 = has_rs1 && taint.tainted(inst.rs1);
    const bool t2 = rs2_is_source && taint.tainted(inst.rs2);
    const RegId dest = inst.writesIntReg() ? inst.rd : invalidReg;
    if (t1 || t2)
        recordChainMember(dyn.pc);

    if (!t1 && !t2) {
        // Not part of the indirect chain. If it overwrites a mapped
        // register, the taint is cleared and the SRF entry freed.
        if (dest != invalidReg && taint.tainted(dest))
            taint.untaint(dest);
        return;
    }

    // Chain member. If any tainted input lost its mapping (recycled),
    // we cannot compute lane values: propagate taint without a map.
    const bool m1 = !t1 || taint.taintedAndMapped(inst.rs1);
    const bool m2 = !t2 || taint.taintedAndMapped(inst.rs2);
    if (!m1 || !m2) {
        if (dest != invalidReg)
            taint.taintOnly(dest);
        return;
    }

    const unsigned id1 = t1 ? taint.srfId(inst.rs1) : invalidSrfReg;
    const unsigned id2 = t2 ? taint.srfId(inst.rs2) : invalidSrfReg;
    if (t1)
        taint.recordRead(inst.rs1, prmInstrCount);
    if (t2)
        taint.recordRead(inst.rs2, prmInstrCount);

    unsigned dst_id = invalidSrfReg;
    if (dest != invalidReg) {
        dst_id = taint.taintAndMap(dest, prmInstrCount);
        if (dst_id == invalidSrfReg) {
            taint.taintOnly(dest);
            // Loads still prefetch even without result storage; pure
            // ALU copies without a destination are pointless.
            if (!inst.isLoad())
                return;
        }
    }

    // LIL check: with a confident last-indirect-load recorded, stop
    // generating SVIs once we have vectorized past it.
    const StrideEntry *head = sd.find(hslrPc);
    const bool lil_confident = head && head->hasLil &&
                               head->lilConfidence >= 2;

    const Cycle base = std::max(issue_cycle, svuFreeAt);
    unsigned active = 0;
    for (unsigned k = 0; k < roundLanes; k++) {
        if (!mask[k])
            continue;
        const RegVal in1 = t1 ? srf.lane(id1, k) : dyn.src1;
        const RegVal in2 = t2 ? srf.lane(id2, k) : dyn.src2;
        Cycle ready_in = 0;
        if (t1)
            ready_in = std::max(ready_in, srf.laneReady(id1, k));
        if (t2)
            ready_in = std::max(ready_in, srf.laneReady(id2, k));
        const Cycle slot = base + active / p.svuWidth;
        const Cycle at = std::max(slot, ready_in);
        active++;
        st.scalars++;

        if (inst.isLoad()) {
            const Addr lane_addr = in1 + static_cast<Addr>(inst.imm);
            const AccessResult res =
                mem.access(AccessKind::PrefSvr, dyn.pc, lane_addr, at);
            st.prefetches++;
            if (res.level != HitLevel::L1)
                roundDependentMisses++;
            if (dst_id != invalidSrfReg) {
                const RegVal v =
                    exec.memory().read(lane_addr, inst.memBytes());
                srf.setLane(dst_id, k, v, res.done);
            }
        } else if (inst.isStore()) {
            // Transient stores cannot modify state; prefetch the target
            // line (tainted address) for the upcoming demand store.
            if (t1) {
                const Addr lane_addr = in1 + static_cast<Addr>(inst.imm);
                const AccessResult res =
                    mem.access(AccessKind::PrefSvr, dyn.pc, lane_addr, at);
                st.prefetches++;
                if (res.level != HitLevel::L1)
                    roundDependentMisses++;
            }
        } else {
            const RegVal v = evalAlu(inst, in1, in2);
            if (dst_id != invalidSrfReg)
                srf.setLane(dst_id, k, v, at + inst.execLatency());
        }
    }
    svuSchedule(active, issue_cycle);

    if (inst.isLoad()) {
        roundLastIndirect = static_cast<std::uint16_t>(dyn.pc & 0xffff);
        roundSawIndirect = true;
        if (lil_confident &&
            static_cast<std::uint16_t>(dyn.pc & 0xffff) == head->lil) {
            lilStopped = true;
            st.lilStops++;
        }
    }
}

void
SvrEngine::observeControl(const DynInst &dyn)
{
    const Instruction &inst = *dyn.si;
    if (inst.isCompare()) {
        // The Last Compare register tracks every compare's PC, operand
        // values and register ids (Figure 5).
        lc.valid = true;
        lc.pc = dyn.pc;
        lc.valA = dyn.src1;
        lc.regA = inst.rs1;
        if (inst.op == Opcode::Cmpi) {
            lc.valB = static_cast<RegVal>(inst.imm);
            lc.regB = invalidReg;
        } else {
            lc.valB = dyn.src2;
            lc.regB = inst.rs2;
        }
        if (prmActive) {
            const bool t1 = inst.rs1 != invalidReg &&
                            taint.tainted(inst.rs1);
            const bool t2 = inst.op != Opcode::Cmpi &&
                            inst.rs2 != invalidReg &&
                            taint.tainted(inst.rs2);
            const bool m1 = !t1 || taint.taintedAndMapped(inst.rs1);
            const bool m2 = !t2 || taint.taintedAndMapped(inst.rs2);
            if (t1 || t2)
                recordChainMember(dyn.pc);
            if ((t1 || t2) && m1 && m2 && !lilStopped) {
                // Lane compares feed lane branch outcomes for masking.
                const unsigned id1 = t1 ? taint.srfId(inst.rs1)
                                        : invalidSrfReg;
                const unsigned id2 = t2 ? taint.srfId(inst.rs2)
                                        : invalidSrfReg;
                for (unsigned k = 0; k < roundLanes; k++) {
                    if (!mask[k])
                        continue;
                    const RegVal in1 = t1 ? srf.lane(id1, k) : dyn.src1;
                    const RegVal in2 = t2 ? srf.lane(id2, k) : dyn.src2;
                    laneFlags[k] = evalCompare(inst, in1, in2);
                    st.scalars++;
                }
                flagsLaneValid = true;
            } else {
                // Flags overwritten by a non-chain (or unmappable)
                // compare: lanes no longer track the flags register.
                flagsLaneValid = false;
            }
        }
        return;
    }

    if (inst.isCondBranch()) {
        // LBD training: a backward conditional-taken branch targeting
        // at or before the HSLR load closes the loop around it.
        if (dyn.taken && hslrValid) {
            const auto target_idx = static_cast<std::uint64_t>(inst.imm);
            const std::uint64_t branch_idx = dyn.index;
            const std::uint64_t hslr_idx = Program::indexOf(hslrPc);
            if (target_idx < branch_idx && target_idx <= hslr_idx &&
                hslr_idx < branch_idx) {
                lbp.trainFromBranch(hslrPc, lc);
            }
        }
        // Divergence masking: lanes whose outcome differs from the real
        // path are masked off (SVR cannot follow other paths).
        if (prmActive && flagsLaneValid && !lilStopped) {
            recordChainMember(dyn.pc);
            for (unsigned k = 0; k < roundLanes; k++) {
                if (!mask[k])
                    continue;
                const bool lane_taken = evalCond(inst.op, laneFlags[k]);
                st.scalars++;
                if (lane_taken != dyn.taken) {
                    mask[k] = false;
                    st.maskedLanes++;
                }
            }
        }
    }
}

Cycle
SvrEngine::onIssue(const DynInst &dyn, Cycle issue_cycle)
{
    const Instruction &inst = *dyn.si;
    Cycle block_until = issue_cycle;

    // Accuracy-governor window: reset (and unban) every interval.
    instrsSinceGovernorReset++;
    if (p.accuracyGovernor &&
        instrsSinceGovernorReset >= p.governorResetInterval) {
        instrsSinceGovernorReset = 0;
        banned = false;
        governorUsefulBase = mem.llcPrefFirstUse(PrefetchOrigin::Svr);
        governorUnusedBase = mem.llcPrefEvictedUnused(PrefetchOrigin::Svr);
        governorOutcomesSeen = governorStale;
        sd.resetUselessness();
    }

    // The stride detector observes every load (training continues even
    // while the governor has triggering banned).
    StrideObservation obs;
    const bool is_load = inst.isLoad();
    if (is_load) {
        obs = sd.observe(dyn.pc, dyn.addr);
        if (obs.matched)
            lbp.onStrideMatch(dyn.pc);
        else
            lbp.onStrideDiscontinuity(dyn.pc);
    }

    if (prmActive) {
        prmInstrCount++;
        if (dyn.pc == hslrPc) {
            // One full iteration of the indirect chain: round done.
            terminateRound(false, issue_cycle);
        } else if (prmInstrCount > p.prmTimeout) {
            terminateRound(true, issue_cycle);
        }
    }

    // Seen-bit maintenance: reaching the HSLR load clears all other
    // Seen bits (section IV-A6, independent loops).
    if (is_load && hslrValid && dyn.pc == hslrPc)
        clearSeenExcept(hslrPc);

    if (prmActive) {
        if (is_load && obs.isStriding && dyn.pc != hslrPc && !banned) {
            StrideEntry *e = obs.entry;
            const bool waiting = p.waitingMode && obs.inWaitRange;
            if (e->seen) {
                // Second sighting within the round: this is an inner
                // loop. Abort and retarget runahead to it.
                st.roundsAborted++;
                logEvent(SvrEventKind::NestedAbort, dyn.pc, issue_cycle);
                terminateRound(false, issue_cycle);
                clearSeenExcept(dyn.pc);
                if (!waiting && utilityGated(*e))
                    st.uselessSuppressed++;
                else if (!waiting)
                    block_until = triggerRound(dyn, *e, issue_cycle);
            } else {
                markSeen(*e);
                if (!waiting && !utilityGated(*e)) {
                    // Unrolled loop: vectorize this second chain too,
                    // sharing the round's mask.
                    st.extraChains++;
#ifdef SVR_ARCHCHECK_ENABLED
                    if (p.recordChains) {
                        DynChainRecord &rec = chains[dyn.pc];
                        rec.stride = e->stride;
                        rec.extraRounds++;
                        chains[hslrPc].extraRootPcs.insert(dyn.pc);
                    }
#endif
                    logEvent(SvrEventKind::ExtraChain, dyn.pc,
                             issue_cycle, roundLanes);
                    e->lastPrefetch = static_cast<Addr>(
                        static_cast<std::int64_t>(dyn.addr) +
                        e->stride *
                            static_cast<std::int64_t>(roundLanes));
                    e->hasLastPrefetch = true;
                    generateTriggerCopies(dyn, e->stride, issue_cycle);
                    block_until = std::max(
                        block_until,
                        issue_cycle + (roundLanes + p.svuWidth - 1) /
                                          p.svuWidth);
                }
            }
        } else if (prmActive) {
            if (!lilStopped)
                generateDependentCopies(dyn, issue_cycle);
            else if (is_load && inst.rs1 != invalidReg &&
                     taint.tainted(inst.rs1)) {
                // An indirect load after the recorded LIL: the LIL was
                // wrong; decay its confidence.
                if (StrideEntry *head = sd.find(hslrPc);
                    head && head->lilConfidence > 0) {
                    head->lilConfidence--;
                }
            }
        }
        observeControl(dyn);
    } else {
        observeControl(dyn);
        if (is_load && !banned && obs.entry) {
            StrideEntry *e = obs.entry;
            const bool waiting = p.waitingMode && obs.inWaitRange;
            if (obs.isStriding && waiting) {
                st.waitSuppressed++;
                logEvent(SvrEventKind::WaitSuppress, dyn.pc, issue_cycle);
            }
            if (obs.isStriding && !waiting) {
                bool trigger = false;
                if (!hslrValid || dyn.pc == hslrPc) {
                    trigger = true;
                } else if (e->seen) {
                    // Independent-loop retarget: second sighting of a
                    // non-HSLR striding load.
                    st.retargets++;
                    logEvent(SvrEventKind::Retarget, dyn.pc, issue_cycle);
                    trigger = true;
                } else if (p.nestedRunahead) {
                    // Experimental nesting: if the HSLR's own range is
                    // fully covered (waiting), spend the idle runahead
                    // capacity on this (outer) chain.
                    const StrideEntry *head = sd.find(hslrPc);
                    if (head && head->hasLastPrefetch) {
                        st.nestedRounds++;
                        trigger = true;
                    } else {
                        markSeen(*e);
                    }
                } else {
                    markSeen(*e);
                }
                // A chain the utility gate suppresses stops here.
                if (trigger && utilityGated(*e))
                    st.uselessSuppressed++;
                else if (trigger)
                    block_until = triggerRound(dyn, *e, issue_cycle);
            }
        }
    }

    updateGovernor();
    return block_until;
}

} // namespace svr
