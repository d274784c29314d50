/**
 * @file
 * Functional interpreter: executes the program over functional memory,
 * producing the dynamic instruction stream the timing models replay.
 */

#ifndef SVR_CORE_EXECUTOR_HH
#define SVR_CORE_EXECUTOR_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/dyn_inst.hh"
#include "isa/program.hh"
#include "mem/functional_memory.hh"

namespace svr
{

/**
 * Architectural state + interpreter. The timing model calls step() to
 * obtain the next dynamic instruction; values/addresses/outcomes are
 * resolved immediately (functional-first execution, as in Sniper).
 *
 * SVR's loop-bound scavenging reads live architectural registers via
 * readReg(), exactly as the hardware reads the physical register file.
 */
class Executor
{
  public:
    /**
     * Binds the program and validates every static instruction's
     * register fields once, so the per-step register accessors can be
     * debug-only asserts instead of range checks on the hot path.
     */
    Executor(const Program &program, FunctionalMemory &memory);

    /**
     * Execute the next instruction; undefined when halted(). Inline:
     * the timing cores call this once per dynamic instruction, and the
     * interpreter writes every DynInst field directly into the
     * caller's record (no zero-init, no extra copy).
     */
    DynInst
    step()
    {
        if (isHalted)
            stepHaltedPanic();
        DynInst dyn;
        interp<true>(1, &dyn);
        return dyn;
    }

    /**
     * Execute up to @p n instructions discarding the dynamic stream
     * (sampled-simulation fast-forward). Stops early on halt; returns
     * the number actually executed. Architecturally identical to
     * calling step() @p n times, but the in-TU loop lets the compiler
     * drop the per-instruction DynInst materialization.
     */
    std::uint64_t run(std::uint64_t n);

    /** True once a Halt has executed or the PC ran off the program. */
    bool halted() const { return isHalted; }

    /** Dynamic instruction count so far. */
    SeqNum instructionsExecuted() const { return seq; }

    /**
     * Read architectural register @p r (x0 reads as zero). Range
     * validity is established when the Program is loaded; debug
     * builds assert it here.
     */
    RegVal
    readReg(RegId r) const
    {
        assert(r < numArchRegs && "Executor::readReg: bad register");
        return regs[r]; // x0 is never written, so regs[0] stays 0
    }

    /** Write architectural register @p r (x0 writes are ignored). */
    void
    writeReg(RegId r, RegVal value)
    {
        assert(r < numArchRegs && "Executor::writeReg: bad register");
        if (r != 0)
            regs[r] = value;
    }

    /** Current flags register. */
    const Flags &flags() const { return flagState; }

    /** Current PC as a static instruction index. */
    std::size_t pcIndex() const { return pcIdx; }

    /** The program being executed. */
    const Program &program() const { return prog; }

    /** The functional memory backing this execution. */
    FunctionalMemory &memory() { return mem; }
    const FunctionalMemory &memory() const { return mem; }

    /** Restart from instruction 0 with zeroed registers. */
    void restart();

  private:
    /**
     * One predecoded instruction in the flat dispatch side table.
     * `handler` is the dense dispatch token (the opcode value), which
     * the interpreter turns into a handler address with one table
     * load; operand fields are pre-resolved so no handler re-examines
     * the raw Instruction encoding:
     *  - s1/s2 are register-file indices already clamped onto the
     *    padded always-zero read slot for invalidReg operands;
     *  - rdSlot is the writeback index, with x0 and invalidReg
     *    destinations redirected to the write sink slot so handlers
     *    store unconditionally;
     *  - target/targetPc are the resolved control-flow destination for
     *    branches and jumps (index and synthetic PC).
     */
    struct DecodedInst
    {
        std::int64_t imm = 0;
        std::size_t target = 0;
        Addr targetPc = 0;
        std::uint8_t handler = 0;
        std::uint8_t s1 = 0;
        std::uint8_t s2 = 0;
        std::uint8_t rdSlot = 0;
    };

    /** Operand-read index for invalidReg sources (always reads 0). */
    static constexpr unsigned zeroReadSlot = numArchRegs;
    /** Writeback index for x0/invalidReg destinations (never read). */
    static constexpr unsigned writeSinkSlot = numArchRegs + 1;

    /**
     * The threaded-dispatch interpreter loop: execute up to @p n
     * instructions, stopping early on halt, returning the number
     * executed. With kMaterialize (the step() instantiation, n == 1)
     * the dynamic record is filled in via @p dyn; without it the
     * compiler drops every DynInst store (the run() fast-forward
     * instantiation keeps the architectural state in registers across
     * the whole batch).
     */
    template <bool kMaterialize>
    std::uint64_t interp(std::uint64_t n, DynInst *dyn);

    /** Out-of-line panic for step()-while-halted (keeps step() lean). */
    [[noreturn]] void stepHaltedPanic() const;

    const Program &prog;
    /**
     * Raw instruction storage, cached from prog.data() (stable for the
     * Program's lifetime) so step() indexes without a call or bounds
     * check; pcIdx < prog.size() is a step() loop invariant.
     */
    const Instruction *code;
    FunctionalMemory &mem;
    /**
     * Flat predecoded side table, one entry per static instruction
     * (built once in the constructor alongside register validation).
     */
    std::vector<DecodedInst> decoded;
    /** Cached prog.size(), the halt bound on the dispatch hot path. */
    std::size_t progSize = 0;
    /**
     * Register file padded with two extra slots: zeroReadSlot is the
     * always-zero operand read for invalidReg sources, writeSinkSlot
     * absorbs writes to x0/invalidReg destinations so the writeback
     * path is an unconditional store. Neither is ever read as data.
     */
    std::array<RegVal, numArchRegs + 2> regs{};
    Flags flagState;
    std::size_t pcIdx = 0;
    bool isHalted = false;
    SeqNum seq = 0;
};

} // namespace svr

#endif // SVR_CORE_EXECUTOR_HH
