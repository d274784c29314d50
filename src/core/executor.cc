/**
 * @file
 * Threaded-code interpreter core.
 *
 * The constructor predecodes the program into a flat side table
 * (handler token + resolved operand indices); the interpreter then
 * dispatches with a computed goto per instruction on GNU-compatible
 * compilers (one indirect jump, no opcode range check, and no second
 * switch inside evalAlu — every opcode has its own fused handler).
 * A portable switch fallback shares the same handler bodies.
 */

#include "core/executor.hh"

#include <algorithm>

#include "common/logging.hh"

#if defined(__GNUC__) || defined(__clang__)
#define SVR_THREADED_DISPATCH 1
#else
#define SVR_THREADED_DISPATCH 0
#endif

namespace svr
{

namespace
{

bool
validRegField(RegId r)
{
    return r == invalidReg || r < numArchRegs;
}

} // namespace

Executor::Executor(const Program &program, FunctionalMemory &memory)
    : prog(program), code(program.data()), mem(memory),
      progSize(program.size())
{
    // An empty program is immediately halted; step() may then assume
    // pcIdx is always a valid index into the cached code array.
    isHalted = progSize == 0;
    // Validate every register field once at load time (the per-step
    // accessors are then debug-only asserts) and predecode each
    // instruction into the flat dispatch table.
    decoded.resize(progSize);
    for (std::size_t i = 0; i < progSize; i++) {
        const Instruction &inst = prog.at(i);
        if (!validRegField(inst.rd) || !validRegField(inst.rs1) ||
            !validRegField(inst.rs2)) {
            panic("Executor: program '%s' instruction %zu has a bad "
                  "register field (rd=%u rs1=%u rs2=%u)",
                  prog.name().c_str(), i, inst.rd, inst.rs1, inst.rs2);
        }
        DecodedInst &d = decoded[i];
        d.imm = inst.imm;
        d.handler = static_cast<std::uint8_t>(inst.op);
        d.s1 = static_cast<std::uint8_t>(
            std::min<unsigned>(inst.rs1, zeroReadSlot));
        d.s2 = static_cast<std::uint8_t>(
            std::min<unsigned>(inst.rs2, zeroReadSlot));
        d.rdSlot = (inst.rd == invalidReg || inst.rd == 0)
                       ? static_cast<std::uint8_t>(writeSinkSlot)
                       : inst.rd;
        if (inst.op == Opcode::Jmp || inst.isCondBranch()) {
            d.target = static_cast<std::size_t>(inst.imm);
            d.targetPc = Program::pcOf(d.target);
        }
    }
}

void
Executor::restart()
{
    regs.fill(0);
    flagState = Flags{};
    pcIdx = 0;
    isHalted = progSize == 0;
    seq = 0;
}

/*
 * Handler bodies are shared between the threaded and switch builds;
 * only the way control reaches a handler differs. Every opcode in the
 * enum appears exactly once, in enum order, in SVR_OPCODE_LIST — the
 * label table below is built from it and its length is checked against
 * Opcode::NumOpcodes at compile time, so a new opcode that is not
 * given a handler fails the build instead of dispatching garbage.
 */
#define SVR_OPCODE_LIST(X)                                            \
    X(Nop) X(Add) X(Sub) X(Mul) X(Divu) X(Remu) X(And) X(Or) X(Xor)  \
    X(Sll) X(Srl) X(Sra) X(Addi) X(Andi) X(Ori) X(Xori) X(Slli)      \
    X(Srli) X(Srai) X(Li) X(Ld) X(Lw) X(Lh) X(Lb) X(Sd) X(Sw) X(Sh)  \
    X(Sb) X(Cmp) X(Cmpi) X(Fcmp) X(Beq) X(Bne) X(Blt) X(Bge) X(Bltu) \
    X(Bgeu) X(Jmp) X(Halt) X(Fadd) X(Fsub) X(Fmul) X(Fdiv) X(Fmin)   \
    X(Fmax) X(Cvtif) X(Cvtfi)

template <bool kMaterialize>
std::uint64_t
Executor::interp(std::uint64_t n, DynInst *dyn)
{
    using detail::asDouble;
    using detail::fromDouble;

    std::uint64_t ndone = 0;
    if (n == 0 || isHalted)
        return 0;

    std::size_t idx = pcIdx;
    const DecodedInst *d = &decoded[idx];
    std::size_t next;
    RegVal a, b, res;
    bool taken;
    Flags f;

/*
 * Per-instruction prologue: operand reads plus (step() only) the
 * DynInst header fields, shared by the entry point and every
 * replicated dispatch tail.
 */
#define SVR_FETCH()                                                   \
    do {                                                              \
        a = regs[d->s1];                                              \
        b = regs[d->s2];                                              \
        if constexpr (kMaterialize) {                                 \
            dyn->seq = seq;                                           \
            dyn->pc = Program::pcOf(idx);                             \
            dyn->index = static_cast<std::uint32_t>(idx);             \
            dyn->si = &code[idx];                                     \
            dyn->src1 = a;                                            \
            dyn->src2 = b;                                            \
            dyn->result = 0;                                          \
            dyn->addr = 0;                                            \
            dyn->taken = false;                                       \
            dyn->targetPc = 0;                                        \
            dyn->flagsOut = Flags{};                                  \
        }                                                             \
        seq++;                                                        \
        next = idx + 1;                                               \
    } while (0)

#if SVR_THREADED_DISPATCH
    static const void *const labels[] = {
#define X(name) &&op_##name,
        SVR_OPCODE_LIST(X)
#undef X
    };
    static_assert(sizeof(labels) / sizeof(labels[0]) ==
                      static_cast<std::size_t>(Opcode::NumOpcodes),
                  "handler table out of sync with the Opcode enum");
#define SVR_CASE(name) op_##name:
#define SVR_DISPATCH() goto *labels[d->handler]
    SVR_FETCH();
    SVR_DISPATCH();
#else
#define SVR_CASE(name) case Opcode::name: {
#define SVR_DISPATCH() goto dispatch
    SVR_FETCH();
  dispatch:
    switch (static_cast<Opcode>(d->handler)) {
#endif

/*
 * Per-instruction epilogue, expanded at the end of every handler so
 * each opcode owns its own indirect dispatch site (replicated
 * dispatch: the host branch predictor then learns per-opcode
 * successor patterns instead of choking on one shared jump). The
 * step() instantiation executes exactly one instruction and returns;
 * the run() instantiation advances and dispatches in place.
 */
#define SVR_NEXT()                                                    \
    do {                                                              \
        pcIdx = next;                                                 \
        if (next >= progSize)                                         \
            isHalted = true;                                          \
        ndone++;                                                      \
        if constexpr (kMaterialize) {                                 \
            return ndone;                                             \
        } else {                                                      \
            if (isHalted || ndone >= n)                               \
                return ndone;                                         \
            idx = next;                                               \
            d = &decoded[idx];                                        \
            SVR_FETCH();                                              \
            SVR_DISPATCH();                                           \
        }                                                             \
    } while (0)

/* ALU writeback: unconditional store through the predecoded slot. */
#define SVR_WB(expr)                                                  \
    do {                                                              \
        res = (expr);                                                 \
        regs[d->rdSlot] = res;                                        \
        if constexpr (kMaterialize)                                   \
            dyn->result = res;                                        \
        SVR_NEXT();                                                   \
    } while (0)

#define SVR_LOAD(bytes)                                               \
    do {                                                              \
        const Addr ea = a + static_cast<Addr>(d->imm);                \
        if constexpr (kMaterialize)                                   \
            dyn->addr = ea;                                           \
        SVR_WB(mem.read(ea, bytes));                                  \
    } while (0)

#define SVR_STORE(bytes)                                              \
    do {                                                              \
        const Addr ea = a + static_cast<Addr>(d->imm);                \
        if constexpr (kMaterialize)                                   \
            dyn->addr = ea;                                           \
        mem.write(ea, b, bytes);                                      \
        SVR_NEXT();                                                   \
    } while (0)

#define SVR_FLAGS()                                                   \
    do {                                                              \
        flagState = f;                                                \
        if constexpr (kMaterialize)                                   \
            dyn->flagsOut = f;                                        \
        SVR_NEXT();                                                   \
    } while (0)

#define SVR_BRANCH()                                                  \
    do {                                                              \
        if (taken) {                                                  \
            next = d->target;                                         \
            if constexpr (kMaterialize) {                             \
                dyn->taken = true;                                    \
                dyn->targetPc = d->targetPc;                          \
            }                                                         \
        }                                                             \
        SVR_NEXT();                                                   \
    } while (0)

#if SVR_THREADED_DISPATCH
#define SVR_END
#else
#define SVR_END }
#endif

    SVR_CASE(Nop) SVR_NEXT(); SVR_END
    SVR_CASE(Add) SVR_WB(a + b); SVR_END
    SVR_CASE(Sub) SVR_WB(a - b); SVR_END
    SVR_CASE(Mul) SVR_WB(a * b); SVR_END
    // Division by zero yields all-ones (RISC-V semantics); transient
    // SVR lanes may divide garbage, which must be well-defined.
    SVR_CASE(Divu) SVR_WB(b == 0 ? ~RegVal(0) : a / b); SVR_END
    SVR_CASE(Remu) SVR_WB(b == 0 ? a : a % b); SVR_END
    SVR_CASE(And) SVR_WB(a & b); SVR_END
    SVR_CASE(Or) SVR_WB(a | b); SVR_END
    SVR_CASE(Xor) SVR_WB(a ^ b); SVR_END
    SVR_CASE(Sll) SVR_WB(a << (b & 63)); SVR_END
    SVR_CASE(Srl) SVR_WB(a >> (b & 63)); SVR_END
    SVR_CASE(Sra)
        SVR_WB(static_cast<RegVal>(static_cast<std::int64_t>(a) >>
                                   (b & 63)));
    SVR_END
    SVR_CASE(Addi) SVR_WB(a + static_cast<RegVal>(d->imm)); SVR_END
    SVR_CASE(Andi) SVR_WB(a & static_cast<RegVal>(d->imm)); SVR_END
    SVR_CASE(Ori) SVR_WB(a | static_cast<RegVal>(d->imm)); SVR_END
    SVR_CASE(Xori) SVR_WB(a ^ static_cast<RegVal>(d->imm)); SVR_END
    SVR_CASE(Slli) SVR_WB(a << (d->imm & 63)); SVR_END
    SVR_CASE(Srli) SVR_WB(a >> (d->imm & 63)); SVR_END
    SVR_CASE(Srai)
        SVR_WB(static_cast<RegVal>(static_cast<std::int64_t>(a) >>
                                   (d->imm & 63)));
    SVR_END
    SVR_CASE(Li) SVR_WB(static_cast<RegVal>(d->imm)); SVR_END
    SVR_CASE(Ld) SVR_LOAD(8); SVR_END
    SVR_CASE(Lw) SVR_LOAD(4); SVR_END
    SVR_CASE(Lh) SVR_LOAD(2); SVR_END
    SVR_CASE(Lb) SVR_LOAD(1); SVR_END
    SVR_CASE(Sd) SVR_STORE(8); SVR_END
    SVR_CASE(Sw) SVR_STORE(4); SVR_END
    SVR_CASE(Sh) SVR_STORE(2); SVR_END
    SVR_CASE(Sb) SVR_STORE(1); SVR_END
    SVR_CASE(Cmp)
        f.eq = a == b;
        f.lt = static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
        f.ltu = a < b;
        SVR_FLAGS();
    SVR_END
    SVR_CASE(Cmpi) {
        const RegVal rhs = static_cast<RegVal>(d->imm);
        f.eq = a == rhs;
        f.lt = static_cast<std::int64_t>(a) <
               static_cast<std::int64_t>(rhs);
        f.ltu = a < rhs;
        SVR_FLAGS();
    }
    SVR_END
    SVR_CASE(Fcmp) {
        const double da = asDouble(a);
        const double db = asDouble(b);
        f.eq = da == db;
        f.lt = da < db;
        f.ltu = f.lt;
        SVR_FLAGS();
    }
    SVR_END
    SVR_CASE(Beq) taken = flagState.eq; SVR_BRANCH(); SVR_END
    SVR_CASE(Bne) taken = !flagState.eq; SVR_BRANCH(); SVR_END
    SVR_CASE(Blt) taken = flagState.lt; SVR_BRANCH(); SVR_END
    SVR_CASE(Bge) taken = !flagState.lt; SVR_BRANCH(); SVR_END
    SVR_CASE(Bltu) taken = flagState.ltu; SVR_BRANCH(); SVR_END
    SVR_CASE(Bgeu) taken = !flagState.ltu; SVR_BRANCH(); SVR_END
    SVR_CASE(Jmp)
        next = d->target;
        if constexpr (kMaterialize) {
            dyn->taken = true;
            dyn->targetPc = d->targetPc;
        }
        SVR_NEXT();
    SVR_END
    SVR_CASE(Halt) isHalted = true; SVR_NEXT(); SVR_END
    SVR_CASE(Fadd) SVR_WB(fromDouble(asDouble(a) + asDouble(b))); SVR_END
    SVR_CASE(Fsub) SVR_WB(fromDouble(asDouble(a) - asDouble(b))); SVR_END
    SVR_CASE(Fmul) SVR_WB(fromDouble(asDouble(a) * asDouble(b))); SVR_END
    SVR_CASE(Fdiv) SVR_WB(fromDouble(asDouble(a) / asDouble(b))); SVR_END
    SVR_CASE(Fmin)
        SVR_WB(fromDouble(std::fmin(asDouble(a), asDouble(b))));
    SVR_END
    SVR_CASE(Fmax)
        SVR_WB(fromDouble(std::fmax(asDouble(a), asDouble(b))));
    SVR_END
    SVR_CASE(Cvtif)
        SVR_WB(fromDouble(
            static_cast<double>(static_cast<std::int64_t>(a))));
    SVR_END
    SVR_CASE(Cvtfi)
        SVR_WB(static_cast<RegVal>(
            static_cast<std::int64_t>(asDouble(a))));
    SVR_END

#if !SVR_THREADED_DISPATCH
      default:
        return ndone; // unreachable: handler tokens are valid opcodes
    }
#endif

#undef SVR_FETCH
#undef SVR_CASE
#undef SVR_DISPATCH
#undef SVR_NEXT
#undef SVR_WB
#undef SVR_LOAD
#undef SVR_STORE
#undef SVR_FLAGS
#undef SVR_BRANCH
#undef SVR_END
}

void
Executor::stepHaltedPanic() const
{
    panic("Executor::step called while halted (program '%s')",
          prog.name().c_str());
}

std::uint64_t
Executor::run(std::uint64_t n)
{
    return interp<false>(n, nullptr);
}

// step() (header-inline) reaches the kMaterialize instantiation from
// other translation units; emit both explicitly in this one.
template std::uint64_t Executor::interp<true>(std::uint64_t, DynInst *);
template std::uint64_t Executor::interp<false>(std::uint64_t, DynInst *);

} // namespace svr
