/**
 * @file
 * ISA-neutral instruction model.
 *
 * Both guest ISAs decode into the same @c MachInst record so that the
 * interpreter, the PSR translator, and the gadget classifier share one
 * semantic core. ISA-specific constraints (which operand kinds are legal
 * where) are enforced by the per-ISA assemblers in
 * encoding_risc.cc / encoding_cisc.cc.
 */

#ifndef HIPSTR_ISA_INSTRUCTION_HH
#define HIPSTR_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "isa/isa.hh"

namespace hipstr
{

/**
 * The three-address ALU ops (dst <- src1 OP src2), in the order the
 * Risc ALU opcode groups and the trace-handler families follow. Rows
 * are A(ctx, Op, mnemonic); @p ctx is passed through untouched, so a
 * list built from this one can hand its own row macro along.
 */
#define HIPSTR_ALU_OPS(A, ctx)                                        \
    A(ctx, Add, "add") A(ctx, Sub, "sub") A(ctx, And, "and")          \
    A(ctx, Or, "or") A(ctx, Xor, "xor") A(ctx, Shl, "shl")            \
    A(ctx, Shr, "shr") A(ctx, Sar, "sar") A(ctx, Mul, "mul")          \
    A(ctx, Divu, "divu")

/**
 * The one op list: the semantic opcodes both ISAs decode into. Rows
 * are X(Op, mnemonic, terminator, indirect, alu, stack): whether the
 * op ends a basic block, whether its target is not statically known,
 * whether it is a three-address ALU op, and the implicit stack access
 * it makes (a StackAccess enumerator).
 */
#define HIPSTR_OPS(X)                                                 \
    X(Nop, "nop", false, false, false, None)                          \
    /* dst <- src1 (generalizes load/store/move/load-imm) */          \
    X(Mov, "mov", false, false, false, None)                          \
    /* byte variant: reg <- zext(mem8[..]) or mem8[..] <- low8 */     \
    X(Movb, "movb", false, false, false, None)                        \
    /* dst(reg) <- effective address of src1(mem) */                  \
    X(Lea, "lea", false, false, false, None)                          \
    /* dst(reg) <- (dst & 0xffff) | (imm16 << 16); Risc only */       \
    X(MovHi, "movhi", false, false, false, None)                      \
    HIPSTR_ALU_OPS(HIPSTR_OP_ALU_ROW, X)                              \
    /* set flags from src1 - src2 */                                  \
    X(Cmp, "cmp", false, false, false, None)                          \
    /* set flags from src1 & src2 */                                  \
    X(Test, "test", false, false, false, None)                        \
    /* unconditional pc-relative branch */                            \
    X(Jmp, "jmp", true, false, false, None)                           \
    /* conditional branch on cond */                                  \
    X(Jcc, "jcc", true, false, false, None)                           \
    /* pc <- src1(reg) */                                             \
    X(JmpInd, "jmpind", true, true, false, None)                      \
    /* direct call; Cisc pushes return addr, Risc sets LR */          \
    X(Call, "call", true, false, false, CallPush)                     \
    /* indirect call through src1(reg) */                             \
    X(CallInd, "callind", true, true, false, CallPush)                \
    /* pc <- mem[sp]; sp += 4 (Risc POPRET has identical semantics;   \
       the fused epilogue keeps return addresses stack-resident on    \
       both ISAs) */                                                  \
    X(Ret, "ret", true, true, false, Pop)                             \
    /* Cisc only: sp -= 4; mem[sp] <- src1 */                         \
    X(Push, "push", false, false, false, Push)                        \
    /* Cisc only: dst <- mem[sp]; sp += 4 */                          \
    X(Pop, "pop", false, false, false, Pop)                           \
    /* system call; number in retReg, args in argRegs[1..] */         \
    X(Syscall, "syscall", false, false, false, None)                  \
    /* stop the machine */                                            \
    X(Halt, "halt", true, false, false, None)                         \
    /* translator-only pseudo-op: trap to the dispatcher with exit    \
       descriptor index in src1(imm) */                               \
    X(VmExit, "vmexit", true, false, false, None)

#define HIPSTR_OP_ALU_ROW(X, op, name) X(op, name, false, false, true, None)

/** Semantic opcodes shared by both ISAs (see HIPSTR_OPS). */
enum class Op : uint8_t
{
#define HIPSTR_OP_ENUM(op, ...) op,
    HIPSTR_OPS(HIPSTR_OP_ENUM)
#undef HIPSTR_OP_ENUM
};

constexpr unsigned kNumOps = static_cast<unsigned>(Op::VmExit) + 1;

/** The implicit stack access an op makes besides its operands. */
enum class StackAccess : uint8_t
{
    None,
    Push,     ///< writes the new top of stack (sp - 4)
    CallPush, ///< pushes the return address where calls link through
              ///< the stack (Cisc; Risc links through a register)
    Pop       ///< reads the current top of stack
};

/** One row of the op list. */
struct OpInfo
{
    const char *name;
    bool terminator; ///< ends a basic block
    bool indirect;   ///< target not statically known
    bool alu;        ///< three-address ALU op
    StackAccess stack;
};

inline constexpr OpInfo kOpInfo[kNumOps] = {
#define HIPSTR_OP_INFO(op, name, term, ind, alu, stack)               \
    { name, term, ind, alu, StackAccess::stack },
    HIPSTR_OPS(HIPSTR_OP_INFO)
#undef HIPSTR_OP_INFO
};

constexpr const OpInfo &
opInfo(Op op)
{
    return kOpInfo[static_cast<unsigned>(op)];
}

inline const char *
opName(Op op)
{
    return static_cast<unsigned>(op) < kNumOps ? opInfo(op).name : "?";
}

/** An instruction operand. */
struct Operand
{
    enum class Kind : uint8_t
    {
        None,
        Reg,  ///< architectural register
        Imm,  ///< immediate constant
        Mem   ///< memory at [base + disp]
    };

    Kind kind = Kind::None;
    Reg reg = kNoReg;    ///< Reg: the register; Mem: unused
    Reg base = kNoReg;   ///< Mem: base register
    int32_t disp = 0;    ///< Mem: displacement; Imm: the immediate

    static Operand none() { return Operand{}; }

    static Operand
    makeReg(Reg r)
    {
        Operand o;
        o.kind = Kind::Reg;
        o.reg = r;
        return o;
    }

    static Operand
    makeImm(int32_t v)
    {
        Operand o;
        o.kind = Kind::Imm;
        o.disp = v;
        return o;
    }

    static Operand
    makeMem(Reg base, int32_t disp)
    {
        Operand o;
        o.kind = Kind::Mem;
        o.base = base;
        o.disp = disp;
        return o;
    }

    bool isNone() const { return kind == Kind::None; }
    bool isReg() const { return kind == Kind::Reg; }
    bool isImm() const { return kind == Kind::Imm; }
    bool isMem() const { return kind == Kind::Mem; }

    bool operator==(const Operand &o) const
    {
        if (kind != o.kind)
            return false;
        switch (kind) {
          case Kind::None: return true;
          case Kind::Reg: return reg == o.reg;
          case Kind::Imm: return disp == o.disp;
          case Kind::Mem: return base == o.base && disp == o.disp;
        }
        return false;
    }
};

/**
 * A decoded machine instruction. ALU ops compute dst = src1 OP src2;
 * on Cisc the encodings force dst == src1 (two-address form), which the
 * decoders and assemblers maintain.
 */
struct MachInst
{
    Op op = Op::Nop;
    Cond cond = Cond::Eq;   ///< only meaningful for Jcc
    Operand dst;
    Operand src1;
    Operand src2;
    /**
     * Absolute guest target for Jmp/Jcc/Call after decode; during
     * compilation it temporarily holds a label id which the emitter
     * fixes up at layout time.
     */
    Addr target = 0;
    /** Encoded size in bytes (filled by the decoder/assembler). */
    uint8_t size = 0;

    bool isTerminator() const { return opInfo(op).terminator; }

    /** Convenience constructors. @{ */
    static MachInst nop();
    static MachInst movRR(Reg dst, Reg src);
    static MachInst movRI(Reg dst, int32_t imm);
    static MachInst movHi(Reg dst, int32_t imm16);
    static MachInst load(Reg dst, Reg base, int32_t disp);
    static MachInst store(Reg base, int32_t disp, Reg src);
    static MachInst loadByte(Reg dst, Reg base, int32_t disp);
    static MachInst storeByte(Reg base, int32_t disp, Reg src);
    static MachInst storeImm(Reg base, int32_t disp, int32_t imm);
    static MachInst alu(Op op, Reg dst, Reg src1, Operand src2);
    static MachInst lea(Reg dst, Reg base, int32_t disp);
    static MachInst cmp(Operand a, Operand b);
    static MachInst test(Operand a, Operand b);
    static MachInst jmp(Addr target);
    static MachInst jcc(Cond c, Addr target);
    static MachInst jmpInd(Reg r);
    static MachInst call(Addr target);
    static MachInst callInd(Reg r);
    static MachInst ret();
    static MachInst push(Operand src);
    static MachInst pop(Reg dst);
    static MachInst syscall();
    static MachInst halt();
    static MachInst vmExit(uint32_t index);
    /** @} */
};

/** Render an operand in disassembly syntax. */
std::string operandToString(const Operand &o, const IsaDescriptor &desc);

/** Render a full instruction, e.g. "add ax, [sp+0x80c]". */
std::string instToString(const MachInst &mi, IsaKind isa);

} // namespace hipstr

#endif // HIPSTR_ISA_INSTRUCTION_HH
