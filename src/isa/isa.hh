/**
 * @file
 * Definitions of the two synthetic instruction-set architectures used
 * throughout this reproduction.
 *
 * The paper's heterogeneous-ISA CMP pairs a low-power ARM core with a
 * high-performance x86 core. We reproduce the security-relevant contrast
 * with two from-scratch ISAs:
 *
 *  - @c IsaKind::Risc — "ARM-like": fixed 4-byte instruction words,
 *    strict 4-byte alignment (no unintentional gadgets), 16 general
 *    purpose registers, load/store architecture, link-register calls.
 *  - @c IsaKind::Cisc — "x86-like": variable-length encodings
 *    (1-12 bytes), 8 general purpose registers, memory operands in ALU
 *    instructions, a single-byte 0xC3 RET (so unaligned decode yields a
 *    large population of unintentional gadgets), push/pop calls.
 *
 * Both ISAs use stack-resident return addresses, which is the property
 * return-oriented programming depends on.
 */

#ifndef HIPSTR_ISA_ISA_HH
#define HIPSTR_ISA_ISA_HH

#include <cstdint>
#include <string>
#include <vector>

namespace hipstr
{

/** The two ISAs of the heterogeneous-ISA CMP. */
enum class IsaKind : uint8_t
{
    Risc = 0, ///< ARM-like fixed-width ISA
    Cisc = 1  ///< x86-like variable-length ISA
};

/** Number of ISAs (for fat-binary section arrays). */
constexpr size_t kNumIsas = 2;

/** Range bound for checkpoint loads (support/serialize.hh). */
constexpr IsaKind
lastEnumerator(IsaKind)
{
    return IsaKind::Cisc;
}

/** Iterable list of all ISAs. */
constexpr IsaKind kAllIsas[kNumIsas] = { IsaKind::Risc, IsaKind::Cisc };

/** Printable name, e.g. for stats and disassembly. */
const char *isaName(IsaKind isa);

/** The other ISA of the pair. */
constexpr IsaKind
otherIsa(IsaKind isa)
{
    return isa == IsaKind::Risc ? IsaKind::Cisc : IsaKind::Risc;
}

/** Architectural register index. Valid range depends on the ISA. */
using Reg = uint8_t;

/** Sentinel for "no register". */
constexpr Reg kNoReg = 0xff;

/** Guest virtual addresses are 32-bit in both ISAs. */
using Addr = uint32_t;

/** Machine word size (bytes) — both ISAs are 32-bit. */
constexpr unsigned kWordSize = 4;

/** Condition codes used by conditional branches. Shared semantics. */
enum class Cond : uint8_t
{
    Eq,  ///< equal (ZF)
    Ne,  ///< not equal (!ZF)
    Lt,  ///< signed less than (SF != OF)
    Le,  ///< signed less or equal
    Gt,  ///< signed greater than
    Ge,  ///< signed greater or equal
    B,   ///< unsigned below (CF)
    Be,  ///< unsigned below or equal
    A,   ///< unsigned above
    Ae   ///< unsigned above or equal
};

constexpr unsigned kNumConds = 10;

const char *condName(Cond c);

/**
 * Static description of one ISA: register file size, special registers,
 * and the default (non-randomized) calling convention. The PSR
 * randomizer perturbs the convention per function; this struct is the
 * baseline the compiler emits against.
 */
struct IsaDescriptor
{
    IsaKind kind;
    unsigned numRegs;       ///< general-purpose register count
    Reg spReg;              ///< stack pointer
    Reg lrReg;              ///< link register (kNoReg on Cisc)
    unsigned minInstBytes;  ///< smallest encodable instruction
    unsigned maxInstBytes;  ///< largest encodable instruction
    unsigned instAlign;     ///< required alignment of executed code

    /** Registers available to the register allocator (excludes SP/LR). */
    std::vector<Reg> allocatable;
    /** Callee-saved subset of @c allocatable. */
    std::vector<Reg> calleeSaved;
    /** Caller-saved subset of @c allocatable. */
    std::vector<Reg> callerSaved;
    /** Registers carrying the first arguments / syscall arguments. */
    std::vector<Reg> argRegs;
    /** Register carrying the return value and the syscall number. */
    Reg retReg;
    /**
     * Register reserved for the dynamic binary translator. The compiler
     * never allocates it, so translated code may clobber it freely when
     * emulating addressing modes the ISA lacks (Section 5.1's "register
     * temporaries"). Risc: r15; Cisc: bp.
     */
    Reg scratchReg;
    /**
     * Registers reserved for instruction selection (routing spilled
     * operands). Dead at every guest-instruction boundary, so the
     * translator may rename them but never needs to preserve them
     * across blocks. Risc: {r11, r12}; Cisc: {si}.
     */
    std::vector<Reg> iselTemps;

    /** Printable architectural name of register @p r. */
    std::string regName(Reg r) const;
};

/** Descriptor singleton for @p isa. */
const IsaDescriptor &isaDescriptor(IsaKind isa);

/**
 * Register indices for the Cisc ISA (x86-like). SP is a real GPR, as on
 * x86, which is what makes stack-pivot gadgets expressible.
 */
namespace cisc
{
constexpr Reg AX = 0, CX = 1, DX = 2, BX = 3, SP = 4, BP = 5, SI = 6,
    DI = 7;
constexpr unsigned kNumRegs = 8;
} // namespace cisc

/** Register indices for the Risc ISA (ARM-like). */
namespace risc
{
constexpr Reg R0 = 0, R1 = 1, R2 = 2, R3 = 3, R4 = 4, R5 = 5, R6 = 6,
    R7 = 7, R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, SP = 13,
    LR = 14, SCRATCH = 15;
constexpr unsigned kNumRegs = 16;
} // namespace risc

/**
 * Guest system-call numbers. EXECVE is the canonical attacker goal: a
 * ROP chain succeeds when it reaches Syscall with the execve number and
 * attacker-chosen argument registers.
 */
enum class SyscallNo : uint32_t
{
    Exit = 1,
    WriteBuf = 3,    ///< write arg2 bytes from guest address arg1,
                     ///< tagged with arg3 (a connection id) — the
                     ///< four-register syscall whose call site is the
                     ///< classic execve-style gadget target
    WriteByte = 4,   ///< write one byte (arg0) to the program output
    WriteWord = 5,   ///< write a 32-bit value to the program output
    Brk = 9,         ///< grow the heap; returns old break
    Execve = 11,     ///< spawn a shell — the attack target
    SetJmp = 13,     ///< record continuation into jmp_buf at arg1;
                     ///< resume address in arg2 (Section 5.3)
    LongJmp = 14,    ///< restore the continuation in arg1, delivering
                     ///< max(arg2, 1) to the setjmp resume load
    Getpid = 20
};

/** jmp_buf layout (words): sp, resume address, delivered value,
 *  callee-saved registers. */
constexpr uint32_t kJmpBufWords = 10;

} // namespace hipstr

#endif // HIPSTR_ISA_ISA_HH
