/**
 * @file
 * Encoder/decoder for the Risc (ARM-like) ISA.
 *
 * Every instruction is one little-endian 32-bit word, and execution
 * requires 4-byte alignment — this is what shrinks the Risc gadget
 * population to intentional (aligned) sequences only, reproducing the
 * paper's observation that the ARM attack surface is ~52x smaller.
 *
 * Word layout (bit 0 = LSB):
 *   [7:0]   opcode
 *   [11:8]  rd   (destination register / condition code for JCC /
 *                 source register for STORE)
 *   [15:12] rn   (first source / base register)
 *   [31:16] imm16 (signed immediate / offset)  -- imm16 forms
 *   [19:16] rm                                  -- register forms
 *   [31:8]  simm24 word offset                  -- JMP/CALL/VMEXIT
 *
 * The opcode map is kRiscFormats below.
 *
 * Opcode 0x00 (an all-zero word) deliberately does not decode, so
 * zero-filled memory is not executable.
 */

#include <cstring>

#include "isa/codec.hh"
#include "support/bitops.hh"
#include "support/logging.hh"

namespace hipstr
{
namespace detail
{

namespace
{

/** Operand layout of one Risc opcode. */
enum class RiscForm : uint8_t
{
    Invalid,  ///< the opcode does not decode
    Bare,     ///< no operands
    MovRR,    ///< rd <- rn
    ImmS16,   ///< rd, simm16
    ImmU16,   ///< rd, imm16 (zero-extended)
    RegMem,   ///< rd, [rn+simm16]
    MemReg,   ///< [rn+simm16], rd
    AluRR,    ///< rd, rn, rm
    AluRI,    ///< rd, rn, simm16
    FlagRR,   ///< rn, rm
    FlagRI,   ///< rn, simm16
    Branch24, ///< simm24 word offset
    Branch16, ///< rd = condition code, simm16 word offset
    IndReg,   ///< rn
    Imm24     ///< imm24
};

/** One opcode: the op it decodes to and its operand layout. */
struct RiscFormat
{
    uint8_t opcode;
    Op op;
    RiscForm form;
};

/**
 * The opcode map. The k-th ALU op of the op list (HIPSTR_ALU_OPS:
 * add sub and or xor shl shr sar mul divu) adds two more rows, 0x10+k
 * in the AluRR form and 0x20+k in the AluRI form.
 */
constexpr RiscFormat kRiscFormats[] = {
    { 0x01, Op::Nop, RiscForm::Bare },
    { 0x02, Op::Halt, RiscForm::Bare },
    { 0x03, Op::Syscall, RiscForm::Bare },
    { 0x04, Op::Mov, RiscForm::MovRR },
    { 0x05, Op::Mov, RiscForm::ImmS16 },
    { 0x06, Op::MovHi, RiscForm::ImmU16 },
    { 0x07, Op::Mov, RiscForm::RegMem },   // load
    { 0x08, Op::Mov, RiscForm::MemReg },   // store
    { 0x09, Op::Lea, RiscForm::RegMem },
    { 0x0a, Op::Movb, RiscForm::RegMem },  // loadb
    { 0x0b, Op::Movb, RiscForm::MemReg },  // storeb
    { 0x30, Op::Cmp, RiscForm::FlagRR },
    { 0x31, Op::Cmp, RiscForm::FlagRI },
    { 0x32, Op::Test, RiscForm::FlagRR },
    { 0x33, Op::Test, RiscForm::FlagRI },
    { 0x34, Op::Jmp, RiscForm::Branch24 },
    { 0x35, Op::Jcc, RiscForm::Branch16 },
    { 0x36, Op::Call, RiscForm::Branch24 },
    { 0x37, Op::JmpInd, RiscForm::IndReg },
    { 0x38, Op::CallInd, RiscForm::IndReg },
    { 0x39, Op::Ret, RiscForm::Bare },     // popret: pc <- [sp]; sp += 4
    { 0x3a, Op::VmExit, RiscForm::Imm24 }, // translator-only
};
constexpr uint8_t kAluRR = 0x10;
constexpr uint8_t kAluRI = 0x20;

/**
 * True when @p form encodes an instruction whose dst, src1 and src2
 * have these Operand::Kind values; operands a form does not encode
 * are not checked.
 */
constexpr bool
formTakes(RiscForm form, unsigned dst, unsigned src1, unsigned src2)
{
    constexpr unsigned R = static_cast<unsigned>(Operand::Kind::Reg);
    constexpr unsigned I = static_cast<unsigned>(Operand::Kind::Imm);
    constexpr unsigned M = static_cast<unsigned>(Operand::Kind::Mem);
    switch (form) {
      case RiscForm::Invalid:
        return false;
      case RiscForm::Bare:
      case RiscForm::Branch24:
      case RiscForm::Branch16:
        return true;
      case RiscForm::MovRR:
        return dst == R && src1 == R;
      case RiscForm::ImmS16:
      case RiscForm::ImmU16:
        return dst == R && src1 == I;
      case RiscForm::RegMem:
        return dst == R && src1 == M;
      case RiscForm::MemReg:
        return dst == M && src1 == R;
      case RiscForm::AluRR:
        return dst == R && src1 == R && src2 == R;
      case RiscForm::AluRI:
        return dst == R && src1 == R && src2 == I;
      case RiscForm::FlagRR:
        return src1 == R && src2 == R;
      case RiscForm::FlagRI:
        return src1 == R && src2 == I;
      case RiscForm::IndReg:
        return src1 == R;
      case RiscForm::Imm24:
        return src1 == I;
    }
    return false;
}

/** The operand kinds of @p mi packed as formTakes' index. */
unsigned
kindsOf(const MachInst &mi)
{
    return static_cast<unsigned>(mi.dst.kind) << 4 |
        static_cast<unsigned>(mi.src1.kind) << 2 |
        static_cast<unsigned>(mi.src2.kind);
}

/** The opcode map indexed by opcode and by (op, operand kinds). */
struct RiscTables
{
    RiscFormat byOpcode[256];      ///< form Invalid where nothing decodes
    uint8_t byOpKinds[kNumOps][64]; ///< opcode, 0 where none encodes
};

constexpr RiscTables
buildRiscTables()
{
    RiscTables t{};
    auto add = [&t](uint8_t opcode, Op op, RiscForm form) {
        t.byOpcode[opcode] = { opcode, op, form };
        for (unsigned k = 0; k < 64; ++k)
            if (formTakes(form, k >> 4, (k >> 2) & 3, k & 3))
                t.byOpKinds[static_cast<unsigned>(op)][k] = opcode;
    };
    for (const RiscFormat &f : kRiscFormats)
        add(f.opcode, f.op, f.form);
    uint8_t k = 0;
    for (unsigned o = 0; o < kNumOps; ++o) {
        if (!kOpInfo[o].alu)
            continue;
        add(static_cast<uint8_t>(kAluRR + k), static_cast<Op>(o),
            RiscForm::AluRR);
        add(static_cast<uint8_t>(kAluRI + k), static_cast<Op>(o),
            RiscForm::AluRI);
        ++k;
    }
    return t;
}

constexpr RiscTables kRisc = buildRiscTables();

uint32_t
pack(uint8_t opcode, unsigned rd, unsigned rn, uint32_t imm16)
{
    return static_cast<uint32_t>(opcode) |
        ((rd & 0xf) << 8) | ((rn & 0xf) << 12) |
        ((imm16 & 0xffff) << 16);
}

uint32_t
packRRR(uint8_t opcode, unsigned rd, unsigned rn, unsigned rm)
{
    return static_cast<uint32_t>(opcode) |
        ((rd & 0xf) << 8) | ((rn & 0xf) << 12) | ((rm & 0xf) << 16);
}

uint32_t
pack24(uint8_t opcode, uint32_t imm24)
{
    return static_cast<uint32_t>(opcode) | ((imm24 & 0xffffff) << 8);
}

void
emitWord(std::vector<uint8_t> &out, uint32_t w)
{
    out.push_back(static_cast<uint8_t>(w));
    out.push_back(static_cast<uint8_t>(w >> 8));
    out.push_back(static_cast<uint8_t>(w >> 16));
    out.push_back(static_cast<uint8_t>(w >> 24));
}

bool
validReg(Reg r)
{
    return r < risc::kNumRegs;
}

/** True when @p mi's immediates and displacements fit @p form. */
bool
inRange(RiscForm form, const MachInst &mi)
{
    switch (form) {
      case RiscForm::ImmS16:
        return fitsSigned(mi.src1.disp, 16);
      case RiscForm::ImmU16:
        return mi.src1.disp >= 0 && mi.src1.disp <= 0xffff;
      case RiscForm::RegMem:
        return fitsSigned(mi.src1.disp, 16);
      case RiscForm::MemReg:
        return fitsSigned(mi.dst.disp, 16);
      case RiscForm::AluRI:
      case RiscForm::FlagRI:
        return fitsSigned(mi.src2.disp, 16);
      case RiscForm::Imm24:
        return mi.src1.disp >= 0 && mi.src1.disp < (1 << 24);
      default:
        return true;
    }
}

/** The opcode row that encodes @p mi, or nullptr. */
const RiscFormat *
riscFormatOf(const MachInst &mi)
{
    auto reg_ok = [](const Operand &o) {
        if (o.isReg())
            return validReg(o.reg);
        if (o.isMem())
            return validReg(o.base);
        return true;
    };
    if (!reg_ok(mi.dst) || !reg_ok(mi.src1) || !reg_ok(mi.src2))
        return nullptr;
    const uint8_t opcode =
        kRisc.byOpKinds[static_cast<unsigned>(mi.op)][kindsOf(mi)];
    if (opcode == 0)
        return nullptr;
    const RiscFormat &f = kRisc.byOpcode[opcode];
    return inRange(f.form, mi) ? &f : nullptr;
}

} // namespace

bool
encodableRisc(const MachInst &mi)
{
    return riscFormatOf(mi) != nullptr;
}

void
encodeRisc(const MachInst &mi, Addr pc, std::vector<uint8_t> &out)
{
    const RiscFormat *f = riscFormatOf(mi);
    hipstr_assert(f != nullptr);

    auto checked_off = [&](unsigned width) {
        // Signed word offset relative to the *next* instruction.
        int32_t delta = static_cast<int32_t>(mi.target) -
            static_cast<int32_t>(pc + 4);
        hipstr_assert(delta % 4 == 0);
        int32_t off = delta / 4;
        hipstr_assert(fitsSigned(off, width));
        return static_cast<uint32_t>(off);
    };
    auto u = [](int32_t v) { return static_cast<uint32_t>(v); };

    const uint8_t op = f->opcode;
    uint32_t w = 0;
    switch (f->form) {
      case RiscForm::Invalid:
        hipstr_panic("encodeRisc: no form for %s", opName(mi.op));
      case RiscForm::Bare:
        w = pack(op, 0, 0, 0);
        break;
      case RiscForm::MovRR:
        w = pack(op, mi.dst.reg, mi.src1.reg, 0);
        break;
      case RiscForm::ImmS16:
      case RiscForm::ImmU16:
        w = pack(op, mi.dst.reg, 0, u(mi.src1.disp));
        break;
      case RiscForm::RegMem:
        w = pack(op, mi.dst.reg, mi.src1.base, u(mi.src1.disp));
        break;
      case RiscForm::MemReg:
        w = pack(op, mi.src1.reg, mi.dst.base, u(mi.dst.disp));
        break;
      case RiscForm::AluRR:
        w = packRRR(op, mi.dst.reg, mi.src1.reg, mi.src2.reg);
        break;
      case RiscForm::AluRI:
        w = pack(op, mi.dst.reg, mi.src1.reg, u(mi.src2.disp));
        break;
      case RiscForm::FlagRR:
        w = packRRR(op, 0, mi.src1.reg, mi.src2.reg);
        break;
      case RiscForm::FlagRI:
        w = pack(op, 0, mi.src1.reg, u(mi.src2.disp));
        break;
      case RiscForm::Branch24:
        w = pack24(op, checked_off(24));
        break;
      case RiscForm::Branch16:
        w = pack(op, static_cast<unsigned>(mi.cond), 0, checked_off(16));
        break;
      case RiscForm::IndReg:
        w = pack(op, 0, mi.src1.reg, 0);
        break;
      case RiscForm::Imm24:
        w = pack24(op, u(mi.src1.disp));
        break;
    }
    emitWord(out, w);
}

unsigned
sizeRisc(const MachInst &mi)
{
    (void)mi;
    return 4;
}

bool
decodeRisc(const uint8_t *bytes, size_t len, Addr pc, MachInst &out)
{
    if (len < 4 || (pc & 3) != 0)
        return false;

    uint32_t w;
    std::memcpy(&w, bytes, 4);

    const RiscFormat &f = kRisc.byOpcode[w & 0xff];
    Reg rd = static_cast<Reg>((w >> 8) & 0xf);
    Reg rn = static_cast<Reg>((w >> 12) & 0xf);
    Reg rm = static_cast<Reg>((w >> 16) & 0xf);
    int32_t simm16 = signExtend(w >> 16, 16);
    int32_t simm24 = static_cast<int32_t>(signExtend(w >> 8, 24));

    out = MachInst{};
    out.size = 4;
    out.op = f.op;

    auto branch_target = [&](int32_t word_off) {
        return static_cast<Addr>(
            static_cast<int64_t>(pc) + 4 +
            static_cast<int64_t>(word_off) * 4);
    };

    switch (f.form) {
      case RiscForm::Invalid:
        return false;
      case RiscForm::Bare:
        return true;
      case RiscForm::MovRR:
        out.dst = Operand::makeReg(rd);
        out.src1 = Operand::makeReg(rn);
        return true;
      case RiscForm::ImmS16:
        out.dst = Operand::makeReg(rd);
        out.src1 = Operand::makeImm(simm16);
        return true;
      case RiscForm::ImmU16:
        out.dst = Operand::makeReg(rd);
        out.src1 = Operand::makeImm(
            static_cast<int32_t>((w >> 16) & 0xffff));
        return true;
      case RiscForm::RegMem:
        out.dst = Operand::makeReg(rd);
        out.src1 = Operand::makeMem(rn, simm16);
        return true;
      case RiscForm::MemReg:
        out.dst = Operand::makeMem(rn, simm16);
        out.src1 = Operand::makeReg(rd);
        return true;
      case RiscForm::AluRR:
        out.dst = Operand::makeReg(rd);
        out.src1 = Operand::makeReg(rn);
        out.src2 = Operand::makeReg(rm);
        return true;
      case RiscForm::AluRI:
        out.dst = Operand::makeReg(rd);
        out.src1 = Operand::makeReg(rn);
        out.src2 = Operand::makeImm(simm16);
        return true;
      case RiscForm::FlagRR:
        out.src1 = Operand::makeReg(rn);
        out.src2 = Operand::makeReg(rm);
        return true;
      case RiscForm::FlagRI:
        out.src1 = Operand::makeReg(rn);
        out.src2 = Operand::makeImm(simm16);
        return true;
      case RiscForm::Branch24:
        out.target = branch_target(simm24);
        return true;
      case RiscForm::Branch16:
        if (rd >= kNumConds)
            return false;
        out.cond = static_cast<Cond>(rd);
        out.target = branch_target(simm16);
        return true;
      case RiscForm::IndReg:
        out.src1 = Operand::makeReg(rn);
        return true;
      case RiscForm::Imm24:
        out.src1 = Operand::makeImm(
            static_cast<int32_t>((w >> 8) & 0xffffff));
        return true;
    }
    return false;
}

} // namespace detail
} // namespace hipstr
