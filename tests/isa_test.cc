/**
 * @file
 * ISA-layer unit tests: instruction semantics on hand-assembled
 * programs, flags and conditions, memory permissions and journaling,
 * and the guest OS interface.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "isa/codec.hh"
#include "isa/guest_os.hh"
#include "isa/interp.hh"
#include "isa/memory.hh"

namespace hipstr
{
namespace
{

/** Assemble a program into memory at the ISA's code base and run. */
struct MiniMachine
{
    Memory mem;
    GuestOs os;
    IsaKind isa;

    explicit MiniMachine(IsaKind k) : isa(k)
    {
        mem.setRegion(layout::codeBase(isa), 0x1000, PermRX, "code");
        mem.setRegion(layout::kStackLimit,
                      layout::kStackTop - layout::kStackLimit,
                      PermRW, "stack");
        mem.setRegion(layout::kGlobalsBase, 0x1000, PermRW, "data");
    }

    Addr
    assemble(const std::vector<MachInst> &insts)
    {
        std::vector<uint8_t> bytes;
        Addr pc = layout::codeBase(isa);
        for (MachInst mi : insts) {
            encodeInst(isa, mi, pc + Addr(bytes.size()), bytes);
        }
        mem.rawWriteBytes(pc, bytes.data(), bytes.size());
        return pc;
    }

    RunResult
    run(const std::vector<MachInst> &insts,
        uint64_t max_insts = 10'000)
    {
        Addr entry = assemble(insts);
        Interpreter interp(isa, mem, os);
        interp.state.pc = entry;
        interp.state.setSp(layout::kStackTop - 64);
        RunResult r = interp.run(max_insts);
        final = interp.state;
        return r;
    }

    MachineState final{ IsaKind::Cisc };

    /** ISA-portable 32-bit constant materialization. */
    std::vector<MachInst>
    movImm(Reg rd, int32_t v) const
    {
        if (isa == IsaKind::Cisc ||
            (v >= -32768 && v <= 32767)) {
            return { MachInst::movRI(rd, v) };
        }
        return { MachInst::movRI(
                     rd, static_cast<int32_t>(
                             static_cast<int16_t>(v & 0xffff))),
                 MachInst::movHi(
                     rd, static_cast<int32_t>(
                             (static_cast<uint32_t>(v) >> 16) &
                             0xffff)) };
    }
};

/** Concatenate instruction snippets. */
static std::vector<MachInst>
cat(std::initializer_list<std::vector<MachInst>> parts)
{
    std::vector<MachInst> out;
    for (const auto &p : parts)
        out.insert(out.end(), p.begin(), p.end());
    return out;
}

class IsaSemantics : public ::testing::TestWithParam<IsaKind>
{
};

TEST_P(IsaSemantics, AluBasics)
{
    MiniMachine m(GetParam());
    Reg a = 0, b2 = 1;
    auto r = m.run({
        MachInst::movRI(a, 21),
        MachInst::movRI(b2, 4),
        MachInst::alu(Op::Mul, a, a, Operand::makeReg(b2)),
        MachInst::alu(Op::Add, a, a, Operand::makeImm(16)),
        MachInst::alu(Op::Shr, a, a, Operand::makeImm(2)),
        MachInst::halt(),
    });
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(m.final.reg(0), (21u * 4 + 16) >> 2);
}

TEST_P(IsaSemantics, DivideByZeroYieldsZero)
{
    MiniMachine m(GetParam());
    auto r = m.run({
        MachInst::movRI(0, 100),
        MachInst::movRI(1, 0),
        MachInst::alu(Op::Divu, 0, 0, Operand::makeReg(1)),
        MachInst::halt(),
    });
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(m.final.reg(0), 0u);
}

TEST_P(IsaSemantics, SignedAndUnsignedConditions)
{
    // -1 < 1 signed but -1 > 1 unsigned.
    MiniMachine m(GetParam());
    Addr base = layout::codeBase(GetParam());
    // Layout: cmp; jlt +L1; halt; L1: cmp; ja +L2; halt; L2: mov;halt
    std::vector<MachInst> insts = {
        MachInst::movRI(0, -1),
        MachInst::movRI(1, 1),
        MachInst::cmp(Operand::makeReg(0), Operand::makeReg(1)),
        MachInst::jcc(Cond::Lt, 0), // patched below
        MachInst::halt(),
        MachInst::cmp(Operand::makeReg(0), Operand::makeReg(1)),
        MachInst::jcc(Cond::A, 0), // patched below
        MachInst::halt(),
        MachInst::movRI(2, 77),
        MachInst::halt(),
    };
    // Compute layout to patch branch targets.
    std::vector<Addr> at(insts.size());
    Addr pc = base;
    for (size_t i = 0; i < insts.size(); ++i) {
        at[i] = pc;
        pc += encodedSize(GetParam(), insts[i]);
    }
    insts[3].target = at[5];
    insts[6].target = at[8];

    auto r = m.run(insts);
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(m.final.reg(2), 77u);
}

TEST_P(IsaSemantics, CallPlacesReturnAddressOnStackPath)
{
    // call f; halt; f: ret  — after the call/ret round trip the halt
    // executes. On Cisc the RA is pushed, on Risc it rides LR and the
    // callee is a bare POPRET... so push it manually for Risc.
    IsaKind isa = GetParam();
    MiniMachine m(isa);
    Addr base = layout::codeBase(isa);

    std::vector<MachInst> insts;
    if (isa == IsaKind::Cisc) {
        insts = {
            MachInst::call(0), // patched
            MachInst::movRI(3, 9),
            MachInst::halt(),
            MachInst::ret(),
        };
    } else {
        // Risc: call sets LR; the callee stores LR at the stack top
        // and pop-returns, mirroring the compiler's fused epilogue.
        insts = {
            MachInst::call(0), // patched
            MachInst::movRI(3, 9),
            MachInst::halt(),
            // callee:
            MachInst::alu(Op::Sub, risc::SP, risc::SP,
                          Operand::makeImm(4)),
            MachInst::store(risc::SP, 0, risc::LR),
            MachInst::ret(),
        };
    }
    std::vector<Addr> at(insts.size());
    Addr pc = base;
    for (size_t i = 0; i < insts.size(); ++i) {
        at[i] = pc;
        pc += encodedSize(isa, insts[i]);
    }
    insts[0].target = at[3];
    auto r = m.run(insts);
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(m.final.reg(3), 9u);
}

TEST_P(IsaSemantics, ByteAccessZeroExtends)
{
    MiniMachine m(GetParam());
    Addr g = layout::kGlobalsBase;
    m.mem.rawWrite32(g, 0xdeadbeef);
    auto r = m.run(cat({
        m.movImm(1, static_cast<int32_t>(g)),
        { MachInst::loadByte(0, 1, 3), // 0xde
          MachInst::storeByte(1, 8, 0),
          MachInst::load(2, 1, 8),
          MachInst::halt() },
    }));
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(m.final.reg(0), 0xdeu);
    EXPECT_EQ(m.final.reg(2), 0xdeu);
}

TEST_P(IsaSemantics, WritingCodeFaults)
{
    MiniMachine m(GetParam());
    auto r = m.run(cat({
        m.movImm(1, static_cast<int32_t>(
                        layout::codeBase(GetParam()))),
        { MachInst::store(1, 0, 0), MachInst::halt() },
    }));
    EXPECT_EQ(r.reason, StopReason::Fault);
}

TEST_P(IsaSemantics, JumpToUnmappedCrashes)
{
    MiniMachine m(GetParam());
    auto r = m.run(cat({
        m.movImm(1, 0x00700000), // unmapped
        { MachInst::jmpInd(1) },
    }));
    EXPECT_EQ(r.reason, StopReason::BadInst);
}

INSTANTIATE_TEST_SUITE_P(BothIsas, IsaSemantics,
                         ::testing::Values(IsaKind::Risc,
                                           IsaKind::Cisc),
                         [](const auto &info) {
                             return isaName(info.param);
                         });

TEST(Memory, JournalRollsBackExactly)
{
    Memory mem;
    mem.setRegion(0x1000, 0x1000, PermRW, "scratch");
    mem.write32(0x1000, 0x11111111);
    mem.write32(0x1004, 0x22222222);
    mem.beginJournal();
    mem.write32(0x1000, 0xaaaaaaaa);
    mem.write8(0x1005, 0xbb);
    mem.write16(0x1008, 0xcccc);
    mem.rollback();
    EXPECT_EQ(mem.read32(0x1000), 0x11111111u);
    EXPECT_EQ(mem.read32(0x1004), 0x22222222u);
    EXPECT_EQ(mem.read16(0x1008), 0u);
}

TEST(Memory, PermissionLayering)
{
    Memory mem;
    mem.setRegion(0x1000, 0x2000, PermRW, "outer");
    mem.setRegion(0x1800, 0x100, PermR, "inner"); // later wins
    EXPECT_EQ(mem.permAt(0x1400), PermRW);
    EXPECT_EQ(mem.permAt(0x1880), PermR);
    EXPECT_THROW(mem.write32(0x1880, 1), Memory::Fault);
    EXPECT_NO_THROW(mem.write32(0x1400, 1));
}

// A span hint's window is as wide as the access it proves: a byte
// access may start in the last 3 bytes of the address space, where a
// 4-byte access may not. A byte probe there must refill a window that
// contains the address, or the JIT's probe-then-retry loop would miss
// the window on every retry.
TEST(Memory, ByteSpanHintCoversLastBytes)
{
    Memory mem;
    const Addr tail = layout::kMemEnd - 0x1000;
    mem.setRegion(tail, 0x1000, PermRW, "tail");
    for (Addr back : { 1u, 2u, 3u }) {
        const Addr addr = layout::kMemEnd - back;
        for (Perm p : { PermR, PermW }) {
            Memory::SpanHint h;
            ASSERT_TRUE(mem.probe8Span(h, addr, p)) << back;
            EXPECT_LE(h.lo, addr) << back;
            EXPECT_GE(h.hi, addr) << back;
            EXPECT_EQ(h.lo, tail);
            EXPECT_EQ(h.hi, layout::kMemEnd - 1);
        }
        Memory::SpanHint wh, rh;
        ASSERT_TRUE(mem.tryWrite8Span(wh, addr, uint8_t(0xa0 + back)));
        uint8_t v = 0;
        ASSERT_TRUE(mem.tryRead8Span(rh, addr, v));
        EXPECT_EQ(v, 0xa0 + back);
        EXPECT_EQ(mem.rawRead8(addr), 0xa0 + back);
    }

    // The word window keeps its kMemEnd - 4 bound.
    Memory::SpanHint w;
    ASSERT_TRUE(mem.probe32Span(w, layout::kMemEnd - 4, PermR));
    EXPECT_EQ(w.lo, tail);
    EXPECT_EQ(w.hi, layout::kMemEnd - 4);
    Memory::SpanHint past;
    EXPECT_FALSE(mem.probe32Span(past, layout::kMemEnd - 3, PermR));

    // A byte without the needed permission never probes true.
    mem.setRegion(tail, 0x10, PermR, "tail-ro");
    Memory::SpanHint ro, none;
    EXPECT_FALSE(mem.probe8Span(ro, tail + 1, PermW));
    EXPECT_TRUE(mem.probe8Span(ro, tail + 1, PermR));
    EXPECT_EQ(mem.permAt(tail - 1), PermNone);
    EXPECT_FALSE(mem.probe8Span(none, tail - 1, PermR));
    EXPECT_FALSE(mem.probe8Span(none, layout::kMemEnd, PermR));
}

/** Offset of the first byte in [p, p+len) that is not @p v, or -1. */
long
firstNot(const uint8_t *p, size_t len, uint8_t v)
{
    for (size_t i = 0; i < len; ++i)
        if (p[i] != v)
            return static_cast<long>(i);
    return -1;
}

// zeroRange wipes exactly [base, base+len): on the discard path (many
// whole pages, unaligned ends) and on the memset path (a few pages,
// within one page, up to the address-space end), the bytes around the
// range keep their contents and the store never moves.
TEST(Memory, ZeroRangeWipesExactlyTheRange)
{
    Memory mem;
    const uint8_t *const data = mem.data();
    uint8_t *const jit_base = mem.jitBase();
    ASSERT_EQ(firstNot(data, layout::kMemEnd, 0), -1)
        << "fresh memory must read as zero";

    struct Range
    {
        Addr base;
        uint32_t len;
    };
    const std::vector<Range> ranges = {
        { layout::kDataBase + 0x123,
          layout::kStackTop - layout::kDataBase - 0x123 - 0x77 },
        { layout::kHeapBase + 0x10, 3 * 4096 },
        { layout::kStackLimit + 0x40, 0x100 },
        { layout::kDataBase, 64 * 4096 },
        { layout::kMemEnd - 40 * 4096 - 5, 40 * 4096 + 5 },
        { layout::kGlobalsBase + 1, 0 },
    };
    constexpr uint32_t kMargin = 2 * 4096;
    for (const Range &r : ranges) {
        const Addr lo = r.base > kMargin ? r.base - kMargin : 0;
        const Addr hi = std::min<Addr>(r.base + r.len + kMargin,
                                       layout::kMemEnd);
        std::memset(jit_base + lo, 0xa5, hi - lo);
        mem.zeroRange(r.base, r.len);
        EXPECT_EQ(mem.data(), data);
        EXPECT_EQ(mem.jitBase(), jit_base);
        EXPECT_EQ(firstNot(data + lo, r.base - lo, 0xa5), -1)
            << "bytes below 0x" << std::hex << r.base << " clobbered";
        EXPECT_EQ(firstNot(data + r.base, r.len, 0), -1)
            << "range at 0x" << std::hex << r.base << " not zeroed";
        EXPECT_EQ(firstNot(data + r.base + r.len, hi - r.base - r.len,
                           0xa5),
                  -1)
            << "bytes above 0x" << std::hex << r.base + r.len
            << " clobbered";
        // Wiped pages are writable again and read back what is stored.
        if (r.len >= 4) {
            mem.rawWrite32(r.base, 0x01020304);
            EXPECT_EQ(mem.rawRead32(r.base), 0x01020304u);
        }
        std::memset(jit_base + lo, 0, hi - lo);
    }
}

#if defined(__linux__)
// A host-side access one byte past the guest address space lands on
// the guard page and faults, instead of silently reading whatever
// mapping happens to follow the backing store.
TEST(MemoryDeathTest, AccessPastEndHitsGuardPage)
{
    Memory mem;
    const volatile uint8_t *p = mem.data();
    EXPECT_DEATH((void)p[layout::kMemEnd], "");
}
#endif

TEST(GuestOs, WriteBufAndChecksum)
{
    Memory mem;
    mem.setRegion(0x1000, 0x1000, PermRW, "data");
    for (int i = 0; i < 8; ++i)
        mem.write8(0x1000 + i, static_cast<uint8_t>('a' + i));

    GuestOs os;
    MachineState st(IsaKind::Cisc);
    const IsaDescriptor &desc = isaDescriptor(IsaKind::Cisc);
    st.setReg(desc.retReg, uint32_t(SyscallNo::WriteBuf));
    st.setReg(desc.argRegs[1], 0x1000);
    st.setReg(desc.argRegs[2], 8);
    st.setReg(desc.argRegs[3], 7);
    EXPECT_TRUE(os.handleSyscall(st, mem));
    ASSERT_EQ(os.output().size(), 9u); // 8 bytes + connection tag
    EXPECT_EQ(os.output()[0], 'a');
    EXPECT_EQ(os.output()[8], 7);
    EXPECT_EQ(st.reg(desc.retReg), 8u);

    uint64_t sum1 = os.outputChecksum();
    os.reset();
    EXPECT_NE(os.outputChecksum(), sum1);
}

TEST(GuestOs, BulkWriteBufKeepsThePerByteWindow)
{
    // WriteBuf appends its buffer and terminator in one step. The
    // retained output, the checksum and the byte total must be what
    // appending the same stream one byte at a time (push, then trim
    // to the cap once past twice the cap) leaves, for every chunking:
    // chunks shorter than, equal to and just past 2 * cap, and with
    // no cap at all.
    constexpr Addr kBase = 0x10000;
    constexpr uint32_t kStream = 9000;
    Memory mem;
    mem.setRegion(kBase, 0x4000, PermRW, "data");
    std::vector<uint8_t> stream(kStream);
    for (uint32_t i = 0; i < kStream; ++i) {
        stream[i] = static_cast<uint8_t>(i * 37 + 11);
        mem.write8(kBase + i, stream[i]);
    }
    const IsaDescriptor &desc = isaDescriptor(IsaKind::Risc);

    for (size_t cap : { size_t(0), size_t(1), size_t(5), size_t(64),
                        size_t(1000) }) {
        std::vector<uint8_t> ref;
        uint64_t ref_hash = kFnvBasis;
        for (uint8_t b : stream) {
            foldBytes(ref_hash, &b, 1);
            ref.push_back(b);
            if (cap != 0 && ref.size() > 2 * cap)
                ref.erase(ref.begin(),
                          ref.end() - static_cast<std::ptrdiff_t>(cap));
        }
        for (uint32_t chunk :
             { 1u, 2u, 7u, uint32_t(2 * cap), uint32_t(2 * cap + 1),
               uint32_t(2 * cap + 2), 129u, 4097u }) {
            if (chunk == 0 || chunk > 4097)
                continue;
            const std::string label = "cap " + std::to_string(cap) +
                " chunk " + std::to_string(chunk);
            GuestOs os;
            os.setOutputCap(cap);
            MachineState st(IsaKind::Risc);
            for (uint32_t off = 0; off < kStream; off += chunk) {
                const uint32_t n = std::min(chunk, kStream - off);
                st.setReg(desc.retReg, uint32_t(SyscallNo::WriteBuf));
                st.setReg(desc.argRegs[1], kBase + off);
                st.setReg(desc.argRegs[2], n - 1);
                st.setReg(desc.argRegs[3], stream[off + n - 1]);
                ASSERT_TRUE(os.handleSyscall(st, mem)) << label;
                ASSERT_EQ(st.reg(desc.retReg), n - 1) << label;
            }
            EXPECT_EQ(os.output(), ref) << label;
            EXPECT_EQ(os.outputChecksum(), ref_hash) << label;
            EXPECT_EQ(os.totalOutputBytes(), kStream) << label;
        }
    }
}

TEST(GuestOs, ExecveCapturesArgs)
{
    Memory mem;
    GuestOs os;
    MachineState st(IsaKind::Risc);
    const IsaDescriptor &desc = isaDescriptor(IsaKind::Risc);
    st.setReg(desc.retReg, uint32_t(SyscallNo::Execve));
    st.setReg(desc.argRegs[1], 0x11);
    st.setReg(desc.argRegs[2], 0x22);
    st.setReg(desc.argRegs[3], 0x33);
    EXPECT_FALSE(os.handleSyscall(st, mem)); // program ends
    EXPECT_TRUE(os.execveFired());
    EXPECT_EQ(os.execveArgs()[0], 0x11u);
    EXPECT_EQ(os.execveArgs()[2], 0x33u);
}

} // namespace
} // namespace hipstr
