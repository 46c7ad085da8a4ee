/**
 * @file
 * Trace-JIT smoke tier (`ctest -L jit_smoke`): the fast canaries for
 * the direct x86-64 emission engine. Covers the steady-state shape
 * the fig9 measurement depends on (hot execution actually runs in
 * compiled code, with zero bailouts), side-exit equivalence against
 * the threaded trace interpreter, the tiny-arena eviction storm
 * (generational reclaim plus lazy recompilation), the W^X
 * executable-arena round trip, and the page-level W^X invariant (on
 * Linux, read back from /proc/self/maps). On hosts where the JIT cannot run at
 * all (non-x86-64, sanitizer builds) the execution tests skip — the
 * differential suite still covers the interpreter there.
 */

#include <gtest/gtest.h>

#include <cstring>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "binary/loader.hh"
#include "compiler/compile.hh"
#include "isa/exec_inline.hh"
#include "isa/guest_os.hh"
#include "support/hash.hh"
#include "vm/jit/arena.hh"
#include "vm/jit/compiler.hh"
#include "vm/jit/emitter.hh"
#include "vm/jit/engine.hh"
#include "vm/psr_vm.hh"
#include "workloads/workloads.hh"

#if defined(__linux__)
#include <unistd.h>
#endif

namespace hipstr
{
namespace
{

bool
jitHostOk()
{
    const char *reason = nullptr;
    return jit::TraceJit::hostSupported(&reason);
}

/** Final counters of one steady-state hmmer run. */
struct SmokeRun
{
    uint64_t guestInsts = 0;
    uint64_t traceFollows = 0;
    uint64_t traceSideExits = 0;
    jit::JitStats jit;
    uint64_t arenaGeneration = 0;
    size_t arenaUsed = 0;
    uint32_t exitCode = 0;
    uint64_t outputChecksum = 0;
    VmStats stats;
    TraceStats traces;
};

/**
 * Run hmmer on the Cisc VM for @p budget guest instructions in
 * @p slice-sized run() calls, calling @p each_slice after every call
 * (compile brackets are always closed between run() calls).
 */
SmokeRun
steadyRun(PsrConfig::JitMode mode, size_t arena_bytes,
          uint64_t budget, uint64_t slice = 100'000,
          const std::function<void(PsrVm &)> &each_slice = {})
{
    FatBinary bin = compileModule(buildHmmer(WorkloadConfig{}));
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    cfg.seed = 11;
    cfg.jitMode = mode;
    if (arena_bytes != 0)
        cfg.jitArenaBytes = arena_bytes;
    PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
    vm.reset();
    (void)vm.run(50'000); // warm the code cache and form traces
    uint64_t executed = 0;
    while (executed < budget) {
        uint64_t before = vm.stats.guestInsts;
        VmRunResult r = vm.run(slice);
        executed += vm.stats.guestInsts - before;
        if (each_slice)
            each_slice(vm);
        if (r.reason != VmStop::StepLimit) {
            os.reset();
            vm.reset();
        }
    }
    SmokeRun out;
    out.guestInsts = vm.stats.guestInsts;
    out.traceFollows = vm.stats.traceFollows;
    out.traceSideExits = vm.traceStats().sideExits;
    out.jit = vm.jitStats();
    out.arenaGeneration = vm.jitEngine().arenaGeneration();
    out.arenaUsed = vm.jitEngine().arenaUsed();
    out.exitCode = os.exitCode();
    out.outputChecksum = os.outputChecksum();
    out.stats = vm.stats;
    out.traces = vm.traceStats();
    return out;
}

TEST(JitSmoke, SteadyStateIsJitDominated)
{
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    SmokeRun r = steadyRun(PsrConfig::JitMode::On, 0, 2'000'000);
    // The hot loop must compile and then actually execute compiled
    // code — and never fall back: every per-entry gate is off in
    // this configuration, so a bailout means compileTrace declined
    // a handler the steady-state workload uses.
    EXPECT_GT(r.jit.compiledTraces, 0u);
    EXPECT_GT(r.jit.codeBytes, 0u);
    EXPECT_GT(r.jit.executions, 100u);
    EXPECT_EQ(r.jit.bailouts, 0u);
    // Compiled entries dominate trace execution: the follows counter
    // (segment boundaries crossed inside traces) must dwarf the
    // entry count, i.e. entries run many segments in JIT code.
    EXPECT_GT(r.traceFollows, r.jit.executions);
}

TEST(JitSmoke, SideExitsMatchInterpreter)
{
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    SmokeRun off = steadyRun(PsrConfig::JitMode::Off, 0, 2'000'000);
    SmokeRun on = steadyRun(PsrConfig::JitMode::On, 0, 2'000'000);
    // Identical workload, seed, and budget: the trace engine's
    // deterministic counters must not depend on which engine ran the
    // trace bodies, and every guard that side-exits in the
    // interpreter must side-exit in compiled code.
    EXPECT_EQ(on.guestInsts, off.guestInsts);
    EXPECT_EQ(on.traceFollows, off.traceFollows);
    EXPECT_EQ(on.traceSideExits, off.traceSideExits);
    EXPECT_EQ(on.exitCode, off.exitCode);
    EXPECT_EQ(on.outputChecksum, off.outputChecksum);
    // The engine-local mirror counts only JIT-taken side exits.
    EXPECT_GT(on.jit.sideExits, 0u);
    EXPECT_LE(on.jit.sideExits, on.traceSideExits);
    EXPECT_EQ(off.jit.executions, 0u);
}

TEST(JitSmoke, TinyArenaEvictionStorm)
{
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    // An arena smaller than the workload's compiled footprint forces
    // generational reclaim: every reset strands all compiled traces
    // and they recompile lazily on their next entry. The run must
    // stay correct and keep executing compiled code throughout.
    SmokeRun big = steadyRun(PsrConfig::JitMode::On, 0, 1'000'000);
    SmokeRun tiny =
        steadyRun(PsrConfig::JitMode::On, 16 * 1024, 1'000'000);
    EXPECT_GT(tiny.arenaGeneration, big.arenaGeneration);
    EXPECT_GT(tiny.jit.compiledTraces, big.jit.compiledTraces)
        << "eviction must force recompilation";
    EXPECT_GT(tiny.jit.executions, 0u);
    EXPECT_LE(tiny.arenaUsed, 16u * 1024u);
    EXPECT_EQ(tiny.guestInsts, big.guestInsts);
    EXPECT_EQ(tiny.traceFollows, big.traceFollows);
    EXPECT_EQ(tiny.outputChecksum, big.outputChecksum);
}

TEST(JitSmoke, EvictionStormRecompilesSideTraces)
{
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    // Side traces live in the same arena as their roots: a reset
    // strands the whole tree, and children recompile lazily on their
    // next entry exactly like roots. Which arena generation compiled
    // a child must not show in any deterministic counter, nor in the
    // side-trace links taken.
    SmokeRun big = steadyRun(PsrConfig::JitMode::On, 0, 1'000'000);
    SmokeRun tiny =
        steadyRun(PsrConfig::JitMode::On, 16 * 1024, 1'000'000);
    ASSERT_GT(big.traces.sideFormed, 0u);
    EXPECT_GT(big.traces.sideEntries, 0u);
    EXPECT_GT(tiny.arenaGeneration, big.arenaGeneration);
    EXPECT_GT(tiny.jit.compiledTraces, big.jit.compiledTraces);
    EXPECT_EQ(std::memcmp(&tiny.stats, &big.stats, sizeof(VmStats)), 0);
    EXPECT_EQ(tiny.traces.formed, big.traces.formed);
    EXPECT_EQ(tiny.traces.sideFormed, big.traces.sideFormed);
    EXPECT_EQ(tiny.traces.sideEntries, big.traces.sideEntries);
    EXPECT_EQ(tiny.traces.sideExits, big.traces.sideExits);
    EXPECT_EQ(tiny.outputChecksum, big.outputChecksum);
}

TEST(JitSmoke, NoExecFallbacksOnAnyWorkload)
{
    // Every shape the workloads run on a trace has its own handler,
    // so the generic Exec fallback never fires: not in the threaded
    // interpreter, not in compiled code. A new op or operand shape
    // that slips back to Exec (a silent native-coverage regression)
    // fails here without any timing.
    const bool jit_ok = jitHostOk();
    for (const std::string &name : allWorkloadNames()) {
        WorkloadConfig wcfg;
        wcfg.scale = 1;
        FatBinary bin = compileModule(buildWorkload(name, wcfg));
        for (IsaKind isa : kAllIsas) {
            for (PsrConfig::JitMode mode :
                 { PsrConfig::JitMode::Off, PsrConfig::JitMode::On }) {
                const std::string label = name + "/" + isaName(isa) +
                    (mode == PsrConfig::JitMode::On ? "/jit=on"
                                                    : "/jit=off");
                Memory mem;
                loadFatBinary(bin, mem);
                GuestOs os;
                PsrConfig cfg;
                cfg.seed = 7;
                cfg.traceMode = PsrConfig::TraceMode::On;
                cfg.jitMode = mode;
                PsrVm vm(bin, isa, mem, os, cfg);
                vm.reset();
                VmRunResult r = vm.run(400'000'000);
                ASSERT_EQ(r.reason, VmStop::Exited) << label;
                EXPECT_GT(vm.stats.traceFollows, 0u) << label;
                EXPECT_EQ(vm.traceStats().execFallbacks, 0u) << label;
                EXPECT_EQ(vm.jitStats().execFallbacks, 0u) << label;
                if (mode == PsrConfig::JitMode::On && jit_ok) {
                    EXPECT_GT(vm.jitStats().executions, 0u) << label;
                }
            }
        }
    }
}

/**
 * The emitted bytes of every live trace the nine workloads form on
 * both ISAs, side traces included, pinned in formation order. The
 * hash moves with any change to which traces form, not only with
 * code generation. Traces form with the JIT off and compile against a
 * fixed layout with fake helper addresses, so nothing here executes
 * generated code and the test runs on any host and in sanitizer
 * builds.
 */
TEST(JitSmoke, EmittedCodePinned)
{
    jit::CompileLayout lay;
    lay.frameStats = 0x00;
    lay.frameMemBase = 0x08;
    lay.frameRegs = 0x10;
    lay.frameBudget = 0x18;
    lay.frameExitCode = 0x20;
    lay.frameExitOp = 0x24;
    lay.frameOpHints = 0x28;
    lay.flagsOffFromRegs = 0x44;
    lay.statsGuestInsts = 0x00;
    lay.statsHostInsts = 0x08;
    lay.statsMemReads = 0x30;
    lay.statsMemWrites = 0x38;
    lay.statsTraceFollows = 0x70;
    lay.memProbeHelper = reinterpret_cast<const void *>(0x1111111111ull);
    lay.execHelper = reinterpret_cast<const void *>(0x2222222222ull);
    lay.segCallHelper = reinterpret_cast<const void *>(0x3333333333ull);

    uint64_t h = kFnvBasis;
    size_t traces = 0;
    for (const std::string &name : allWorkloadNames()) {
        WorkloadConfig wcfg;
        wcfg.scale = 1;
        FatBinary bin = compileModule(buildWorkload(name, wcfg));
        for (IsaKind isa : kAllIsas) {
            Memory mem;
            loadFatBinary(bin, mem);
            GuestOs os;
            PsrConfig cfg;
            cfg.seed = 5;
            cfg.traceMode = PsrConfig::TraceMode::On;
            cfg.jitMode = PsrConfig::JitMode::Off;
            PsrVm vm(bin, isa, mem, os, cfg);
            vm.reset();
            (void)vm.run(1'000'000);
            const std::string label = name + "/" + isaName(isa);
            size_t here = 0;
            for (const auto &tr : vm.traceEngine().live()) {
                jit::Emitter em;
                const bool ok = jit::compileTrace(*tr, lay, em);
                EXPECT_TRUE(ok) << label;
                fold64(h, ok);
                fold64(h, em.size());
                foldBytes(h, em.code.data(), em.size());
                ++here;
            }
            // Every formed trace is still live, so all were hashed.
            EXPECT_EQ(here, vm.traceStats().formed) << label;
            traces += here;
        }
    }
    EXPECT_GT(traces, 50u);
    EXPECT_EQ(h, 0x5f49eb6f3951c36bull) << traces << " traces";
}

TEST(JitSmoke, MovMR8EncodingPinned)
{
    // mov byte [r14+rdx], r8 for every register a guest value can be
    // stored from: the allocatable hosts and the rax scratch. The REX
    // prefix is mandatory even for rbp/rsi/rdi — without it those
    // encodings name ch/dh/bh.
    struct Case
    {
        uint8_t src;
        std::vector<uint8_t> bytes;
    };
    const std::vector<Case> cases = {
        { jit::RAX, { 0x41, 0x88, 0x04, 0x16 } }, // al
        { jit::RBP, { 0x41, 0x88, 0x2c, 0x16 } }, // bpl
        { jit::RSI, { 0x41, 0x88, 0x34, 0x16 } }, // sil
        { jit::RDI, { 0x41, 0x88, 0x3c, 0x16 } }, // dil
        { jit::R8, { 0x45, 0x88, 0x04, 0x16 } },  // r8b
        { jit::R9, { 0x45, 0x88, 0x0c, 0x16 } },  // r9b
        { jit::R10, { 0x45, 0x88, 0x14, 0x16 } }, // r10b
        { jit::R11, { 0x45, 0x88, 0x1c, 0x16 } }, // r11b
    };
    for (const Case &c : cases) {
        jit::Emitter em;
        em.movMR8(jit::Mem(jit::R14, jit::RDX, 0), c.src);
        EXPECT_EQ(em.code, c.bytes) << "src " << int(c.src);
    }
    // A base that needs no REX of its own still gets the bare 0x40.
    jit::Emitter em;
    em.movMR8(jit::Mem(jit::RBX, 8), jit::RSI);
    EXPECT_EQ(em.code, (std::vector<uint8_t>{ 0x40, 0x88, 0x73, 0x08 }));
}

/** Where the hand-built byte trace stops early, if anywhere. */
enum class ByteTrap
{
    None,
    StoreToReadOnly,
    StoreToCode,
    LoadUnmapped
};

/**
 * One straight-line trace of Lea/Movb ops and the block it claims to
 * come from. Filler leas (R(g) = R(g) + 0) give guest register g a
 * use count that falls with g, so the JIT assigns g0..g6 to rbp, rsi,
 * rdi, r8, r9, r10, r11 and leaves g7 and g8 in their homes; each of
 * g0..g8 then stores its low byte and loads a byte back. Two stores
 * and a load touch the last three bytes of the address space, where
 * only a byte-wide hint window admits them.
 */
struct ByteTrace
{
    TranslatedBlock blk;
    SuperTrace tr;

    explicit ByteTrace(ByteTrap trap)
    {
        constexpr Reg kRo = 9, kCode = 10, kUnmapped = 11, kTail = 12;
        std::vector<MachInst> mis;
        for (Reg g = 0; g < 9; ++g)
            for (int k = 0; k < 4 * (9 - g); ++k)
                mis.push_back(MachInst::lea(g, g, 0));
        for (Reg g = 0; g < 9; ++g)
            mis.push_back(MachInst::storeByte((g + 1) % 9, 0x20 + g, g));
        mis.push_back(MachInst::storeByte(kTail, 2, 3));
        mis.push_back(MachInst::storeByte(kTail, 0, 6));
        mis.push_back(MachInst::loadByte(13, kTail, 2));
        if (trap == ByteTrap::StoreToReadOnly)
            mis.push_back(MachInst::storeByte(kRo, 0, 2));
        if (trap == ByteTrap::StoreToCode)
            mis.push_back(MachInst::storeByte(kCode, 0, 5));
        if (trap == ByteTrap::LoadUnmapped)
            mis.push_back(MachInst::loadByte(4, kUnmapped, 0));
        for (Reg g = 0; g < 8; ++g)
            mis.push_back(MachInst::loadByte(g, g + 1, 0x20 + g));
        mis.push_back(MachInst::loadByte(8, 8, 0x40));

        uint32_t reads = 0, writes = 0;
        for (const MachInst &mi : mis) {
            TInst ti;
            ti.mi = mi;
            ti.guestStart = true;
            ti.klass = ExecClass::Plain;
            ti.memReads = mi.op == Op::Movb && mi.src1.isMem();
            ti.memWrites = mi.op == Op::Movb && mi.dst.isMem();
            reads += ti.memReads;
            writes += ti.memWrites;
            ti.guestCum = static_cast<uint32_t>(blk.insts.size() + 1);
            ti.memReadsCum = reads;
            ti.memWritesCum = writes;
            blk.insts.push_back(ti);
        }
        TInst end;
        end.mi = MachInst::ret();
        end.klass = ExecClass::Ret;
        blk.insts.push_back(end);
        blk.srcStart = layout::kRiscCodeBase;

        tr.headPc = blk.srcStart;
        tr.segs.push_back({ &blk, blk.srcStart });
        for (uint32_t i = 0; i < blk.insts.size(); ++i) {
            const MachInst &mi = blk.insts[i].mi;
            TraceOp op;
            op.instIdx = i;
            op.ti = &blk.insts[i];
            if (mi.op == Op::Lea) {
                op.h = TraceH::Lea;
                op.a = static_cast<uint8_t>(mi.dst.reg);
                op.b = static_cast<uint8_t>(mi.src1.base);
                op.imm = static_cast<uint32_t>(mi.src1.disp);
            } else if (mi.op == Op::Movb && mi.dst.isReg()) {
                op.h = TraceH::MovbRM;
                op.a = static_cast<uint8_t>(mi.dst.reg);
                op.b = static_cast<uint8_t>(mi.src1.base);
                op.imm = static_cast<uint32_t>(mi.src1.disp);
            } else if (mi.op == Op::Movb) {
                op.h = TraceH::MovbMR;
                op.a = static_cast<uint8_t>(mi.dst.base);
                op.imm = static_cast<uint32_t>(mi.dst.disp);
                op.b = static_cast<uint8_t>(mi.src1.reg);
            } else {
                op.h = TraceH::TraceEnd;
            }
            tr.ops.push_back(op);
        }
    }
};

/** Initial guest registers: g0..g8 point into the heap. */
std::array<uint32_t, 16>
byteTraceRegs()
{
    std::array<uint32_t, 16> regs{};
    for (uint32_t g = 0; g < 9; ++g)
        regs[g] = layout::kHeapBase + 0x100 * g + 0x11 * (g + 1);
    regs[9] = layout::kRiscFuncTable + 8;
    regs[10] = layout::kRiscCodeBase + 4;
    regs[11] = layout::kHeapBase - 0x1000;
    regs[12] = layout::kMemEnd - 3;
    return regs;
}

/** The byte trace's memory: a heap pattern and a RW last page. */
void
prepareByteMemory(Memory &mem)
{
    for (Addr a = 0; a < 0x1000; ++a)
        mem.rawWrite8(layout::kHeapBase + a,
                      static_cast<uint8_t>(7 * a + 3));
    mem.setRegion(layout::kMemEnd - 0x1000, 0x1000, PermRW, "tail");
}

TEST(JitSmoke, ByteMovesOnEveryHostRegister)
{
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    FatBinary bin = compileModule(buildHmmer(WorkloadConfig{}));
    for (ByteTrap trap : { ByteTrap::None, ByteTrap::StoreToReadOnly,
                           ByteTrap::StoreToCode,
                           ByteTrap::LoadUnmapped }) {
        const std::string label =
            "trap=" + std::to_string(static_cast<int>(trap));
        ByteTrace bt(trap);

        const std::array<uint8_t, 16> host =
            jit::hostRegisterMap(bt.tr);
        const uint8_t want[] = { jit::RBP, jit::RSI, jit::RDI,
                                 jit::R8,  jit::R9,  jit::R10,
                                 jit::R11, jit::kNoHostReg,
                                 jit::kNoHostReg };
        for (Reg g = 0; g < 9; ++g)
            ASSERT_EQ(host[g], want[g]) << label << " g" << int(g);

        // Reference: the block loop's semantics, one instruction at
        // a time, stopping at the first fault.
        Memory ref_mem;
        loadFatBinary(bin, ref_mem);
        prepareByteMemory(ref_mem);
        GuestOs ref_os;
        MachineState ref(IsaKind::Risc);
        ref.regs = byteTraceRegs();
        int fault_at = -1;
        for (size_t i = 0; i + 1 < bt.blk.insts.size(); ++i) {
            ExecStatus st = executeInstInline(bt.blk.insts[i].mi, ref,
                                              ref_mem, &ref_os);
            if (st == ExecStatus::Faulted) {
                fault_at = static_cast<int>(i);
                break;
            }
            ASSERT_EQ(st, ExecStatus::Continue) << label;
        }
        EXPECT_EQ(fault_at >= 0, trap != ByteTrap::None) << label;

        Memory mem;
        loadFatBinary(bin, mem);
        prepareByteMemory(mem);
        GuestOs os;
        PsrConfig cfg;
        cfg.traceMode = PsrConfig::TraceMode::On;
        cfg.jitMode = PsrConfig::JitMode::On;
        PsrVm vm(bin, IsaKind::Risc, mem, os, cfg);
        vm.reset();
        vm.state.regs = byteTraceRegs();
        const VmStats before = vm.stats;
        jit::TraceJit engine;
        VmRunResult stop;
        TraceExit tx;
        ASSERT_TRUE(engine.run(vm, &bt.tr, ~uint64_t(0), stop, tx))
            << label;
        EXPECT_EQ(engine.stats.compiledTraces, 1u) << label;
        EXPECT_EQ(engine.stats.execFallbacks, 0u) << label;

        EXPECT_EQ(vm.state.regs, ref.regs) << label;
        for (Addr a = 0; a < 0x1000; ++a) {
            ASSERT_EQ(mem.rawRead8(layout::kHeapBase + a),
                      ref_mem.rawRead8(layout::kHeapBase + a))
                << label << " heap+0x" << std::hex << a;
        }
        for (Addr a = layout::kMemEnd - 3; a < layout::kMemEnd; ++a)
            EXPECT_EQ(mem.rawRead8(a), ref_mem.rawRead8(a)) << label;
        if (fault_at < 0) {
            EXPECT_EQ(tx.kind, TraceExitKind::Resume) << label;
            EXPECT_EQ(tx.blk, &bt.blk) << label;
            EXPECT_EQ(tx.instIdx, bt.blk.insts.size() - 1) << label;
            EXPECT_EQ(vm.stats.guestInsts, before.guestInsts) << label;
        } else {
            const TInst &ft = bt.blk.insts[static_cast<size_t>(fault_at)];
            EXPECT_EQ(tx.kind, TraceExitKind::Stop) << label;
            EXPECT_EQ(stop.reason, VmStop::Fault) << label;
            EXPECT_EQ(stop.stopPc, bt.blk.srcStart) << label;
            EXPECT_EQ(vm.stats.guestInsts - before.guestInsts,
                      ft.guestCum)
                << label;
            EXPECT_EQ(vm.stats.hostInsts - before.hostInsts,
                      uint64_t(fault_at) + 1)
                << label;
            EXPECT_EQ(vm.stats.memReads - before.memReads,
                      ft.memReadsCum)
                << label;
            EXPECT_EQ(vm.stats.memWrites - before.memWrites,
                      ft.memWritesCum)
                << label;
        }
    }
}

TEST(JitSmoke, ExecArenaWxRoundTrip)
{
#if !defined(HIPSTR_JIT_HAVE_MMAP) && !defined(__linux__)
    GTEST_SKIP() << "no executable-memory support on this platform";
#endif
    if (!jitHostOk())
        GTEST_SKIP() << "trace JIT unsupported on this host/build";
    jit::ExecArena arena;
    ASSERT_TRUE(arena.init(4096));
    EXPECT_TRUE(arena.valid());
    const uint64_t gen0 = arena.generation();

    // Emit `mov eax, 42; ret`, copy it in under the write window,
    // seal, and call it out of the now-executable mapping.
    jit::Emitter em;
    em.movRI32(jit::RAX, 42);
    em.ret();
    em.finalize();
    arena.beginWrite();
    uint8_t *p = arena.alloc(em.size());
    ASSERT_NE(p, nullptr);
    std::memcpy(p, em.code.data(), em.size());
    arena.endWrite();
    EXPECT_GE(arena.used(), em.size());
    EXPECT_EQ(reinterpret_cast<int (*)()>(p)(), 42);

    // Generational reclaim: reset requires the write window open,
    // bumps the stamp, and empties the bump pointer; the next
    // allocation reuses the same mapping.
    arena.beginWrite();
    arena.reset();
    EXPECT_EQ(arena.generation(), gen0 + 1);
    EXPECT_EQ(arena.used(), 0u);
    uint8_t *q = arena.alloc(em.size());
    ASSERT_NE(q, nullptr);
    std::memcpy(q, em.code.data(), em.size());
    arena.endWrite();
    EXPECT_EQ(reinterpret_cast<int (*)()>(q)(), 42);
}

#if defined(__linux__)
/** Protection of one /proc/self/maps entry, clipped to a range. */
struct PageProt
{
    uintptr_t lo, hi;
    bool w, x;
};

/**
 * The mappings covering [base, base+len) as /proc/self/maps reports
 * them, clipped to the range. Empty if procfs is unavailable.
 */
std::vector<PageProt>
protections(const uint8_t *base, size_t len)
{
    std::vector<PageProt> out;
    const uintptr_t lo = reinterpret_cast<uintptr_t>(base);
    const uintptr_t hi = lo + len;
    std::ifstream maps("/proc/self/maps");
    std::string line;
    while (std::getline(maps, line)) {
        unsigned long long a = 0, b = 0;
        char perms[5] = {};
        if (std::sscanf(line.c_str(), "%llx-%llx %4s", &a, &b,
                        perms) != 3)
            continue;
        if (b <= lo || a >= hi)
            continue;
        out.push_back(PageProt{std::max<uintptr_t>(a, lo),
                               std::min<uintptr_t>(b, hi),
                               perms[1] == 'w', perms[2] == 'x'});
    }
    return out;
}

/**
 * Assert the page-level W^X state of [base, base+len): exactly the
 * pages in [wlo, whi) (byte offsets) are RW, every other page is RX,
 * and no page is both. The mappings must tile the whole range.
 */
void
expectArenaPages(const uint8_t *base, size_t len, size_t wlo = 0,
                 size_t whi = 0)
{
    std::vector<PageProt> prot = protections(base, len);
    ASSERT_FALSE(prot.empty()) << "arena not found in /proc/self/maps";
    const uintptr_t lo = reinterpret_cast<uintptr_t>(base);
    uintptr_t covered = lo;
    for (const PageProt &p : prot) {
        EXPECT_EQ(p.lo, covered) << "hole in the arena mapping";
        covered = p.hi;
        EXPECT_FALSE(p.w && p.x) << "page both writable and executable";
        const bool in_window = p.lo >= lo + wlo && p.hi <= lo + whi;
        EXPECT_EQ(p.w, in_window)
            << "arena offset " << (p.lo - lo) << "-" << (p.hi - lo)
            << (p.w ? " writable outside" : " read-only inside")
            << " the write window [" << wlo << ", " << whi << ")";
    }
    EXPECT_EQ(covered, lo + len);
}

bool
procMapsReadable()
{
    return std::ifstream("/proc/self/maps").good();
}

TEST(JitSmoke, ExecArenaFlipsOnlyPagesBeingWritten)
{
    if (!jitHostOk() || !procMapsReadable())
        GTEST_SKIP() << "needs the trace JIT and /proc/self/maps";
    const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    jit::ExecArena arena;
    ASSERT_TRUE(arena.init(4 * page));
    // Mapped RX: the open bracket alone makes nothing writable.
    expectArenaPages(arena.base(), arena.capacity());
    arena.endWrite();

    // Bodies of 1000 bytes: several share each page and some straddle
    // a page boundary. Each body returns its own index.
    constexpr size_t kBody = 1000;
    std::vector<uint8_t *> bodies;
    for (uint32_t i = 0;; ++i) {
        jit::Emitter em;
        em.movRI32(jit::RAX, i);
        em.ret();
        em.finalize();
        arena.beginWrite();
        expectArenaPages(arena.base(), arena.capacity());
        const size_t before = arena.used();
        uint8_t *p = arena.alloc(kBody);
        if (p == nullptr) {
            arena.endWrite();
            break;
        }
        const size_t off = static_cast<size_t>(p - arena.base());
        const size_t wlo = off & ~(page - 1);
        const size_t whi = (off + kBody + page - 1) & ~(page - 1);
        EXPECT_GE(off, before);
        expectArenaPages(arena.base(), arena.capacity(), wlo, whi);
        std::memcpy(p, em.code.data(), em.size());
        arena.endWrite();
        expectArenaPages(arena.base(), arena.capacity());
        bodies.push_back(p);
        // Every earlier body, including those sharing the page just
        // written, still runs.
        for (uint32_t j = 0; j < bodies.size(); ++j)
            ASSERT_EQ(reinterpret_cast<uint32_t (*)()>(bodies[j])(), j);
    }
    EXPECT_GT(bodies.size(), 4u);

    // Reclaim makes no page writable by itself.
    arena.beginWrite();
    arena.reset();
    expectArenaPages(arena.base(), arena.capacity());
    arena.endWrite();
    expectArenaPages(arena.base(), arena.capacity());
}

TEST(JitSmoke, NoArenaPageWritableBetweenCompiles)
{
    if (!jitHostOk() || !procMapsReadable())
        GTEST_SKIP() << "needs the trace JIT and /proc/self/maps";
    // Short slices so the check runs after nearly every compile; the
    // tiny arena keeps the eviction storm (reset + recompile) going.
    for (size_t arena_bytes : {size_t(0), size_t(16 * 1024)}) {
        uint64_t checks = 0;
        auto sealed = [&](PsrVm &vm) {
            const jit::TraceJit &eng = vm.jitEngine();
            if (eng.arenaBase() == nullptr)
                return;
            expectArenaPages(eng.arenaBase(), eng.arenaCapacity());
            ++checks;
        };
        SmokeRun on = steadyRun(PsrConfig::JitMode::On, arena_bytes,
                                1'000'000, 5'000, sealed);
        SmokeRun off = steadyRun(PsrConfig::JitMode::Off, arena_bytes,
                                 1'000'000, 5'000);
        EXPECT_GT(checks, 100u);
        EXPECT_GT(on.jit.executions, 0u);
        // Bodies are packed 16-byte aligned, so each compile after
        // the first rewrites a page holding live code.
        EXPECT_GE(on.jit.compiledTraces, 2u);
        // Side exits taken in compiled code still match the
        // interpreter's, trace for trace.
        EXPECT_EQ(on.guestInsts, off.guestInsts);
        EXPECT_EQ(on.traceFollows, off.traceFollows);
        EXPECT_EQ(on.traceSideExits, off.traceSideExits);
        EXPECT_EQ(on.outputChecksum, off.outputChecksum);
    }
}
#endif // __linux__

} // namespace
} // namespace hipstr
