/**
 * @file
 * Superblock-trace smoke canaries (dispatch_smoke tier): the hot loop
 * actually forms traces, steady state retires its transfers through
 * them, the flush-heavy tiny-cache configuration stays correct
 * with traces constantly invalidated under a running trace, and every
 * memory row of the trace-handler table describes the access its
 * instruction really makes.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "isa/exec_inline.hh"
#include "test_util.hh"
#include "vm/jit/engine.hh"
#include "vm/psr_vm.hh"
#include "workloads/workloads.hh"

namespace hipstr
{
namespace
{

FatBinary
workloadBinary(const std::string &name)
{
    WorkloadConfig wcfg;
    wcfg.scale = 1;
    return compileModule(buildWorkload(name, wcfg));
}

/**
 * The instruction a memory row of the trace-handler table specializes,
 * built from the row's op and shape: reg operands use r3 (first) and
 * r6 (source), memory operands [r5+disp], immediates @p imm.
 */
MachInst
instForRow(const TraceOpInfo &info, int32_t disp, int32_t imm)
{
    const bool mem_first = info.shape == TraceShape::MR ||
        info.shape == TraceShape::MI;
    const Operand first = mem_first ? Operand::makeMem(5, disp)
                                    : Operand::makeReg(3);
    const Operand second = info.shape == TraceShape::RM
        ? Operand::makeMem(5, disp)
        : info.shape == TraceShape::MI ? Operand::makeImm(imm)
                                       : Operand::makeReg(6);
    MachInst mi;
    mi.op = info.op;
    if (opInfo(info.op).alu) {
        mi.dst = first;
        mi.src1 = mem_first ? first : Operand::makeReg(2);
        mi.src2 = second;
    } else if (info.op == Op::Cmp || info.op == Op::Test) {
        mi.src1 = first;
        mi.src2 = second;
    } else if (info.op == Op::Push) {
        mi.src1 = second;
    } else if (info.op == Op::Pop) {
        mi.dst = second;
    } else {
        mi.dst = first;
        mi.src1 = second;
    }
    return mi;
}

/**
 * A two-op trace: @p op on instruction @p mi, then TraceEnd resuming
 * at a halt. It runs from the VM's entry block, so PsrVm::run takes
 * it through the ordinary trace entry: Halted means the op completed,
 * Fault that it faulted.
 */
struct OneOpTrace
{
    TranslatedBlock blk;
    SuperTrace tr;

    OneOpTrace(const MachInst &mi, TraceOp op, Addr pc)
    {
        for (const MachInst &m : { mi, MachInst::halt() }) {
            TInst ti;
            ti.mi = m;
            ti.guestStart = true;
            ti.guestCum = static_cast<uint32_t>(blk.insts.size() + 1);
            blk.insts.push_back(ti);
        }
        blk.srcStart = pc;
        tr.headPc = pc;
        tr.segs.push_back({ &blk, pc });
        op.ti = &blk.insts[0];
        TraceOp end;
        end.h = TraceH::TraceEnd;
        end.instIdx = 1;
        end.ti = &blk.insts[1];
        tr.ops = { op, end };
    }
};

TEST(SuperblockSmoke, MemoryRowsMatchTheInterpreter)
{
    // For every trace handler that touches memory, the JIT's hint-miss
    // probe (which reads base, displacement, width and direction from
    // the handler's row), the trace executors and the reference
    // interpreter must agree on whether the access faults: at the
    // first heap word, just below the heap (unmapped), at the last
    // word and the last byte of the address space (a RW tail page,
    // where only the access width decides), and on the read-only
    // function table. The displacement is large and the immediate far
    // off, so a row naming the wrong field, width, direction or stack
    // offset disagrees at one of these edges.
    FatBinary bin = workloadBinary("hmmer");
    const uint8_t sp = isaDescriptor(IsaKind::Cisc).spReg;
    constexpr int32_t kDisp = 0x2000;
    constexpr int32_t kImm = 0x7fff0000;

    for (PsrConfig::JitMode jit :
         { PsrConfig::JitMode::Off, PsrConfig::JitMode::On }) {
        Memory mem;
        loadFatBinary(bin, mem);
        mem.setRegion(layout::kMemEnd - 0x1000, 0x1000, PermRW, "tail");
        GuestOs os;
        PsrConfig cfg;
        cfg.traceMode = PsrConfig::TraceMode::On;
        cfg.jitMode = jit;
        PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
        vm.reset();
        const MachineState entry = vm.state;
        ASSERT_EQ(vm.run(1).reason, VmStop::StepLimit);
        TranslatedBlock *head = vm.codeCache().lookup(entry.pc);
        ASSERT_NE(head, nullptr);

        size_t rows = 0;
        for (size_t i = 0;
             i < static_cast<size_t>(TraceH::NumHandlers); ++i) {
            const TraceH h = static_cast<TraceH>(i);
            const TraceOpInfo &info = traceOpInfo(h);
            if (info.access == TraceAccess::None)
                continue;
            ++rows;
            const MachInst mi = instForRow(info, kDisp, kImm);
            OneOpTrace one(mi, traceOpFor(mi, sp), entry.pc);
            ASSERT_EQ(one.tr.ops[0].h, h) << info.name;

            const bool stack = info.op == Op::Push || info.op == Op::Pop;
            const Reg base = stack ? sp : 5;
            const int32_t off = info.op == Op::Push ? -4
                : info.op == Op::Pop                ? 0
                                                    : kDisp;
            const Addr cases[] = { layout::kHeapBase,
                                   layout::kHeapBase - 4,
                                   layout::kMemEnd - 4,
                                   layout::kMemEnd - 1,
                                   layout::kCiscFuncTable };
            for (Addr addr : cases) {
                const std::string label = std::string(info.name) +
                    " @0x" + std::to_string(addr);
                MachineState st = entry;
                st.regs[2] = 7;
                st.regs[3] = 9;
                st.regs[6] = 3;
                st.regs[base] = addr - static_cast<uint32_t>(off);

                std::vector<Memory::SpanHint> hints(1);
                jit::JitFrame f;
                f.vm = &vm;
                f.trace = &one.tr;
                f.regs = st.regs.data();
                f.opHints = hints.data();
                const bool probe_ok =
                    jit::TraceJit::memProbe(&f, 0) != 0;

                vm.state = st;
                head->strace = &one.tr;
                const VmStop traced = vm.run(1000).reason;
                head->strace = nullptr;
                ASSERT_TRUE(traced == VmStop::Halted ||
                            traced == VmStop::Fault)
                    << label;

                const ExecStatus es =
                    executeInstInline(mi, st, mem, &os);
                ASSERT_NE(es, ExecStatus::Halted) << label;
                const bool ref_ok = es == ExecStatus::Continue;
                EXPECT_EQ(probe_ok, ref_ok) << label;
                EXPECT_EQ(traced == VmStop::Halted, ref_ok) << label;
                if (addr == layout::kHeapBase) {
                    EXPECT_TRUE(ref_ok) << label;
                } else if (addr == layout::kHeapBase - 4) {
                    EXPECT_FALSE(ref_ok) << label;
                }
            }
        }
        EXPECT_GT(rows, 40u);
        const char *why = nullptr;
        if (jit == PsrConfig::JitMode::On &&
            jit::TraceJit::hostSupported(&why)) {
            EXPECT_EQ(vm.jitStats().compiledTraces, rows);
        }
    }
}

TEST(SuperblockSmoke, HotLoopFormsTraces)
{
    // The fig9 steady-state workload: its inner loop must cross the
    // formation threshold quickly and from then on execute as a
    // superblock trace, not as dispatcher-stitched blocks.
    FatBinary bin = workloadBinary("hmmer");
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    cfg.traceMode = PsrConfig::TraceMode::On;
    PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
    vm.reset();
    auto warm = vm.run(50'000);
    ASSERT_EQ(warm.reason, VmStop::StepLimit);
    ASSERT_TRUE(vm.tracingEnabled());
    EXPECT_GE(vm.traceStats().formed, 1u);
    EXPECT_GT(vm.liveTraces(), 0u);
    EXPECT_GT(vm.stats.traceFollows, 0u);
}

TEST(SuperblockSmoke, SteadyStateRetiresThroughTraces)
{
    // After warmup, a measurement slice must retire the bulk of its
    // block-to-block transfers on trace edges: trace follows dominate
    // chain follows, and the dispatcher stays out of the picture.
    FatBinary bin = workloadBinary("hmmer");
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    cfg.traceMode = PsrConfig::TraceMode::On;
    PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
    vm.reset();
    auto warm = vm.run(50'000);
    ASSERT_EQ(warm.reason, VmStop::StepLimit);

    const VmStats before = vm.stats;
    auto r = vm.run(100'000);
    ASSERT_EQ(r.reason, VmStop::StepLimit);
    const uint64_t trace_follows =
        vm.stats.traceFollows - before.traceFollows;
    const uint64_t chain_follows =
        vm.stats.chainFollows - before.chainFollows;
    const uint64_t dispatches =
        vm.stats.dispatches - before.dispatches;
    EXPECT_GT(trace_follows, 1000u)
        << "steady state should run through superblock traces";
    EXPECT_GT(trace_follows, chain_follows)
        << "trace edges should dominate residual chain follows";
    EXPECT_LT(dispatches * 100, trace_follows + chain_follows)
        << "dispatcher entered " << dispatches
        << " times in a traced steady-state slice";
}

TEST(SuperblockSmoke, TraceModeKnobAndEnvDefault)
{
    // The config knob is authoritative; FromEnv defaults to on when
    // HIPSTR_TRACE is unset (the ctest environment never sets it).
    FatBinary bin = workloadBinary("hmmer");
    auto tracing_with = [&](PsrConfig::TraceMode mode) {
        Memory mem;
        loadFatBinary(bin, mem);
        GuestOs os;
        PsrConfig cfg;
        cfg.traceMode = mode;
        PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
        return vm.tracingEnabled();
    };
    EXPECT_TRUE(tracing_with(PsrConfig::TraceMode::On));
    EXPECT_FALSE(tracing_with(PsrConfig::TraceMode::Off));
    EXPECT_TRUE(tracing_with(PsrConfig::TraceMode::FromEnv));
}

TEST(SuperblockSmoke, TinyCacheFlushHeavyStaysCorrect)
{
    // 1 KiB cache: traces form over blocks that flush out from under
    // them constantly, including flushes a trace's own call linkage
    // triggers mid-run. The guest-visible outcome must match the
    // reference interpreter exactly.
    for (const std::string &name : { std::string("httpd"),
                                     std::string("mcf") }) {
        FatBinary bin = workloadBinary(name);
        for (IsaKind isa : kAllIsas) {
            const std::string label = name + "/" + isaName(isa);
            auto native = test::runNative(bin, isa);
            ASSERT_EQ(native.result.reason, StopReason::Exited)
                << label;
            Memory mem;
            loadFatBinary(bin, mem);
            GuestOs os;
            PsrConfig cfg;
            cfg.codeCacheBytes = 1024;
            cfg.traceMode = PsrConfig::TraceMode::On;
            PsrVm vm(bin, isa, mem, os, cfg);
            vm.reset();
            auto r = vm.run(400'000'000);
            ASSERT_EQ(r.reason, VmStop::Exited)
                << label << ": " << vmStopName(r.reason) << " at 0x"
                << std::hex << r.stopPc;
            EXPECT_EQ(os.exitCode(), native.exitCode) << label;
            EXPECT_EQ(os.outputChecksum(), native.outputChecksum)
                << label;
            EXPECT_GT(vm.stats.cacheFlushes, 0u)
                << label << ": cache not small enough";
            EXPECT_EQ(vm.traceStats().invalidated,
                      vm.traceStats().formed - vm.liveTraces())
                << label;
        }
    }
}

/**
 * A counted loop whose body branches to a rare block one iteration in
 * eight. The loop head forms a trace with that branch as a guard, so
 * the rare block is reached only through the guard's side exit.
 */
IrModule
rareBlockProgram(int32_t iters)
{
    IrModule m;
    m.name = "rare_block";
    IrBuilder b(m);
    uint32_t main_fn = b.declareFunction("main", 0);
    b.setEntry(main_fn);
    b.beginFunction(main_fn);
    ValueId acc = b.constI(0);
    ValueId i = b.constI(0);
    uint32_t hdr = b.newBlock(), rare = b.newBlock(),
             cont = b.newBlock(), done = b.newBlock();
    b.br(hdr);
    b.setBlock(hdr);
    b.assignBinop(IrOp::Add, acc, acc, b.mulI(i, 3));
    b.condBrI(Cond::Eq, b.andI(i, 7), 7, rare, cont);
    b.setBlock(rare);
    b.assignBinop(IrOp::Xor, acc, acc, i);
    b.br(cont);
    b.setBlock(cont);
    b.assignBinopI(IrOp::Add, i, i, 1);
    b.condBrI(Cond::Lt, i, iters, hdr, done);
    b.setBlock(done);
    b.emitWriteWord(acc);
    b.ret(acc);
    b.endFunction();
    return m;
}

/**
 * Nested counted loops with a four-trip inner loop: the inner loop's
 * back edge is dominant, so its trace falls through on one exit in
 * four — a hot fall-through exit that roots a side trace.
 */
IrModule
nestedLoopProgram(int32_t outer, int32_t inner)
{
    IrModule m;
    m.name = "nested_loop";
    IrBuilder b(m);
    uint32_t main_fn = b.declareFunction("main", 0);
    b.setEntry(main_fn);
    b.beginFunction(main_fn);
    ValueId acc = b.constI(0);
    ValueId j = b.constI(0);
    ValueId i = b.constI(0);
    uint32_t ohdr = b.newBlock(), ihdr = b.newBlock(),
             tail = b.newBlock(), done = b.newBlock();
    b.br(ohdr);
    b.setBlock(ohdr);
    b.assignConst(i, 0);
    b.br(ihdr);
    b.setBlock(ihdr);
    b.assignBinop(IrOp::Add, acc, acc, b.mul(i, j));
    b.assignBinopI(IrOp::Add, i, i, 1);
    b.condBrI(Cond::Lt, i, inner, ihdr, tail);
    b.setBlock(tail);
    b.assignBinop(IrOp::Xor, acc, acc, j);
    b.assignBinopI(IrOp::Add, j, j, 1);
    b.condBrI(Cond::Lt, j, outer, ohdr, done);
    b.setBlock(done);
    b.emitWriteWord(acc);
    b.ret(acc);
    b.endFunction();
    return m;
}

/** Block-loop exit hits recorded on every exit of @p blk. */
uint64_t
exitHits(const TranslatedBlock &blk)
{
    uint64_t n = 0;
    for (const BlockExit &e : blk.exits)
        n += e.hitCount;
    return n;
}

TEST(SuperblockSmoke, BlockReachedOnlyThroughATraceExitFormsATrace)
{
    // The block after a trace exit is an ordinary dispatch-loop entry:
    // it bumps its hot count and may enter its own trace. Here the
    // rare block is entered only right after the loop trace's guard
    // exits, so it must still form a trace, and in the next warm
    // slice it must run in that trace (its exits stop counting in the
    // block loop) while the guard keeps firing.
    FatBinary bin = compileModule(rareBlockProgram(1'000'000));
    for (IsaKind isa : kAllIsas) {
        const std::string label = isaName(isa);
        Memory mem;
        loadFatBinary(bin, mem);
        GuestOs os;
        PsrConfig cfg;
        cfg.traceMode = PsrConfig::TraceMode::On;
        PsrVm vm(bin, isa, mem, os, cfg);
        vm.reset();
        ASSERT_EQ(vm.run(100'000).reason, VmStop::StepLimit) << label;

        // The rare block: the target of the loop trace's guard.
        TranslatedBlock *rare = nullptr;
        for (const auto &blk : vm.codeCache().blocks()) {
            if (blk->strace == nullptr || blk->strace->loopBack == false)
                continue;
            for (const TraceOp &op : blk->strace->ops) {
                if (op.h != TraceH::JccGuard)
                    continue;
                const TranslatedBlock &owner =
                    *blk->strace->segs[op.seg].blk;
                const BlockExit &ex =
                    owner.exits[static_cast<size_t>(op.ti->exitIdx)];
                rare = vm.codeCache().lookup(ex.target);
            }
        }
        ASSERT_NE(rare, nullptr) << label << ": no guarded loop trace";
        EXPECT_NE(rare->strace, nullptr)
            << label << ": the rare block never formed a trace (hot "
            << rare->hotCount << ")";

        const uint64_t side0 = vm.traceStats().sideExits;
        const uint64_t hits0 = exitHits(*rare);
        ASSERT_EQ(vm.run(100'000).reason, VmStop::StepLimit) << label;
        EXPECT_GT(vm.traceStats().sideExits - side0, 1000u) << label;
        EXPECT_EQ(exitHits(*rare), hits0)
            << label << ": the rare block still runs in the block loop";
    }
}

/** Run the nested-loop program to completion on one VM. */
struct NestedRun
{
    VmStats stats;
    TraceStats traces;
    TierStats tiers;
    uint32_t exitCode = 0;
    uint64_t outputChecksum = 0;
};

NestedRun
runNested(const FatBinary &bin, IsaKind isa, PsrConfig cfg,
          const std::function<void(PsrVm &, GuestOs &, uint64_t)>
              &each_slice = {})
{
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    cfg.traceMode = PsrConfig::TraceMode::On;
    PsrVm vm(bin, isa, mem, os, cfg);
    vm.reset();
    VmRunResult r;
    for (uint64_t slice = 0;; ++slice) {
        r = vm.run(50'000);
        if (r.reason != VmStop::StepLimit)
            break;
        if (each_slice)
            each_slice(vm, os, slice);
    }
    EXPECT_EQ(r.reason, VmStop::Exited) << vmStopName(r.reason);
    NestedRun out;
    out.stats = vm.stats;
    out.traces = vm.traceStats();
    out.tiers = vm.tierStats();
    out.exitCode = os.exitCode();
    out.outputChecksum = os.outputChecksum();
    return out;
}

TEST(SuperblockSmoke, HotFallThroughExitGrowsASideTrace)
{
    // The inner loop trace falls through once per outer iteration.
    // That exit must root a side trace, later fall-throughs must
    // enter it directly, and the guest result must not move.
    FatBinary bin = compileModule(nestedLoopProgram(20'000, 4));
    for (IsaKind isa : kAllIsas) {
        const std::string label = isaName(isa);
        auto native = test::runNative(bin, isa);
        for (PsrConfig::JitMode jit :
             { PsrConfig::JitMode::Off, PsrConfig::JitMode::On }) {
            PsrConfig cfg;
            cfg.jitMode = jit;
            NestedRun r = runNested(bin, isa, cfg);
            EXPECT_EQ(r.exitCode, native.exitCode) << label;
            EXPECT_EQ(r.outputChecksum, native.outputChecksum) << label;
            EXPECT_GE(r.traces.sideFormed, 1u) << label;
            EXPECT_GT(r.traces.sideEntries, 10'000u) << label;
            // Nearly every instruction retires in trace code; the
            // block loop keeps the warm-up and the residual exits.
            const uint64_t traced = r.tiers.traceInsts + r.tiers.jitInsts;
            EXPECT_EQ(r.tiers.blockInsts + traced, r.stats.guestInsts)
                << label;
            EXPECT_GT(traced, 9 * r.tiers.blockInsts) << label;
        }
    }
}

TEST(SuperblockSmoke, FlushesRetireTheWholeTraceTree)
{
    // A code-cache flush mid-run, or a re-randomization with the
    // program restarted (a respawn), retires every live trace, side
    // traces included, and the tree regrows: the run still ends with
    // the reference result.
    FatBinary bin = compileModule(nestedLoopProgram(20'000, 4));
    for (IsaKind isa : kAllIsas) {
        auto native = test::runNative(bin, isa);
        for (bool rerandomize : { false, true }) {
            const std::string label = std::string(isaName(isa)) +
                (rerandomize ? " reRandomize" : " flushTranslations");
            size_t flushes = 0;
            auto flush = [&](PsrVm &vm, GuestOs &os, uint64_t slice) {
                if (slice % 3 != 2 || flushes == 3)
                    return;
                ASSERT_GT(vm.liveTraces(), 2u) << label;
                ASSERT_EQ(vm.traceStats().sideFormed, flushes + 1)
                    << label;
                if (rerandomize) {
                    vm.reRandomize();
                    os.reset();
                    vm.reset();
                } else {
                    vm.flushTranslations();
                }
                EXPECT_EQ(vm.liveTraces(), 0u) << label;
                EXPECT_EQ(vm.traceStats().invalidated,
                          vm.traceStats().formed)
                    << label;
                ++flushes;
            };
            NestedRun r = runNested(bin, isa, PsrConfig{}, flush);
            EXPECT_EQ(flushes, 3u) << label;
            EXPECT_EQ(r.traces.sideFormed, flushes + 1) << label;
            EXPECT_EQ(r.exitCode, native.exitCode) << label;
            EXPECT_EQ(r.outputChecksum, native.outputChecksum) << label;
        }
    }
}

TEST(SuperblockSmoke, ArenaEvictionStormKeepsSideTraceStats)
{
    // A tiny JIT arena resets over and over, stranding compiled side
    // traces with their parents; they recompile lazily. Whichever
    // engine runs them, every deterministic counter must match the
    // roomy-arena run. (Without host JIT support both runs interpret
    // and must agree trivially.)
    FatBinary bin = compileModule(nestedLoopProgram(20'000, 4));
    for (IsaKind isa : kAllIsas) {
        const std::string label = isaName(isa);
        PsrConfig roomy;
        roomy.jitMode = PsrConfig::JitMode::On;
        PsrConfig tiny = roomy;
        tiny.jitArenaBytes = 4096;
        NestedRun big = runNested(bin, isa, roomy);
        NestedRun small = runNested(bin, isa, tiny);
        EXPECT_EQ(std::memcmp(&big.stats, &small.stats, sizeof(VmStats)),
                  0)
            << label;
        EXPECT_EQ(big.stats.traceFollows, small.stats.traceFollows)
            << label;
        EXPECT_EQ(big.traces.sideFormed, small.traces.sideFormed) << label;
        EXPECT_EQ(big.traces.sideEntries, small.traces.sideEntries)
            << label;
        EXPECT_EQ(big.outputChecksum, small.outputChecksum) << label;
    }
}

} // namespace
} // namespace hipstr
