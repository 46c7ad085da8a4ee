/**
 * @file
 * Differential testing: every workload program runs under the plain
 * reference interpreter and under the PSR VM — on both ISAs, across a
 * seed sweep — and must produce the identical guest-visible outcome
 * (exit code and output checksum). This is the paper's "legitimate
 * execution is unaffected" invariant (Section 5.3) checked as a
 * product over the whole workload suite, not just hand-picked cases.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_util.hh"
#include "vm/jit/engine.hh"
#include "vm/psr_vm.hh"
#include "workloads/workloads.hh"

namespace hipstr
{
namespace
{

constexpr uint64_t kMaxInsts = 400'000'000;
constexpr unsigned kSeeds = 8;

struct Reference
{
    uint32_t exitCode = 0;
    uint64_t outputChecksum = 0;
};

/** Native run on the reference interpreter. */
Reference
referenceRun(const FatBinary &bin, IsaKind isa)
{
    test::NativeRun native = test::runNative(bin, isa, kMaxInsts);
    EXPECT_EQ(native.result.reason, StopReason::Exited);
    return Reference{ native.exitCode, native.outputChecksum };
}

void
expectVmMatchesNative(const FatBinary &bin, IsaKind isa,
                      const Reference &ref, uint64_t seed,
                      const std::string &label)
{
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    cfg.seed = seed;
    // Vary the optimization level with the seed so the sweep also
    // crosses the translator's O1/O2/O3 configurations.
    cfg.optLevel = unsigned(seed % 3) + 1;
    PsrVm vm(bin, isa, mem, os, cfg);
    vm.reset();
    VmRunResult r = vm.run(kMaxInsts);
    ASSERT_EQ(r.reason, VmStop::Exited) << label;
    EXPECT_EQ(os.exitCode(), ref.exitCode) << label;
    EXPECT_EQ(os.outputChecksum(), ref.outputChecksum) << label;
}

TEST(Differential, EveryWorkloadBothIsasAcrossSeeds)
{
    for (const std::string &name : allWorkloadNames()) {
        WorkloadConfig wcfg;
        wcfg.scale = 1;
        FatBinary bin = compileModule(buildWorkload(name, wcfg));
        for (IsaKind isa : kAllIsas) {
            Reference ref = referenceRun(bin, isa);
            for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
                expectVmMatchesNative(
                    bin, isa, ref, seed,
                    name + "/" + isaName(isa) + "/seed=" +
                        std::to_string(seed));
            }
        }
    }
}

TEST(Differential, OutputAgreesAcrossIsas)
{
    // The workloads are self-checking and ISA-independent: the two
    // native runs of one binary must agree with each other, which is
    // what lets the protected server verify either-ISA workers
    // against a single reference checksum.
    for (const std::string &name : allWorkloadNames()) {
        WorkloadConfig wcfg;
        wcfg.scale = 1;
        FatBinary bin = compileModule(buildWorkload(name, wcfg));
        Reference risc = referenceRun(bin, IsaKind::Risc);
        Reference cisc = referenceRun(bin, IsaKind::Cisc);
        EXPECT_EQ(risc.exitCode, cisc.exitCode) << name;
        EXPECT_EQ(risc.outputChecksum, cisc.outputChecksum) << name;
    }
}

// ------------------------------------------------------------------
// Inline-cache adversarial case.
//
// The httpd workload's request loop drives one CallInd site through
// four alternating handler targets — exactly the shape the per-site
// indirect-branch inline caches (IBTC) and RAT block memoization
// accelerate, and exactly where a dispatch bug would silently change
// control flow instead of failing loudly. These tests compare the
// *indirect control trace* (every Ret / CallInd / JmpInd transfer,
// with its guest target) of the PSR VM against the reference
// interpreter, instruction for instruction, on both ISAs, and then
// re-check it while every translation, chain, RAT memo, and IBTC way
// is repeatedly destroyed mid-run.
//
// Direct branches are deliberately excluded from the comparison: with
// superblocks (O1+) the translator inlines them, so the VM's 'B'/'C'
// events are not 1:1 with guest jumps. Indirect transfers and returns
// can never be inlined — the security policy lives there — so they
// must match exactly.
// ------------------------------------------------------------------

/** One indirect control transfer: kind ('I' or 'R') and guest target. */
struct ControlEvent
{
    char kind;
    Addr target;

    bool operator==(const ControlEvent &o) const
    {
        return kind == o.kind && target == o.target;
    }
};

/** FNV-1a over the mutable data image (globals + heap). The stack is
 * excluded: slot coloring legitimately scatters its contents. */
uint64_t
dataChecksum(const Memory &mem)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (Addr a = layout::kGlobalsBase; a < layout::kStackLimit; ++a) {
        h ^= mem.rawRead8(a);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Reference indirect-control trace plus final-state fingerprint. */
struct ReferenceTrace
{
    std::vector<ControlEvent> events;
    uint32_t exitCode = 0;
    uint64_t outputChecksum = 0;
    uint64_t dataChecksum = 0;
};

/**
 * Run the reference interpreter and record every indirect transfer.
 * The interpreter's traceHook fires *before* execution, so a control
 * instruction's target is the pc of the next hook invocation.
 */
ReferenceTrace
referenceControlTrace(const FatBinary &bin, IsaKind isa)
{
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    Interpreter interp(isa, mem, os);
    initMachineState(interp.state, bin, isa);

    ReferenceTrace ref;
    bool pending = false;
    interp.traceHook = [&](const MachInst &mi, Addr pc) {
        if (pending) {
            ref.events.back().target = pc;
            pending = false;
        }
        char kind = 0;
        if (mi.op == Op::CallInd || mi.op == Op::JmpInd)
            kind = 'I';
        else if (mi.op == Op::Ret)
            kind = 'R';
        if (kind != 0) {
            ref.events.push_back(ControlEvent{kind, 0});
            pending = true;
        }
    };
    RunResult r = interp.run(kMaxInsts);
    EXPECT_EQ(r.reason, StopReason::Exited);
    EXPECT_FALSE(pending); // an Exited run always ends on a syscall
    ref.exitCode = os.exitCode();
    ref.outputChecksum = os.outputChecksum();
    ref.dataChecksum = dataChecksum(mem);
    return ref;
}

void
expectTraceMatches(const std::vector<ControlEvent> &got,
                   const ReferenceTrace &ref, const PsrVm &vm,
                   const GuestOs &os, const Memory &mem,
                   const std::string &label)
{
    ASSERT_EQ(got.size(), ref.events.size()) << label;
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(got[i] == ref.events[i])
            << label << ": transfer " << i << " is " << got[i].kind
            << "@0x" << std::hex << got[i].target << ", reference "
            << ref.events[i].kind << "@0x" << ref.events[i].target;
    }
    EXPECT_EQ(os.exitCode(), ref.exitCode) << label;
    EXPECT_EQ(os.outputChecksum(), ref.outputChecksum) << label;
    EXPECT_EQ(dataChecksum(mem), ref.dataChecksum) << label;
    // Internal consistency of the security-policy counters always
    // holds; specific event counts are asserted by the callers.
    EXPECT_EQ(vm.stats.securityEvents, vm.stats.codeCacheMisses)
        << label;
}

TEST(Differential, InlineCacheAdversarialTraceBothIsas)
{
    FatBinary bin = compileModule(buildWorkload("httpd"));
    for (IsaKind isa : kAllIsas) {
        ReferenceTrace ref = referenceControlTrace(bin, isa);
        ASSERT_GT(ref.events.size(), 100u) << isaName(isa)
            << ": httpd should exercise the indirect site heavily";
        for (uint64_t seed : { 3ull, 11ull }) {
            const std::string label = std::string("httpd/") +
                isaName(isa) + "/seed=" + std::to_string(seed);
            Memory mem;
            loadFatBinary(bin, mem);
            GuestOs os;
            PsrConfig cfg;
            cfg.seed = seed;
            cfg.optLevel = unsigned(seed % 3) + 1;
            PsrVm vm(bin, isa, mem, os, cfg);
            std::vector<ControlEvent> got;
            vm.controlTraceHook = [&](Addr target, char kind) {
                if (kind == 'I' || kind == 'R' || kind == 'J')
                    got.push_back(ControlEvent{kind, target});
            };
            vm.reset();
            VmRunResult r = vm.run(kMaxInsts);
            ASSERT_EQ(r.reason, VmStop::Exited) << label;
            expectTraceMatches(got, ref, vm, os, mem, label);
            // With a generous cache the only legitimate suspected-
            // breach events are the cold first transfers to the (at
            // most four) handler targets before they are translated;
            // the inline caches and RAT memos must not add one beyond
            // that (Section 3.5).
            EXPECT_LE(vm.stats.securityEvents, 4u) << label;
            // The alternating handler table guarantees real indirect
            // pressure on one site.
            EXPECT_GT(vm.stats.indirectTransfers, 100u) << label;
        }
    }
}

TEST(Differential, InlineCacheSurvivesMidRunInvalidation)
{
    // Adversarial invalidation: flushTranslations() is the mid-run
    // flush the server issues on translator faults — it destroys
    // every translation, chain, RAT memo, and IBTC way while guest
    // frames stay live (unlike reRandomize(), which regenerates the
    // relocation maps and is therefore only legal at a respawn
    // boundary; the live-state variant is the migration engine's
    // PSR-aware transform, covered by migration_test). Slicing the
    // run and flushing every few quanta forces the dispatcher to
    // rebuild its fast-path state at arbitrary points; the indirect
    // control trace must not gain, lose, or reorder one transfer.
    FatBinary bin = compileModule(buildWorkload("httpd"));
    for (IsaKind isa : kAllIsas) {
        ReferenceTrace ref = referenceControlTrace(bin, isa);
        for (uint64_t seed : { 3ull, 11ull }) {
            const std::string label = std::string("httpd-flush/") +
                isaName(isa) + "/seed=" + std::to_string(seed);
            Memory mem;
            loadFatBinary(bin, mem);
            GuestOs os;
            PsrConfig cfg;
            cfg.seed = seed;
            cfg.optLevel = unsigned(seed % 3) + 1;
            PsrVm vm(bin, isa, mem, os, cfg);
            std::vector<ControlEvent> got;
            vm.controlTraceHook = [&](Addr target, char kind) {
                if (kind == 'I' || kind == 'R' || kind == 'J')
                    got.push_back(ControlEvent{kind, target});
            };
            vm.reset();
            VmRunResult r;
            unsigned slice = 0;
            do {
                r = vm.run(5'000);
                if (r.reason == VmStop::StepLimit &&
                    ++slice % 2 == 0)
                    vm.flushTranslations();
            } while (r.reason == VmStop::StepLimit);
            ASSERT_EQ(r.reason, VmStop::Exited) << label;
            ASSERT_GT(slice, 5u)
                << label << ": run too short to stress invalidation";
            expectTraceMatches(got, ref, vm, os, mem, label);
            // A post-flush indirect transfer legitimately misses the
            // cache and raises a suspected-breach event (that is the
            // Section 3.5 policy firing on a cold cache); with no
            // securityEventHook installed execution continues. The
            // trace equality above proves the events changed nothing
            // guest-visible.
        }
    }
}

TEST(Differential, InlineCacheFreshAfterRespawnReRandomize)
{
    // reRandomize() at the respawn boundary (the server's Section 5.3
    // discipline): generation 2 runs under entirely fresh relocation
    // maps, with every inline cache rebuilt from scratch, and must
    // reproduce the identical indirect control trace.
    FatBinary bin = compileModule(buildWorkload("httpd"));
    for (IsaKind isa : kAllIsas) {
        ReferenceTrace ref = referenceControlTrace(bin, isa);
        const std::string base =
            std::string("httpd-respawn/") + isaName(isa);
        Memory mem;
        loadFatBinary(bin, mem);
        GuestOs os;
        PsrConfig cfg;
        cfg.seed = 5;
        PsrVm vm(bin, isa, mem, os, cfg);
        std::vector<ControlEvent> got;
        vm.controlTraceHook = [&](Addr target, char kind) {
            if (kind == 'I' || kind == 'R' || kind == 'J')
                got.push_back(ControlEvent{kind, target});
        };
        const uint64_t gen0 = vm.randomizer().generation();
        for (int generation = 0; generation < 2; ++generation) {
            const std::string label =
                base + "/gen=" + std::to_string(generation);
            // Pristine address space per generation, exactly like the
            // server's respawnImage(): wipe the mutable image and
            // reload the fat binary.
            mem.zeroRange(layout::kDataBase,
                          layout::kStackTop - layout::kDataBase);
            loadFatBinary(bin, mem);
            os.reset();
            got.clear();
            vm.reset();
            VmRunResult r = vm.run(kMaxInsts);
            ASSERT_EQ(r.reason, VmStop::Exited) << label;
            expectTraceMatches(got, ref, vm, os, mem, label);
            vm.reRandomize();
        }
        EXPECT_EQ(vm.randomizer().generation(), gen0 + 2);
    }
}

TEST(Differential, SuperblockTracingOnOffMatchesReference)
{
    // Superblock traces are a pure execution-engine change: with
    // tracing forced on, forced off, and against the reference
    // interpreter, every workload on both ISAs across the full seed
    // sweep must produce the identical indirect control trace, guest
    // output, and mutable-data checksum. (Direct branches are
    // excluded for the same reason as above: superblock *translation*
    // inlines them at O1+.)
    uint64_t on_follows_total = 0;
    for (const std::string &name : allWorkloadNames()) {
        WorkloadConfig wcfg;
        wcfg.scale = 1;
        FatBinary bin = compileModule(buildWorkload(name, wcfg));
        for (IsaKind isa : kAllIsas) {
            ReferenceTrace ref = referenceControlTrace(bin, isa);
            for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
                for (PsrConfig::TraceMode mode :
                     { PsrConfig::TraceMode::On,
                       PsrConfig::TraceMode::Off }) {
                    const bool tracing =
                        mode == PsrConfig::TraceMode::On;
                    const std::string label = name + "/" +
                        isaName(isa) + "/seed=" +
                        std::to_string(seed) +
                        (tracing ? "/trace=on" : "/trace=off");
                    Memory mem;
                    loadFatBinary(bin, mem);
                    GuestOs os;
                    PsrConfig cfg;
                    cfg.seed = seed;
                    cfg.optLevel = unsigned(seed % 3) + 1;
                    cfg.traceMode = mode;
                    PsrVm vm(bin, isa, mem, os, cfg);
                    std::vector<ControlEvent> got;
                    vm.controlTraceHook = [&](Addr target,
                                              char kind) {
                        if (kind == 'I' || kind == 'R' || kind == 'J')
                            got.push_back(ControlEvent{kind, target});
                    };
                    vm.reset();
                    VmRunResult r = vm.run(kMaxInsts);
                    ASSERT_EQ(r.reason, VmStop::Exited) << label;
                    expectTraceMatches(got, ref, vm, os, mem, label);
                    EXPECT_EQ(vm.tracingEnabled(), tracing) << label;
                    if (tracing)
                        on_follows_total += vm.stats.traceFollows;
                    else
                        EXPECT_EQ(vm.stats.traceFollows, 0u) << label;
                }
            }
        }
    }
    // The sweep must actually exercise trace execution somewhere —
    // a formation layer that never fires would pass vacuously.
    EXPECT_GT(on_follows_total, 0u);
}

// ------------------------------------------------------------------
// Trace-JIT differential sweeps.
//
// The JIT is a third execution engine under the same traces, so its
// differential obligation is stronger than guest-visible equality:
// every *deterministic* VmStats counter (guest/host instructions,
// memory ops, trace follows) must be identical between HIPSTR_JIT
// on and off — the counters are folded from the same translate-time
// deltas at the same segment boundaries, and any divergence means
// emitted code and threaded interpreter disagreed about what
// executed. controlTraceHook is deliberately NOT installed here: it
// is a per-entry JIT gate (hook runs need interpreter fidelity), so
// these sweeps compare checksums and counters instead.
// ------------------------------------------------------------------

/** Everything a JIT-vs-interpreter run pair must agree on. */
struct EngineOutcome
{
    uint32_t exitCode = 0;
    uint64_t outputChecksum = 0;
    uint64_t dataChecksum = 0;
    uint64_t guestInsts = 0;
    uint64_t hostInsts = 0;
    uint64_t memReads = 0;
    uint64_t memWrites = 0;
    uint64_t traceFollows = 0;
    uint64_t jitExecutions = 0;

    void
    expectDeterministicallyEqual(const EngineOutcome &o,
                                 const std::string &label) const
    {
        EXPECT_EQ(exitCode, o.exitCode) << label;
        EXPECT_EQ(outputChecksum, o.outputChecksum) << label;
        EXPECT_EQ(dataChecksum, o.dataChecksum) << label;
        EXPECT_EQ(guestInsts, o.guestInsts) << label;
        EXPECT_EQ(hostInsts, o.hostInsts) << label;
        EXPECT_EQ(memReads, o.memReads) << label;
        EXPECT_EQ(memWrites, o.memWrites) << label;
        EXPECT_EQ(traceFollows, o.traceFollows) << label;
    }
};

/**
 * One complete run under the given JIT mode. @p flushEvery > 0
 * slices the run and issues a mid-run flushTranslations() every that
 * many StepLimit stops — the adversarial invalidation schedule, kept
 * identical across modes so the deterministic counters stay
 * comparable.
 */
EngineOutcome
engineRun(const FatBinary &bin, IsaKind isa, uint64_t seed,
          PsrConfig::JitMode mode, unsigned flushEvery,
          const std::string &label)
{
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    cfg.seed = seed;
    cfg.optLevel = unsigned(seed % 3) + 1;
    cfg.traceMode = PsrConfig::TraceMode::On;
    cfg.jitMode = mode;
    PsrVm vm(bin, isa, mem, os, cfg);
    vm.reset();
    VmRunResult r;
    if (flushEvery == 0) {
        r = vm.run(kMaxInsts);
    } else {
        unsigned slice = 0;
        do {
            r = vm.run(5'000);
            if (r.reason == VmStop::StepLimit &&
                ++slice % flushEvery == 0)
                vm.flushTranslations();
        } while (r.reason == VmStop::StepLimit);
        EXPECT_GT(slice, 5u)
            << label << ": run too short to stress invalidation";
    }
    EXPECT_EQ(r.reason, VmStop::Exited) << label;
    EngineOutcome out;
    out.exitCode = os.exitCode();
    out.outputChecksum = os.outputChecksum();
    out.dataChecksum = dataChecksum(mem);
    out.guestInsts = vm.stats.guestInsts;
    out.hostInsts = vm.stats.hostInsts;
    out.memReads = vm.stats.memReads;
    out.memWrites = vm.stats.memWrites;
    out.traceFollows = vm.stats.traceFollows;
    out.jitExecutions = vm.jitStats().executions;
    const char *reason = nullptr;
    const bool host_ok = jit::TraceJit::hostSupported(&reason);
    EXPECT_EQ(vm.jitEnabled(),
              mode == PsrConfig::JitMode::On && host_ok)
        << label;
    if (mode == PsrConfig::JitMode::Off) {
        EXPECT_EQ(out.jitExecutions, 0u) << label;
    }
    return out;
}

TEST(Differential, TraceJitOnOffMatchesReference)
{
    // Workloads x ISAs x seed sweep, each seed run under JIT forced
    // on and forced off. Both runs must match the reference
    // interpreter's guest-visible outcome AND each other's
    // deterministic counters.
    uint64_t jit_executions_total = 0;
    for (const std::string &name : allWorkloadNames()) {
        WorkloadConfig wcfg;
        wcfg.scale = 1;
        FatBinary bin = compileModule(buildWorkload(name, wcfg));
        for (IsaKind isa : kAllIsas) {
            Reference ref = referenceRun(bin, isa);
            for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
                const std::string label = name + "/" + isaName(isa) +
                    "/seed=" + std::to_string(seed);
                EngineOutcome off =
                    engineRun(bin, isa, seed, PsrConfig::JitMode::Off,
                              0, label + "/jit=off");
                EngineOutcome on =
                    engineRun(bin, isa, seed, PsrConfig::JitMode::On,
                              0, label + "/jit=on");
                EXPECT_EQ(off.exitCode, ref.exitCode) << label;
                EXPECT_EQ(off.outputChecksum, ref.outputChecksum)
                    << label;
                off.expectDeterministicallyEqual(on, label);
                jit_executions_total += on.jitExecutions;
            }
        }
    }
    const char *reason = nullptr;
    if (jit::TraceJit::hostSupported(&reason)) {
        // On a JIT-capable host the sweep must actually run compiled
        // code somewhere, or the comparison is vacuous.
        EXPECT_GT(jit_executions_total, 0u);
    }
}

TEST(Differential, TraceJitSurvivesMidRunInvalidation)
{
    // flushTranslations() mid-run retires every compiled trace while
    // guest frames stay live; the JIT must recompile on re-entry and
    // the identical flush schedule under both modes must leave every
    // deterministic counter equal.
    FatBinary bin = compileModule(buildWorkload("httpd"));
    for (IsaKind isa : kAllIsas) {
        Reference ref = referenceRun(bin, isa);
        for (uint64_t seed : { 3ull, 11ull }) {
            const std::string label = std::string("httpd-jitflush/") +
                isaName(isa) + "/seed=" + std::to_string(seed);
            EngineOutcome off =
                engineRun(bin, isa, seed, PsrConfig::JitMode::Off, 2,
                          label + "/jit=off");
            EngineOutcome on =
                engineRun(bin, isa, seed, PsrConfig::JitMode::On, 2,
                          label + "/jit=on");
            EXPECT_EQ(on.exitCode, ref.exitCode) << label;
            EXPECT_EQ(on.outputChecksum, ref.outputChecksum) << label;
            off.expectDeterministicallyEqual(on, label);
        }
    }
}

TEST(Differential, TraceJitFreshAfterRespawnReRandomize)
{
    // reRandomize() at the respawn boundary regenerates every
    // relocation map and retires every compiled trace; generation 2
    // must recompile from scratch and still reproduce the reference
    // outcome with counters equal across JIT modes.
    FatBinary bin = compileModule(buildWorkload("httpd"));
    for (IsaKind isa : kAllIsas) {
        ReferenceTrace ref = referenceControlTrace(bin, isa);
        const std::string base =
            std::string("httpd-jitrespawn/") + isaName(isa);
        for (PsrConfig::JitMode mode : { PsrConfig::JitMode::Off,
                                         PsrConfig::JitMode::On }) {
            Memory mem;
            loadFatBinary(bin, mem);
            GuestOs os;
            PsrConfig cfg;
            cfg.seed = 5;
            cfg.traceMode = PsrConfig::TraceMode::On;
            cfg.jitMode = mode;
            PsrVm vm(bin, isa, mem, os, cfg);
            for (int generation = 0; generation < 2; ++generation) {
                const std::string label = base + "/gen=" +
                    std::to_string(generation) +
                    (mode == PsrConfig::JitMode::On ? "/jit=on"
                                                    : "/jit=off");
                mem.zeroRange(layout::kDataBase,
                              layout::kStackTop - layout::kDataBase);
                loadFatBinary(bin, mem);
                os.reset();
                vm.reset();
                VmRunResult r = vm.run(kMaxInsts);
                ASSERT_EQ(r.reason, VmStop::Exited) << label;
                EXPECT_EQ(os.exitCode(), ref.exitCode) << label;
                EXPECT_EQ(os.outputChecksum(), ref.outputChecksum)
                    << label;
                EXPECT_EQ(dataChecksum(mem), ref.dataChecksum)
                    << label;
                vm.reRandomize();
            }
        }
    }
}

// ------------------------------------------------------------------
// Byte moves on all three engines.
//
// Movb has its own trace handlers and JIT lowering (zero-extending
// byte loads, low-byte stores through REX-prefixed byte registers),
// so a byte-heavy hot loop must end in the identical architectural
// state on the block loop, the threaded trace interpreter and the
// JIT: registers, flags, pc, every guest-visible byte, the stop
// reason and pc, and every deterministic VmStats counter. The loop
// runs clean, or turns one of its byte accesses into a fault once
// it is hot: a store to a code page, a store to the read-only
// dispatch table, or a load from unmapped memory. (Which JIT host
// register a byte op lands on is up to the compiler and the
// randomizer here; JitSmoke.ByteMovesOnEveryHostRegister pins each
// allocatable host register with a hand-built trace.)
// ------------------------------------------------------------------

enum class ByteFault
{
    None,
    StoreToCode,
    StoreToReadOnly,
    LoadUnmapped
};

/** Iterations of the byte loop; the fault variants arm at kByteArm. */
constexpr int32_t kByteIters = 3000;
constexpr int32_t kByteArm = 2048;
static_assert(kByteArm == 1 << 11 && kByteIters < 2 * kByteArm,
              "the loop arms on bit 11 of its counter");

/**
 * A loop that copies, mixes and accumulates bytes through several
 * pointers and ten simultaneously live byte values. With a fault
 * armed, one access's address switches (branch-free, so the access
 * stays on the trace) to @p fault's target at iteration kByteArm.
 */
IrModule
byteLoopModule(ByteFault fault)
{
    IrModule m;
    m.name = "byteloop";
    IrBuilder b(m);
    std::vector<uint8_t> init(64);
    for (size_t k = 0; k < init.size(); ++k)
        init[k] = static_cast<uint8_t>(0x9d * k + 0x41);
    uint32_t src = b.addGlobal("src", 64, 4, init);
    uint32_t dst = b.addGlobal("dst", 64);
    uint32_t main_fn = b.declareFunction("main", 0);
    b.setEntry(main_fn);

    b.beginFunction(main_fn);
    {
        ValueId srcA = b.globalAddr(src, 0);
        ValueId srcB = b.globalAddr(src, 16);
        ValueId srcC = b.globalAddr(src, 32);
        ValueId dstA = b.globalAddr(dst, 0);
        ValueId dstB = b.globalAddr(dst, 16);
        ValueId dstC = b.globalAddr(dst, 40);
        Addr target = 0;
        switch (fault) {
          case ByteFault::None:
            break;
          case ByteFault::StoreToCode:
            target = layout::kRiscCodeBase + 0x40;
            break;
          case ByteFault::StoreToReadOnly:
            target = layout::kRiscFuncTable + 0x40;
            break;
          case ByteFault::LoadUnmapped:
            target = layout::kHeapBase - 0x1000;
            break;
        }
        ValueId faultBase =
            fault == ByteFault::LoadUnmapped ? srcC : dstC;
        ValueId delta =
            b.sub(b.constI(static_cast<int32_t>(target)), faultBase);
        ValueId acc0 = b.constI(0);
        ValueId acc1 = b.constI(0x5a);
        ValueId acc2 = b.constI(7);
        ValueId acc3 = b.constI(0);
        ValueId i = b.constI(0);
        uint32_t loop = b.newBlock(), body = b.newBlock(),
                 done = b.newBlock();
        b.br(loop);
        b.setBlock(loop);
        b.condBrI(Cond::Lt, i, kByteIters, body, done);
        b.setBlock(body);
        {
            ValueId k = b.andI(i, 15);
            // 0 before kByteArm, all ones from it on.
            ValueId armed = b.sub(b.constI(0),
                                  b.andI(b.shrI(i, 11), 1));
            ValueId detour = b.and_(armed, delta);
            ValueId pa = b.add(srcA, k);
            ValueId pc = b.add(srcC, k);
            ValueId qa = b.add(dstA, k);
            ValueId qc = b.add(dstC, k);
            if (fault == ByteFault::LoadUnmapped)
                pc = b.add(pc, detour);
            else if (fault != ByteFault::None)
                qc = b.add(qc, detour);
            std::vector<ValueId> x;
            for (int32_t j = 0; j < 9; ++j)
                x.push_back(b.load8(j % 2 ? pa : srcB, j));
            x.push_back(b.load8(pc, 2));
            for (int32_t j = 9; j >= 0; --j)
                b.store8(j % 2 ? qa : dstB, x[size_t(j)], j);
            b.store8(qc, x[0], 2);
            b.store8(dstB, i, 11);
            b.assignBinop(IrOp::Add, acc0, acc0, x[0]);
            b.assignBinop(IrOp::Xor, acc1, acc1, x[5]);
            b.assignBinop(IrOp::Add, acc2, acc2, b.shlI(x[9], 1));
            b.assignBinop(IrOp::Add, acc3, acc3, b.mul(x[3], x[8]));
            b.assignBinopI(IrOp::Add, i, i, 1);
        }
        b.br(loop);
        b.setBlock(done);
        b.emitWriteWord(acc0);
        b.emitWriteWord(acc1);
        b.emitWriteWord(acc2);
        b.emitWriteWord(acc3);
        b.emitExit(b.andI(acc0, 0xff));
        b.ret();
    }
    b.endFunction();
    return m;
}

/** Final state of one byte-loop run. */
struct ByteRun
{
    VmRunResult stop;
    MachineState state;
    VmStats stats;
    uint64_t memHash = 0;
    uint32_t exitCode = 0;
    uint64_t outputChecksum = 0;
    uint64_t jitExecutions = 0;
    uint64_t execFallbacks = 0;
};

ByteRun
byteRun(const FatBinary &bin, IsaKind isa, uint64_t seed,
        PsrConfig::TraceMode trace, PsrConfig::JitMode jit_mode)
{
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    cfg.seed = seed;
    cfg.optLevel = unsigned(seed % 3) + 1;
    cfg.traceMode = trace;
    cfg.jitMode = jit_mode;
    PsrVm vm(bin, isa, mem, os, cfg);
    vm.reset();
    ByteRun out;
    out.stop = vm.run(kMaxInsts);
    out.state = vm.state;
    out.stats = vm.stats;
    // Every guest-writable byte: globals, heap and stack.
    uint64_t h = 0xcbf29ce484222325ull;
    for (Addr a = layout::kDataBase; a < layout::kStackTop; ++a) {
        h ^= mem.data()[a];
        h *= 0x100000001b3ull;
    }
    out.memHash = h;
    out.exitCode = os.exitCode();
    out.outputChecksum = os.outputChecksum();
    out.jitExecutions = vm.jitStats().executions;
    out.execFallbacks = vm.traceStats().execFallbacks +
        vm.jitStats().execFallbacks;
    return out;
}

void
expectSameByteRun(const ByteRun &x, const ByteRun &y,
                  bool same_follow_split, const std::string &label)
{
    EXPECT_EQ(x.stop.reason, y.stop.reason) << label;
    EXPECT_EQ(x.stop.stopPc, y.stop.stopPc) << label;
    EXPECT_EQ(x.state.regs, y.state.regs) << label;
    EXPECT_EQ(x.state.flags, y.state.flags) << label;
    EXPECT_EQ(x.state.pc, y.state.pc) << label;
    EXPECT_EQ(x.memHash, y.memHash) << label;
    EXPECT_EQ(x.exitCode, y.exitCode) << label;
    EXPECT_EQ(x.outputChecksum, y.outputChecksum) << label;
    const VmStats &a = x.stats, &b = y.stats;
    EXPECT_EQ(a.guestInsts, b.guestInsts) << label;
    EXPECT_EQ(a.hostInsts, b.hostInsts) << label;
    EXPECT_EQ(a.memReads, b.memReads) << label;
    EXPECT_EQ(a.memWrites, b.memWrites) << label;
    EXPECT_EQ(a.dispatches, b.dispatches) << label;
    EXPECT_EQ(a.translations, b.translations) << label;
    EXPECT_EQ(a.translatedGuestInsts, b.translatedGuestInsts) << label;
    EXPECT_EQ(a.ratHits, b.ratHits) << label;
    EXPECT_EQ(a.ratMisses, b.ratMisses) << label;
    EXPECT_EQ(a.indirectTransfers, b.indirectTransfers) << label;
    EXPECT_EQ(a.codeCacheMisses, b.codeCacheMisses) << label;
    EXPECT_EQ(a.securityEvents, b.securityEvents) << label;
    EXPECT_EQ(a.migrationsRequested, b.migrationsRequested) << label;
    EXPECT_EQ(a.cacheFlushes, b.cacheFlushes) << label;
    EXPECT_EQ(a.syscalls, b.syscalls) << label;
    EXPECT_EQ(a.diversificationFlips, b.diversificationFlips) << label;
    // Tracing moves on-trace edges from chainFollows to traceFollows.
    EXPECT_EQ(a.chainFollows + a.traceFollows,
              b.chainFollows + b.traceFollows)
        << label;
    if (same_follow_split) {
        EXPECT_EQ(a.chainFollows, b.chainFollows) << label;
        EXPECT_EQ(a.traceFollows, b.traceFollows) << label;
    }
}

TEST(Differential, ByteMovesMatchAcrossEngines)
{
    const char *reason = nullptr;
    const bool jit_ok = jit::TraceJit::hostSupported(&reason);
    for (ByteFault fault :
         { ByteFault::None, ByteFault::StoreToCode,
           ByteFault::StoreToReadOnly, ByteFault::LoadUnmapped }) {
        FatBinary bin = compileModule(byteLoopModule(fault));
        for (IsaKind isa : kAllIsas) {
            for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
                const std::string label = std::string("byteloop/") +
                    std::to_string(static_cast<int>(fault)) + "/" +
                    isaName(isa) + "/seed=" + std::to_string(seed);
                ByteRun block =
                    byteRun(bin, isa, seed, PsrConfig::TraceMode::Off,
                            PsrConfig::JitMode::Off);
                ByteRun threaded =
                    byteRun(bin, isa, seed, PsrConfig::TraceMode::On,
                            PsrConfig::JitMode::Off);
                ByteRun jitted =
                    byteRun(bin, isa, seed, PsrConfig::TraceMode::On,
                            PsrConfig::JitMode::On);
                const VmStop want = fault == ByteFault::None
                    ? VmStop::Exited
                    : VmStop::Fault;
                EXPECT_EQ(block.stop.reason, want) << label;
                if (fault != ByteFault::None) {
                    // The fault fired in the hot loop, after kByteArm
                    // iterations had retired.
                    EXPECT_GT(block.stats.guestInsts,
                              uint64_t(10) * kByteArm)
                        << label;
                }
                expectSameByteRun(block, threaded, false,
                                  label + "/threaded");
                expectSameByteRun(threaded, jitted, true,
                                  label + "/jit");
                // The hot loop ran on traces, byte moves included
                // (a byte move left to the generic handler counts as
                // an execFallback).
                EXPECT_GT(threaded.stats.traceFollows, 0u) << label;
                EXPECT_EQ(threaded.execFallbacks, 0u) << label;
                EXPECT_EQ(jitted.execFallbacks, 0u) << label;
                if (jit_ok) {
                    EXPECT_GT(jitted.jitExecutions, 0u) << label;
                }
            }
        }
    }
}

} // namespace
} // namespace hipstr
