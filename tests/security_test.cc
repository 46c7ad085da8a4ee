/**
 * @file
 * End-to-end security tests: real exploit payloads against the real
 * runtime. The attack machinery mirrors examples/rop_attack_demo —
 * the attacker mines gadgets with Galileo, learns their behaviour
 * from the sandbox, and injects an execve payload.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "attack/classifier.hh"
#include "attack/galileo.hh"
#include "hipstr/runtime.hh"
#include "test_util.hh"
#include "vm/psr_vm.hh"
#include "workloads/workloads.hh"

namespace hipstr
{
namespace
{

struct Exploit
{
    Addr gadget = 0;
    std::vector<uint32_t> stackWords;
};

/** Build the syscall-site execve exploit (see rop_attack_demo). */
std::optional<Exploit>
buildExploit(const FatBinary &bin, Memory &mem)
{
    auto gadgets = scanBinary(bin, IsaKind::Cisc);
    GadgetSandbox sandbox(mem, IsaKind::Cisc);
    const IsaDescriptor &desc = isaDescriptor(IsaKind::Cisc);
    const std::vector<std::pair<Reg, uint32_t>> wanted = {
        { desc.retReg, uint32_t(SyscallNo::Execve) },
        { desc.argRegs[1], 0xdead0001 },
        { desc.argRegs[2], 0xdead0002 },
        { desc.argRegs[3], 0xdead0003 },
    };
    for (const Gadget &g : gadgets) {
        if (!g.hasSyscall)
            continue;
        GadgetEffect e = sandbox.executeNative(g);
        if (!e.syscallReached)
            continue;
        Exploit ex;
        ex.gadget = g.addr;
        ex.stackWords.assign(16, 0x41414141);
        bool ok = true;
        for (auto [reg, value] : wanted) {
            if (!maskHas(e.popMask, reg)) {
                ok = false;
                break;
            }
            size_t idx = 0;
            int32_t off = -1;
            for (unsigned r = 0; r < 16; ++r) {
                if (!maskHas(e.popMask, static_cast<Reg>(r)))
                    continue;
                if (r == reg)
                    off = e.popOffsets[idx];
                ++idx;
            }
            if (off < 0 || off / 4 >= 16) {
                ok = false;
                break;
            }
            ex.stackWords[static_cast<size_t>(off / 4)] = value;
        }
        if (ok)
            return ex;
    }
    return std::nullopt;
}

void
inject(const Exploit &ex, Memory &mem, MachineState &state)
{
    Addr sp = layout::kStackTop - 0x8000;
    for (size_t i = 0; i < ex.stackWords.size(); ++i)
        mem.rawWrite32(sp + Addr(4 * i), ex.stackWords[i]);
    state.setSp(sp);
    state.pc = ex.gadget;
}

bool
attackerWon(const GuestOs &os)
{
    return os.execveFired() && os.execveArgs()[0] == 0xdead0001 &&
        os.execveArgs()[1] == 0xdead0002;
}

TEST(Security, NativeBinaryIsExploitable)
{
    FatBinary bin = compileModule(buildWorkload("httpd"));
    Memory mem;
    loadFatBinary(bin, mem);
    auto exploit = buildExploit(bin, mem);
    ASSERT_TRUE(exploit) << "the unprotected binary must be "
                            "attackable for the defense tests to "
                            "mean anything";

    GuestOs os;
    Interpreter interp(IsaKind::Cisc, mem, os);
    initMachineState(interp.state, bin, IsaKind::Cisc);
    inject(*exploit, mem, interp.state);
    (void)interp.run(10'000);
    EXPECT_TRUE(attackerWon(os));
}

TEST(Security, PsrDefeatsTheExploitAcrossSeeds)
{
    FatBinary bin = compileModule(buildWorkload("httpd"));
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        Memory mem;
        loadFatBinary(bin, mem);
        auto exploit = buildExploit(bin, mem);
        ASSERT_TRUE(exploit);

        GuestOs os;
        PsrConfig cfg;
        cfg.seed = seed;
        PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
        vm.reset();
        (void)vm.run(300'000); // steady state
        inject(*exploit, mem, vm.state);
        (void)vm.run(10'000);
        EXPECT_FALSE(attackerWon(os)) << "seed " << seed;
    }
}

TEST(Security, AttackRaisesSecurityEventUnderPsr)
{
    FatBinary bin = compileModule(buildWorkload("httpd"));
    Memory mem;
    loadFatBinary(bin, mem);
    auto exploit = buildExploit(bin, mem);
    ASSERT_TRUE(exploit);

    GuestOs os;
    PsrConfig cfg;
    PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
    vm.reset();
    auto steady = vm.run(100'000);
    ASSERT_TRUE(steady.reason == VmStop::StepLimit ||
                steady.reason == VmStop::Exited);
    uint64_t events_before = vm.stats.securityEvents;

    inject(*exploit, mem, vm.state);
    (void)vm.run(10'000);
    // The gadget dispatch misses the code cache: suspected breach.
    EXPECT_GT(vm.stats.securityEvents, events_before);
}

/**
 * Every code-cache miss on an indirect transfer records one
 * vm.security_event instant, returns included: the exploit's gadget
 * returns into attacker-chosen words, which miss the RAT and the
 * code cache.
 */
TEST(Security, EverySecurityEventIsTraced)
{
    FatBinary bin = compileModule(buildWorkload("httpd"));
    Memory mem;
    loadFatBinary(bin, mem);
    auto exploit = buildExploit(bin, mem);
    ASSERT_TRUE(exploit);

    telemetry::TraceBuffer trace(1 << 16);
    trace.setMask(telemetry::categoryBit(telemetry::TraceCategory::Vm));
    GuestOs os;
    PsrConfig cfg;
    PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
    vm.trace = &trace;
    vm.reset();
    (void)vm.run(100'000);
    inject(*exploit, mem, vm.state);
    (void)vm.run(10'000);

    ASSERT_EQ(trace.dropped(), 0u);
    uint64_t instants = 0;
    for (const telemetry::TraceEvent &ev : trace.snapshot())
        instants += std::string(ev.name) == "vm.security_event";
    EXPECT_GT(vm.stats.securityEvents, 0u);
    EXPECT_EQ(instants, vm.stats.securityEvents);
}

TEST(Security, HipstrRequestsMigrationOnAttack)
{
    FatBinary bin = compileModule(buildWorkload("httpd"));
    Memory mem;
    loadFatBinary(bin, mem);
    auto exploit = buildExploit(bin, mem);
    ASSERT_TRUE(exploit);

    GuestOs os;
    HipstrConfig cfg;
    cfg.diversificationProbability = 1.0;
    HipstrRuntime runtime(bin, mem, os, cfg);
    runtime.reset();
    (void)runtime.run(300'000);

    PsrVm &vm = runtime.vm(runtime.currentIsa());
    uint64_t requests_before = vm.stats.migrationsRequested;
    uint64_t events_before = vm.stats.securityEvents;
    inject(*exploit, mem, vm.state);
    runtime.rearm(); // resuming a hijacked guest is deliberate here
    auto s = runtime.run(10'000);

    EXPECT_FALSE(attackerWon(os));
    EXPECT_GT(vm.stats.securityEvents, events_before);
    // Either the policy migrated (gadget was a safe point —
    // effectively never) or it consulted the policy and executed
    // locally with full PSR obfuscation; both defeat the chain.
    (void)requests_before;
    EXPECT_NE(s.reason, VmStop::Exited);
}

TEST(Security, RespawningBruteForceNeverLandsExecve)
{
    // The Blind-ROP model: the worker respawns after each crash with
    // fresh randomization (Section 5.3). The attacker replays the
    // same payload every generation; no generation may yield a
    // correctly-parameterized execve.
    FatBinary bin = compileModule(buildWorkload("httpd"));
    Memory mem;
    loadFatBinary(bin, mem);
    auto exploit = buildExploit(bin, mem);
    ASSERT_TRUE(exploit);

    GuestOs os;
    PsrConfig cfg;
    cfg.seed = 42;
    PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
    for (unsigned attempt = 0; attempt < 30; ++attempt) {
        os.reset();
        vm.reset();
        (void)vm.run(150'000);
        inject(*exploit, mem, vm.state);
        (void)vm.run(10'000);
        EXPECT_FALSE(attackerWon(os)) << "attempt " << attempt;
        vm.reRandomize(); // respawn
    }
    EXPECT_EQ(vm.randomizer().generation(), 30u);
}

TEST(Security, SfiKillsReturnsIntoCodeCache)
{
    FatBinary bin = compileModule(buildWorkload("bzip2"));
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    PsrConfig cfg;
    PsrVm vm(bin, IsaKind::Cisc, mem, os, cfg);
    vm.reset();
    (void)vm.run(50'000);

    // The attacker points a return at the code cache itself: find a
    // bare ret gadget, stage a stack whose top word is a cache
    // pointer, and dispatch to the gadget. The VM must terminate the
    // process (Section 5.1's fault-isolation rule), never execute
    // cache bytes as guest code.
    auto gadgets = scanBinary(bin, IsaKind::Cisc);
    Addr ret_gadget = 0;
    for (const Gadget &g : gadgets) {
        if (g.insts.size() == 1 && g.end == GadgetEnd::Ret) {
            ret_gadget = g.addr;
            break;
        }
    }
    ASSERT_NE(ret_gadget, 0u);

    Addr sp = layout::kStackTop - 0x4000;
    mem.rawWrite32(sp, layout::cacheBase(IsaKind::Cisc) + 64);
    vm.state.setSp(sp);
    vm.state.pc = ret_gadget;
    auto r = vm.run(10'000);
    EXPECT_EQ(r.reason, VmStop::SfiViolation);
    EXPECT_TRUE(vm.codeCache().contains(r.stopPc));
}

TEST(Security, JopGadgetsAreAlsoObfuscated)
{
    // Jump-oriented gadgets (ending in indirect jumps/calls) go
    // through the same relocation machinery — Section 5.3's claim
    // that PSR "holds for jump-oriented programming".
    FatBinary bin = compileModule(buildWorkload("sphinx3"));
    Memory mem;
    loadFatBinary(bin, mem);
    auto gadgets = scanBinary(bin, IsaKind::Cisc);
    PsrConfig cfg;
    PsrGadgetEvaluator eval(bin, mem, IsaKind::Cisc, cfg, 2);
    unsigned jop_total = 0, jop_unobfuscated = 0;
    for (const Gadget &g : gadgets) {
        if (g.end != GadgetEnd::IndirectJump &&
            g.end != GadgetEnd::IndirectCall) {
            continue;
        }
        ObfuscationVerdict v = eval.evaluate(g);
        ++jop_total;
        if (v.unobfuscated)
            ++jop_unobfuscated;
    }
    EXPECT_GT(jop_total, 0u);
    EXPECT_EQ(jop_unobfuscated, 0u);
}

} // namespace
} // namespace hipstr
