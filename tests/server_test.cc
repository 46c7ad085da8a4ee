/**
 * @file
 * Tests for the heterogeneous-CMP server subsystem: process
 * lifecycle, scheduler fairness and ISA-affinity routing, Section 5.3
 * respawn re-randomization, resumable-runtime equivalence, and the
 * whole-server determinism contract.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "server/protected_server.hh"
#include "test_util.hh"
#include "workloads/workloads.hh"

using namespace hipstr;
using namespace hipstr::test;

namespace
{

const FatBinary &
httpdBin()
{
    static const FatBinary bin = [] {
        WorkloadConfig wcfg;
        wcfg.scale = 1;
        return compileModule(buildWorkload("httpd", wcfg));
    }();
    return bin;
}

GuestProcessConfig
procConfig(uint32_t pid = 0)
{
    GuestProcessConfig cfg;
    cfg.pid = pid;
    cfg.hipstr.diversificationProbability = 1.0;
    return cfg;
}

/** Lines in /proc/self/maps (0 where procfs is unavailable). */
size_t
mappingCount()
{
    std::ifstream maps("/proc/self/maps");
    size_t n = 0;
    for (std::string line; std::getline(maps, line);)
        ++n;
    return n;
}

/** Resident set in pages from /proc/self/statm (0 if unavailable). */
size_t
residentPages()
{
    std::ifstream statm("/proc/self/statm");
    size_t size = 0, resident = 0;
    statm >> size >> resident;
    return resident;
}

/**
 * Resident kB of the mapping containing @p p, from /proc/self/smaps
 * (0 if unavailable).
 */
size_t
residentKbAt(const void *p)
{
    const auto addr = reinterpret_cast<uintptr_t>(p);
    std::ifstream smaps("/proc/self/smaps");
    bool inside = false;
    for (std::string line; std::getline(smaps, line);) {
        unsigned long long lo = 0, hi = 0;
        if (std::sscanf(line.c_str(), "%llx-%llx ", &lo, &hi) == 2 &&
            line.find(':') > line.find(' ')) {
            inside = addr >= lo && addr < hi;
        } else if (inside && line.rfind("Rss:", 0) == 0) {
            return std::stoul(line.substr(4));
        }
    }
    return 0;
}

} // namespace

// A staged attack probe raises a security event on its first quantum,
// the policy fires, the migration succeeds, and the process comes out
// Ready with the opposite ISA affinity — the scheduler's cue to
// requeue it on the other core type.
TEST(GuestProcess, SecurityMigrationFlipsIsaAffinity)
{
    GuestProcessConfig cfg = procConfig();
    cfg.alternateStartIsa = false;
    GuestProcess proc(httpdBin(), cfg);

    const IsaKind before = proc.isa();
    proc.beginService(1'000'000);
    ASSERT_TRUE(proc.injectAttackProbe(3));
    QuantumResult q = proc.runQuantum(50'000);

    ASSERT_TRUE(q.migrated);
    EXPECT_EQ(q.reason, VmStop::MigrationRequested);
    EXPECT_NE(proc.isa(), before);
    EXPECT_EQ(proc.state(), ProcState::Ready);
    EXPECT_TRUE(proc.lastQuantumMigrated());
    EXPECT_EQ(proc.stats().migrations, 1u);
}

// Scheduler integration of the same scenario: after the security
// migration the process is requeued onto the other ISA's core and
// keeps executing there — both ISAs accumulate guest instructions and
// the requeue is counted as a routed migration.
TEST(CmpScheduler, RoutesMigratedProcessToOtherIsaCore)
{
    CmpConfig mc;
    mc.riscCores = 1;
    mc.ciscCores = 1;
    CmpModel cmp(mc);
    CmpScheduler sched(cmp, SchedulerConfig{});

    GuestProcessConfig cfg = procConfig();
    cfg.alternateStartIsa = false;
    GuestProcess proc(httpdBin(), cfg);

    proc.beginService(400'000);
    ASSERT_TRUE(proc.injectAttackProbe(3));
    sched.notifyReady(&proc);
    for (unsigned i = 0; i < 100 && !sched.idle(); ++i)
        sched.round();

    EXPECT_EQ(proc.state(), ProcState::Blocked);
    EXPECT_GE(sched.stats().migrationsRouted, 1u);
    GuestProcessStats s = proc.stats();
    EXPECT_GT(s.guestInstsPerIsa[0], 0u);
    EXPECT_GT(s.guestInstsPerIsa[1], 0u);
    EXPECT_EQ(uint32_t(sched.stats().migrationsRouted),
              s.migrations);
}

// Round-robin fairness: two processes sharing each single core of
// their ISA must alternate exactly — after 2N rounds every process
// has run N quanta.
TEST(CmpScheduler, QuantumFairness)
{
    CmpConfig mc;
    mc.riscCores = 1;
    mc.ciscCores = 1;
    CmpModel cmp(mc);
    CmpScheduler sched(cmp, SchedulerConfig{});

    std::vector<std::unique_ptr<GuestProcess>> procs;
    for (uint32_t pid = 0; pid < 4; ++pid) {
        procs.push_back(std::make_unique<GuestProcess>(
            httpdBin(), procConfig(pid)));
        procs.back()->beginService(uint64_t(1) << 62);
        sched.notifyReady(procs.back().get());
    }

    const unsigned rounds = 20;
    for (unsigned i = 0; i < rounds; ++i)
        sched.round();

    for (const auto &p : procs) {
        EXPECT_EQ(p->stats().quanta, rounds / 2)
            << "pid " << p->pid();
    }
    EXPECT_EQ(sched.stats().quantaRun, uint64_t(rounds) * 2);
    EXPECT_EQ(sched.stats().idleCoreQuanta, 0u);
}

// Section 5.3: a crash respawn advances the randomizer generation on
// both ISAs and yields different relocation maps, while the respawned
// program still produces byte-identical output (verified against the
// reference-interpreter checksum).
TEST(GuestProcess, RespawnReRandomizesButPreservesOutput)
{
    const FatBinary &bin = httpdBin();
    GuestProcessConfig cfg = procConfig();
    cfg.alternateStartIsa = false;
    GuestProcess proc(bin, cfg);
    proc.setExpectedChecksum(
        runNative(bin, IsaKind::Cisc).outputChecksum);

    proc.beginService(2'000'000);
    ASSERT_TRUE(proc.injectCorruption(5));
    QuantumResult q = proc.runQuantum(50'000);
    ASSERT_EQ(q.reason, VmStop::SfiViolation);
    ASSERT_EQ(proc.state(), ProcState::Crashed);

    // Snapshot the pre-respawn relocation decisions.
    const IsaKind isa = proc.isa();
    struct MapSnap
    {
        std::array<Reg, 16> regMap;
        std::map<uint32_t, uint32_t> slots;
        uint32_t newFrameSize;
    };
    std::map<uint32_t, MapSnap> before;
    for (const FuncInfo &fi : bin.funcsFor(isa)) {
        const RelocationMap &m =
            proc.runtime().vm(isa).randomizer().mapFor(fi.funcId);
        before[fi.funcId] = MapSnap{
            m.regMap,
            { m.slotMap.begin(), m.slotMap.end() },
            m.newFrameSize,
        };
    }
    for (IsaKind k : kAllIsas) {
        EXPECT_EQ(proc.runtime().vm(k).randomizer().generation(),
                  0u);
    }

    proc.respawn();
    EXPECT_EQ(proc.respawnCount(), 1u);
    EXPECT_EQ(proc.state(), ProcState::Ready);
    for (IsaKind k : kAllIsas) {
        EXPECT_EQ(proc.runtime().vm(k).randomizer().generation(),
                  1u);
    }

    // Fresh generation, fresh maps: at least one function must have
    // moved slots, permuted registers, or resized its frame.
    bool changed = false;
    for (const FuncInfo &fi : bin.funcsFor(isa)) {
        const RelocationMap &m =
            proc.runtime().vm(isa).randomizer().mapFor(fi.funcId);
        const MapSnap &s = before.at(fi.funcId);
        if (m.regMap != s.regMap || m.newFrameSize != s.newFrameSize ||
            std::map<uint32_t, uint32_t>(m.slotMap.begin(),
                                         m.slotMap.end()) != s.slots) {
            changed = true;
            break;
        }
    }
    EXPECT_TRUE(changed);

    // The respawned worker keeps serving and its (re-randomized)
    // program runs still produce the reference output.
    while (proc.state() == ProcState::Ready)
        proc.runQuantum(20'000);
    EXPECT_EQ(proc.state(), ProcState::Blocked);
    GuestProcessStats s = proc.stats();
    EXPECT_GE(s.programsCompleted, 1u);
    EXPECT_EQ(s.checksumMismatches, 0u);
}

// Section 5.3 respawn must hand the new incarnation a pristine image
// however the old one left memory: dirtied globals, a heap word far
// past brk, a deep stack word, a raw bit flip in loaded data, and a
// half-wiped range with partial head and tail pages. After every
// respawn [kDataBase, kStackTop) equals a freshly loaded image byte
// for byte, the backing store has not moved, and 200 respawns grow
// neither the mapping count nor the resident set — of the guest
// image, which holds only what the reload wrote, or of the process.
TEST(GuestProcess, RespawnRestoresPristineImage)
{
    const FatBinary &bin = httpdBin();
    Memory fresh;
    loadFatBinary(bin, fresh);
    constexpr Addr kLo = layout::kDataBase;
    constexpr Addr kHi = layout::kStackTop;

    GuestProcess proc(bin, procConfig());
    Memory &mem = proc.mem();
    const uint8_t *const data = mem.data();
    const uint8_t *const jit_base = mem.jitBase();

    size_t maps_base = 0, rss_base = 0, image_kb_base = 0;
    for (uint32_t i = 0; i < 200; ++i) {
        // Serve a little so the incarnation dirties its own stack and
        // heap, then crash it through the SFI check.
        if (proc.state() == ProcState::Blocked)
            proc.beginService(1'000'000);
        proc.runQuantum(20'000);
        if (proc.state() == ProcState::Blocked)
            proc.beginService(1'000'000);
        ASSERT_EQ(proc.state(), ProcState::Ready);
        ASSERT_TRUE(proc.injectCorruption(i));
        proc.runQuantum(50'000);
        ASSERT_EQ(proc.state(), ProcState::Crashed);

        mem.rawWrite32(layout::kGlobalsBase + 4 * (i % 64), 0xdeadbeef);
        mem.rawWrite32(layout::kHeapBase + 0x100000 + 4 * i, ~i);
        mem.rawWrite32(layout::kStackLimit + 4 * i, i + 1);
        const Addr flip = layout::kRiscFuncTable + 4 * (i % 16);
        mem.rawWrite8(flip, mem.rawRead8(flip) ^ 0x10);
        mem.zeroRange(kLo + 0x123 + 8 * i, 20 * 4096 + 0x77);

        proc.respawn();
        ASSERT_EQ(proc.state(), ProcState::Ready);
        ASSERT_EQ(mem.data(), data);
        ASSERT_EQ(mem.jitBase(), jit_base);
        for (Addr a = kLo; a < kHi; a += 4096) {
            ASSERT_EQ(std::memcmp(mem.data() + a, fresh.data() + a, 4096),
                      0)
                << "respawn " << i << ": page 0x" << std::hex << a
                << " differs from a fresh image";
        }
        const size_t image_kb = residentKbAt(mem.data());
        if (i == 9) {
            maps_base = mappingCount();
            rss_base = residentPages();
            image_kb_base = image_kb;
        } else if (i > 9) {
            ASSERT_LE(image_kb, image_kb_base + 64)
                << "respawn " << i << " left the old image resident";
        }
    }
    EXPECT_EQ(proc.respawnCount(), 200u);
    // Slack for the host side: the allocator may map or trim an arena
    // between samples, and each VM's 1 MiB JIT arena keeps filling
    // across respawns until it wraps. A mapping or image leaked per
    // respawn would show as hundreds of entries or megabytes. ASan
    // holds freed blocks in its quarantine, so there the process RSS
    // says nothing about leaks; the image check above still runs.
#if defined(__SANITIZE_ADDRESS__)
    constexpr bool kRssTracksLeaks = false;
#else
    constexpr bool kRssTracksLeaks = true;
#endif
    EXPECT_LE(mappingCount(), maps_base + 4);
    if (kRssTracksLeaks) {
        EXPECT_LE(residentPages(), rss_base + 1024);
    }
}

// Resumable-runtime contract: slicing a run into quanta must be
// observationally identical to one uninterrupted run — same
// instruction count, same stop reason, same output checksum.
TEST(HipstrRuntime, RunQuantumEquivalentToSingleRun)
{
    const FatBinary &bin = httpdBin();
    HipstrConfig cfg;
    cfg.diversificationProbability = 1.0;
    cfg.phaseIntervalInsts = 0;

    Memory memA;
    loadFatBinary(bin, memA);
    GuestOs osA;
    HipstrRuntime rtA(bin, memA, osA, cfg);
    rtA.reset();
    HipstrRunSummary whole = rtA.run(100'000'000);
    ASSERT_EQ(whole.reason, VmStop::Exited);

    Memory memB;
    loadFatBinary(bin, memB);
    GuestOs osB;
    HipstrRuntime rtB(bin, memB, osB, cfg);
    rtB.reset();
    QuantumResult last;
    unsigned slices = 0;
    while (!rtB.finished()) {
        last = rtB.runQuantum(7'777);
        ++slices;
        ASSERT_LT(slices, 100'000u);
    }

    EXPECT_GT(slices, 1u);
    EXPECT_EQ(last.reason, whole.reason);
    EXPECT_EQ(rtB.summary().totalGuestInsts, whole.totalGuestInsts);
    for (size_t i = 0; i < kNumIsas; ++i) {
        EXPECT_EQ(rtB.summary().guestInstsPerIsa[i],
                  whole.guestInstsPerIsa[i]);
    }
    EXPECT_EQ(rtB.summary().migrationsDenied,
              whole.migrationsDenied);
    EXPECT_EQ(osB.outputChecksum(), osA.outputChecksum());
    EXPECT_EQ(osB.exitCode(), osA.exitCode());
}

// Misuse guard: resuming a terminally stopped runtime without reset()
// (or the explicit rearm() escape hatch) must trip the assertion.
TEST(HipstrRuntimeDeathTest, RunAfterTerminalStopAsserts)
{
    const FatBinary &bin = httpdBin();
    Memory mem;
    loadFatBinary(bin, mem);
    GuestOs os;
    HipstrRuntime rt(bin, mem, os, HipstrConfig{});
    rt.reset();
    HipstrRunSummary s = rt.run(100'000'000);
    ASSERT_EQ(s.reason, VmStop::Exited);
    EXPECT_TRUE(rt.finished());
    EXPECT_DEATH((void)rt.run(1'000), "terminal stop");
}

// Whole-server determinism: the report signature is a pure function
// of the configuration — identical whether the quanta run serially or
// on eight host threads.
TEST(ProtectedServer, DeterministicAcrossHostThreadCounts)
{
    ServerConfig cfg;
    cfg.workers = 4;
    cfg.requestCount = 80;
    cfg.mix.attackFrac = 0.05;
    cfg.mix.malformedFrac = 0.05;
    cfg.hipstr.diversificationProbability = 1.0;

    ThreadPool::setGlobalThreads(0); // serial
    ProtectedServer serial(httpdBin(), cfg);
    ServerReport r1 = serial.run();

    ThreadPool::setGlobalThreads(7); // 8-way
    ProtectedServer threaded(httpdBin(), cfg);
    ServerReport r2 = threaded.run();
    ThreadPool::setGlobalThreads(0);

    EXPECT_EQ(r1.requestsServed, cfg.requestCount);
    EXPECT_EQ(r1.signature, r2.signature);
    EXPECT_EQ(r1.rounds, r2.rounds);
    EXPECT_EQ(r1.migrations, r2.migrations);
    EXPECT_EQ(r1.crashes, r2.crashes);
    EXPECT_EQ(r1.respawns, r2.respawns);
    EXPECT_EQ(r1.totalGuestInsts, r2.totalGuestInsts);
    EXPECT_EQ(r1.latency.p95Rounds, r2.latency.p95Rounds);
}

// Identical configurations must give identical per-process behaviour;
// different pids must not (independent randomization per tenant).
TEST(GuestProcess, SeedingIsPerPidAndReproducible)
{
    GuestProcess a(httpdBin(), procConfig(0));
    GuestProcess b(httpdBin(), procConfig(0));
    GuestProcess c(httpdBin(), procConfig(2)); // same start ISA as 0

    for (GuestProcess *p : { &a, &b, &c }) {
        p->beginService(300'000);
        while (p->state() == ProcState::Ready)
            p->runQuantum(20'000);
    }
    EXPECT_EQ(a.statsSignature(), b.statsSignature());

    const RelocationMap &ma =
        a.runtime().vm(a.isa()).randomizer().mapFor(0);
    const RelocationMap &mc =
        c.runtime().vm(c.isa()).randomizer().mapFor(0);
    const std::map<uint32_t, uint32_t> slotsA(ma.slotMap.begin(),
                                              ma.slotMap.end());
    const std::map<uint32_t, uint32_t> slotsC(mc.slotMap.begin(),
                                              mc.slotMap.end());
    const bool differs = ma.regMap != mc.regMap ||
        ma.newFrameSize != mc.newFrameSize || slotsA != slotsC;
    EXPECT_TRUE(differs);
}

// The retained-output cap keeps long-lived workers flat: the checksum
// still covers the full stream while the buffer never exceeds twice
// the cap (the amortized trim's high-water mark).
TEST(GuestOs, OutputCapBoundsRetainedBytesButNotChecksum)
{
    GuestOs capped;
    capped.setOutputCap(64);
    GuestOs unbounded;
    Memory mem;
    MachineState st;
    st.isa = IsaKind::Cisc;
    const IsaDescriptor &desc = isaDescriptor(st.isa);
    for (uint32_t i = 0; i < 10'000; ++i) {
        st.setReg(desc.retReg,
                  static_cast<uint32_t>(SyscallNo::WriteWord));
        st.setReg(desc.argRegs[1], i * 2654435761u);
        capped.handleSyscall(st, mem);
        st.setReg(desc.retReg,
                  static_cast<uint32_t>(SyscallNo::WriteWord));
        st.setReg(desc.argRegs[1], i * 2654435761u);
        unbounded.handleSyscall(st, mem);
    }
    EXPECT_EQ(capped.outputChecksum(), unbounded.outputChecksum());
    EXPECT_EQ(capped.totalOutputBytes(),
              unbounded.totalOutputBytes());
    EXPECT_LE(capped.output().size(), 128u);
    EXPECT_EQ(unbounded.output().size(), 40'000u);

    std::vector<uint8_t> drained = capped.drainOutput();
    EXPECT_FALSE(drained.empty());
    EXPECT_TRUE(capped.output().empty());
    EXPECT_EQ(capped.outputChecksum(), unbounded.outputChecksum());
}

// Syscall argument validation: a guest-supplied buffer pointer that
// is unmapped (or straddles a region edge) is the guest's bug — the
// kernel answers -1 and keeps the guest running, never raising a
// host-side Memory::Fault or half-completing the operation.
TEST(GuestOs, BadSyscallPointersReturnGuestError)
{
    GuestOs os;
    Memory mem;
    mem.setRegion(layout::kGlobalsBase, 0x1000, PermRW, "data");
    MachineState st;
    st.isa = IsaKind::Risc;
    const IsaDescriptor &desc = isaDescriptor(st.isa);

    auto call = [&](SyscallNo no, uint32_t a1, uint32_t a2,
                    uint32_t a3) {
        st.setReg(desc.retReg, static_cast<uint32_t>(no));
        st.setReg(desc.argRegs[1], a1);
        st.setReg(desc.argRegs[2], a2);
        st.setReg(desc.argRegs[3], a3);
        EXPECT_TRUE(os.handleSyscall(st, mem));
        return st.reg(desc.retReg);
    };

    // WriteBuf from an unmapped pointer: -1, not a single byte out.
    EXPECT_EQ(call(SyscallNo::WriteBuf, 0x10, 64, 0), uint32_t(-1));
    EXPECT_EQ(os.totalOutputBytes(), 0u);
    // A buffer straddling the end of the mapped window is rejected
    // whole — validation is all-or-nothing, never a partial stream.
    EXPECT_EQ(call(SyscallNo::WriteBuf,
                   layout::kGlobalsBase + 0x1000 - 8, 64, 0),
              uint32_t(-1));
    EXPECT_EQ(os.totalOutputBytes(), 0u);
    // A good pointer still works: len bytes plus the marker byte.
    EXPECT_EQ(call(SyscallNo::WriteBuf, layout::kGlobalsBase, 8, 0),
              8u);
    EXPECT_EQ(os.totalOutputBytes(), 9u);

    // SetJmp into unmapped memory: -1, nothing written.
    EXPECT_EQ(call(SyscallNo::SetJmp, 0x20, 0x1234, 0), uint32_t(-1));

    // LongJmp from a bad jmp_buf: -1 with sp/pc untouched — a corrupt
    // pointer must not half-restore the machine.
    const Addr pc_before = st.pc;
    const uint32_t sp_before = st.sp();
    EXPECT_EQ(call(SyscallNo::LongJmp, 0x20, 7, 0), uint32_t(-1));
    EXPECT_EQ(st.pc, pc_before);
    EXPECT_EQ(st.sp(), sp_before);
    EXPECT_FALSE(os.takeRedirect());

    // The validated path still round-trips through a good buffer.
    const Addr buf = layout::kGlobalsBase + 64;
    st.setSp(0x00ff0000);
    EXPECT_EQ(call(SyscallNo::SetJmp, buf, 0x00401000, 0), 0u);
    call(SyscallNo::LongJmp, buf, 42, 0);
    EXPECT_TRUE(os.takeRedirect());
    EXPECT_EQ(st.pc, 0x00401000u);
    EXPECT_EQ(st.sp(), 0x00ff0000u);
    EXPECT_EQ(mem.read32(buf + 8), 42u);
}

// Mid-run server checkpoint equivalence: a server checkpointed after
// N rounds and restored into a fresh instance (same binary, same
// config) finishes with the byte-identical report the uninterrupted
// run produces — caches, traces, and inline caches rebuild cold on
// the restored side without perturbing a single observable outcome.
TEST(ProtectedServer, CheckpointRestoreContinuesByteIdentically)
{
    ServerConfig cfg;
    cfg.workers = 4;
    cfg.requestCount = 60;
    cfg.mix.attackFrac = 0.05;
    cfg.mix.malformedFrac = 0.05;
    cfg.hipstr.diversificationProbability = 0.5;

    ProtectedServer a(httpdBin(), cfg);
    a.beginRun();
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(a.stepRound());
    ByteWriter snap;
    a.saveCheckpoint(snap);
    while (a.stepRound()) {
    }
    ServerReport ra = a.finishRun();

    ProtectedServer b(httpdBin(), cfg);
    b.beginRun();
    ByteReader r(snap.data());
    b.loadCheckpoint(r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(b.roundNumber(), 6u);
    while (b.stepRound()) {
    }
    ServerReport rb = b.finishRun();

    EXPECT_EQ(rb.signature, ra.signature);
    EXPECT_EQ(rb.rounds, ra.rounds);
    EXPECT_EQ(rb.requestsServed, ra.requestsServed);
    EXPECT_EQ(rb.migrations, ra.migrations);
    EXPECT_EQ(rb.securityEvents, ra.securityEvents);
    EXPECT_EQ(rb.crashes, ra.crashes);
    EXPECT_EQ(rb.respawns, ra.respawns);
    EXPECT_EQ(rb.totalGuestInsts, ra.totalGuestInsts);
    EXPECT_EQ(rb.latency.p95Rounds, ra.latency.p95Rounds);
}

/** One worker-loss scenario of the lone server's serve loop. */
struct RetireCase
{
    const char *name;
    uint32_t respawnLimit;
    uint32_t retiredWorkers;
    uint64_t served;
    uint64_t abandoned;
    uint64_t signature; ///< ServerReport::signature, pinned
};

void
PrintTo(const RetireCase &c, std::ostream *os)
{
    *os << c.name;
}

class ServerRetire : public ::testing::TestWithParam<RetireCase>
{
};

// Worker loss on a lone server: malformed requests crash workers, a
// worker past its respawn limit retires, and its in-flight request
// goes back to the head of the intake for another worker. With enough
// survivors every request is still served; once every worker has
// retired the rest of the stream is abandoned, and the serving core
// refuses further rounds (a fleet keeps offering them to a dead
// shard). Either way each request is accounted exactly once, and the
// run is pinned.
TEST_P(ServerRetire, RetireRequeueAbandon)
{
    const RetireCase &c = GetParam();
    static const FatBinary bin = [] {
        WorkloadConfig wcfg;
        wcfg.scale = 2;
        return compileModule(buildWorkload("httpd", wcfg));
    }();
    ServerConfig cfg;
    cfg.workers = 8;
    cfg.requestCount = 200;
    cfg.mix.malformedFrac = 0.08;
    cfg.sched.respawnLimit = c.respawnLimit;

    ProtectedServer srv(bin, cfg);
    srv.beginRun();
    while (srv.stepRound()) {
    }
    if (srv.liveWorkers() == 0) {
        const uint64_t round = srv.roundNumber();
        const uint64_t sync = srv.roundSyncSignature();
        const uint64_t schedRounds = srv.scheduler().stats().rounds;
        srv.serveRound();
        EXPECT_EQ(srv.roundNumber(), round);
        EXPECT_EQ(srv.roundSyncSignature(), sync);
        EXPECT_EQ(srv.scheduler().stats().rounds, schedRounds);
    }
    ServerReport r = srv.finishRun();
    EXPECT_EQ(r.retiredWorkers, c.retiredWorkers);
    EXPECT_EQ(r.requestsServed, c.served);
    EXPECT_EQ(r.requestsAbandoned, c.abandoned);
    EXPECT_EQ(r.requestsServed + r.requestsAbandoned, cfg.requestCount);
    EXPECT_EQ(r.signature, c.signature);
}

INSTANTIATE_TEST_SUITE_P(
    WorkerLoss, ServerRetire,
    ::testing::Values(
        RetireCase{ "SurvivorsServeAll", 3, 4, 200, 0,
                    0xf5c30a2ae05f6556ull },
        RetireCase{ "AllRetiredAbandonRest", 2, 8, 138, 62,
                    0xdf4c81b7eccd0817ull }),
    [](const ::testing::TestParamInfo<RetireCase> &info) {
        return std::string(info.param.name);
    });
