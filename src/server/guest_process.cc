#include "guest_process.hh"

#include <algorithm>

#include "binary/loader.hh"
#include "isa/codec.hh"
#include "migration/safety.hh"
#include "support/hash.hh"
#include "support/logging.hh"

namespace hipstr
{

namespace
{

/** Scratch area for staged hijacks, inside the guest stack region. */
constexpr Addr kHijackSp = layout::kStackTop - 0x8000;

} // namespace

const char *
procStateName(ProcState s)
{
    switch (s) {
      case ProcState::Ready: return "Ready";
      case ProcState::Running: return "Running";
      case ProcState::Blocked: return "Blocked";
      case ProcState::Crashed: return "Crashed";
      case ProcState::Exited: return "Exited";
    }
    return "?";
}

GuestProcess::GuestProcess(const FatBinary &bin,
                           const GuestProcessConfig &cfg)
    : _bin(bin), _cfg(cfg)
{
    loadFatBinary(bin, _mem);
    _os.setOutputCap(cfg.outputCap);

    HipstrConfig hcfg = cfg.hipstr;
    // Independent, reproducible randomness per process: the PSR and
    // policy streams are SplitMix64 folds of (seed, pid). Respawns
    // advance the randomizer generation on top of this base seed.
    uint64_t s = cfg.seed + 0x9e3779b97f4a7c15ull * (cfg.pid + 1);
    hcfg.psr.seed = splitMix64(s);
    hcfg.policySeed = splitMix64(s);
    if (cfg.alternateStartIsa && (cfg.pid & 1))
        hcfg.startIsa = otherIsa(hcfg.startIsa);

    _runtime = std::make_unique<HipstrRuntime>(bin, _mem, _os, hcfg);
    _runtime->reset();
}

void
GuestProcess::beginService(uint64_t insts)
{
    hipstr_assert(_state == ProcState::Blocked);
    hipstr_assert(insts > 0);
    _serviceRemaining = insts;
    _state = ProcState::Ready;
}

void
GuestProcess::stageInjectedFault(const QuantumFault &f)
{
    ++_stats.faultsInjected[static_cast<size_t>(f.kind)];
    switch (f.kind) {
      case FaultKind::BitFlip: {
        // Single-event upset somewhere in the mutable image. The run
        // may crash (MemFault soon after), silently corrupt output,
        // or shrug it off — all three are realistic outcomes.
        constexpr Addr span = layout::kStackTop - layout::kDataBase;
        const Addr a =
            layout::kDataBase + static_cast<Addr>(f.payload % span);
        const uint8_t bit = (f.payload >> 32) & 7;
        _mem.rawWrite8(a, _mem.rawRead8(a) ^ (uint8_t(1) << bit));
        // The generation's output can no longer be checksum-verified.
        _tainted = true;
        _pendingKind = FaultKind::BitFlip;
        break;
      }
      case FaultKind::DecodeFault:
        _runtime->vm(isa()).armDecodeFault();
        _pendingKind = FaultKind::DecodeFault;
        break;
      case FaultKind::CacheFlush:
        _runtime->vm(isa()).flushTranslations();
        break;
      case FaultKind::TransformAbort:
        _runtime->abortNextTransform();
        break;
      case FaultKind::Wedge:
        _wedgeRemaining = _cfg.faultPlan->wedgeLength(f.payload);
        break;
      default:
        break;
    }
}

QuantumResult
GuestProcess::runQuantum(uint64_t maxInsts)
{
    hipstr_assert(_state == ProcState::Ready);
    _state = ProcState::Running;
    ++_stats.quanta;

    if (_cfg.faultPlan != nullptr && _wedgeRemaining == 0) {
        QuantumFault f = _cfg.faultPlan->quantumFault(
            _cfg.pid, _quantumSerial++);
        if (f.kind != FaultKind::None)
            stageInjectedFault(f);
    }

    if (_wedgeRemaining > 0) {
        // Wedged: the quantum burns its timeslice without retiring a
        // single guest instruction and without consuming service
        // budget — from the scheduler's view the worker is livelocked.
        --_wedgeRemaining;
        ++_stats.wedgedQuanta;
        ++_wedgeStreak;
        QuantumResult q;
        q.reason = VmStop::StepLimit;
        q.stopPc = _runtime->vm(isa()).state.pc;
        q.ran = 0;
        _lastMigrated = false;
        if (_cfg.watchdogQuanta != 0 &&
            _wedgeStreak >= _cfg.watchdogQuanta) {
            ++_stats.crashes;
            ++_stats.watchdogKills;
            _lastFault = FaultInfo{
                FaultKind::Watchdog, q.stopPc, isa(),
                static_cast<uint32_t>(
                    _runtime->vm(isa()).randomizer().generation())
            };
            _wedgeRemaining = 0;
            _wedgeStreak = 0;
            _state = ProcState::Crashed;
        } else {
            _state = ProcState::Ready;
        }
        return q;
    }
    _wedgeStreak = 0;

    uint64_t slice = std::min(maxInsts, _serviceRemaining);
    QuantumResult q = _runtime->runQuantum(slice);
    _serviceRemaining -= std::min<uint64_t>(q.ran, _serviceRemaining);
    _lastMigrated = q.migrated;

    switch (q.reason) {
      case VmStop::Exited:
      case VmStop::Halted:
        ++_stats.programsCompleted;
        if (_haveExpected && !_tainted &&
            _os.outputChecksum() != _expectedChecksum) {
            ++_stats.checksumMismatches;
        }
        if (_cfg.restartOnExit) {
            restartProgram();
            _state = _serviceRemaining > 0 ? ProcState::Ready
                                           : ProcState::Blocked;
        } else {
            _state = ProcState::Exited;
        }
        break;

      case VmStop::Fault:
      case VmStop::BadInst:
      case VmStop::SfiViolation:
        ++_stats.crashes;
        _lastFault = _runtime->summary().fault;
        // Attribute crashes that follow an injection to the injected
        // kind — a tripped decode fault is a DecodeFault, not the raw
        // BadInst the VM observed.
        if (_pendingKind != FaultKind::None)
            _lastFault.kind = _pendingKind;
        _state = ProcState::Crashed;
        break;

      case VmStop::MigrationRequested:
        // The runtime already switched VMs; the scheduler must requeue
        // us onto a core of the new isa().
        _state = _serviceRemaining > 0 ? ProcState::Ready
                                       : ProcState::Blocked;
        break;

      case VmStop::StepLimit:
        _state = _serviceRemaining > 0 ? ProcState::Ready
                                       : ProcState::Blocked;
        break;
    }
    return q;
}

void
GuestProcess::respawnImage()
{
    foldSummary();
    ++_stats.respawns;

    // Pristine address space: wipe everything mutable (data, heap,
    // stack) and reload the image. The VM cache regions are rebuilt
    // by reRandomize()'s flush.
    _mem.zeroRange(layout::kDataBase,
                   layout::kStackTop - layout::kDataBase);
    loadFatBinary(_bin, _mem);
    _os.reset();
    for (IsaKind isa : kAllIsas) {
        _runtime->vm(isa).disarmDecodeFault();
        _runtime->vm(isa).reRandomize();
    }
    _runtime->reset();
    _tainted = false;
    _pendingKind = FaultKind::None;
    _wedgeRemaining = 0;
    _wedgeStreak = 0;
    _state = _serviceRemaining > 0 ? ProcState::Ready
                                   : ProcState::Blocked;
}

void
GuestProcess::respawn()
{
    hipstr_assert(_state == ProcState::Crashed);
    respawnImage();
}

bool
GuestProcess::relocateToIsa(IsaKind target, uint64_t search_budget)
{
    if (isa() == target)
        return true;
    MigrationOutcome mo = _runtime->forceMigration(search_budget);
    if (mo.ok && isa() == target) {
        ++_stats.emergencyRelocations;
        return true;
    }
    // No migration-safe point reachable (or the program stopped mid-
    // search): hard evacuation. Respawn directly onto the surviving
    // ISA — program state is lost, the in-flight request's budget
    // carries over to the fresh worker.
    setStartIsa(target);
    respawnImage();
    return false;
}

void
GuestProcess::restartProgram()
{
    foldSummary();
    _os.reset();
    _runtime->reset();
    _tainted = false;
    _pendingKind = FaultKind::None;
}

void
GuestProcess::foldSummary()
{
    const HipstrRunSummary &s = _runtime->summary();
    _stats.guestInsts += s.totalGuestInsts;
    for (size_t i = 0; i < kNumIsas; ++i)
        _stats.guestInstsPerIsa[i] += s.guestInstsPerIsa[i];
    _stats.migrations += s.migrations;
    _stats.migrationsDenied += s.migrationsDenied;
    _stats.transformAborts += s.transformAborts;
    _stats.migrationsSuppressed += s.migrationsSuppressed;
    // foldSummary runs immediately before the GuestOs reset that
    // starts the next program generation, so each generation's bytes
    // are accrued exactly once.
    _stats.outputBytes += _os.totalOutputBytes();
}

GuestProcessStats
GuestProcess::stats() const
{
    GuestProcessStats out = _stats;
    const HipstrRunSummary &s = _runtime->summary();
    out.guestInsts += s.totalGuestInsts;
    for (size_t i = 0; i < kNumIsas; ++i)
        out.guestInstsPerIsa[i] += s.guestInstsPerIsa[i];
    out.migrations += s.migrations;
    out.migrationsDenied += s.migrationsDenied;
    out.transformAborts += s.transformAborts;
    out.migrationsSuppressed += s.migrationsSuppressed;
    out.outputBytes += _os.totalOutputBytes();
    out.phases = _runtime->phaseBreakdown();
    return out;
}

uint64_t
GuestProcess::securityEvents() const
{
    uint64_t total = 0;
    for (IsaKind isa : kAllIsas) {
        const HipstrRuntime &rt = *_runtime;
        total += rt.vm(isa).stats.securityEvents;
    }
    return total;
}

uint64_t
GuestProcess::statsSignature() const
{
    GuestProcessStats s = stats();
    uint64_t h = kFnvBasis;
    fold64(h, _cfg.pid);
    fold64(h, s.guestInsts);
    fold64(h, s.guestInstsPerIsa[0]);
    fold64(h, s.guestInstsPerIsa[1]);
    fold64(h, s.quanta);
    fold64(h, s.migrations);
    fold64(h, s.migrationsDenied);
    fold64(h, s.crashes);
    fold64(h, s.respawns);
    fold64(h, s.programsCompleted);
    fold64(h, s.checksumMismatches);
    fold64(h, securityEvents());
    fold64(h, _os.outputChecksum());
    fold64(h, s.outputBytes);
    return h;
}

Addr
GuestProcess::findRetAddr(const FuncInfo &fi) const
{
    Addr pc = fi.entry;
    const Addr end = fi.entry + fi.codeSize;
    MachInst mi;
    while (pc < end && decodeInst(isa(), _mem, pc, mi)) {
        if (mi.op == Op::Ret)
            return pc;
        pc += mi.size;
    }
    return 0;
}

bool
GuestProcess::stageHijack(Addr target, bool build_frame,
                          uint32_t frame_func)
{
    const IsaKind cur = isa();
    PsrVm &vm = _runtime->vm(cur);

    // A one-instruction "ret gadget": dispatching it pops our planted
    // word off the stack, exactly the control-transfer primitive a
    // real stack smash yields.
    const FuncInfo *gadget_func = nullptr;
    Addr ret_at = 0;
    for (const FuncInfo &fi : _bin.funcsFor(cur)) {
        ret_at = findRetAddr(fi);
        if (ret_at != 0) {
            gadget_func = &fi;
            break;
        }
    }
    if (gadget_func == nullptr)
        return false;

    _mem.rawWrite32(kHijackSp, target);
    if (build_frame) {
        // The word above the planted return is where execution lands:
        // give the migration engine a coherent single frame for the
        // target's function — zeroed locals and the outermost-frame
        // sentinel in the (randomized) return-address slot — so the
        // cross-ISA stack transformation can genuinely run.
        const RelocationMap &map =
            vm.randomizer().mapFor(frame_func);
        const FuncInfo &fi = _bin.funcInfo(cur, frame_func);
        const Addr frame_base = kHijackSp + 4;
        _mem.zeroRange(frame_base, map.newFrameSize + 64);
        _mem.rawWrite32(frame_base + map.mapSlot(fi.raSlot),
                        _bin.startRetAddr[static_cast<size_t>(cur)]);
    }
    vm.state.setSp(kHijackSp);
    vm.state.pc = ret_at;
    _tainted = true;
    ++_stats.probesStaged;
    return true;
}

bool
GuestProcess::injectAttackProbe(uint64_t nonce)
{
    hipstr_assert(_state == ProcState::Ready);
    const IsaKind cur = isa();
    PsrVm &vm = _runtime->vm(cur);

    // Candidate landing sites: cold (not yet translated — the ret
    // into them misses the code cache and raises the security event),
    // migration-safe block starts that are not function entries and
    // not post-call resume points (segment 0 blocks are never Return
    // Address Table keys, so the RAT cannot swallow the event).
    struct Candidate
    {
        uint32_t funcId;
        Addr addr;
    };
    std::vector<Candidate> candidates;
    for (const FuncInfo &fi : _bin.funcsFor(cur)) {
        for (const MachBlockInfo &b : fi.blocks) {
            if (b.segment != 0 || b.start == fi.entry)
                continue;
            // wasTranslated (not a raw cache probe): after a
            // checkpoint restore the cache is cold but vetted
            // addresses will translate silently, so they are not
            // usable landing sites — exactly as in the unbroken run.
            if (vm.wasTranslated(b.start))
                continue;
            if (!isMigrationPoint(_bin, cur, b.start,
                                  MigrationSafety::OnDemandSafe))
                continue;
            candidates.push_back(Candidate{ fi.funcId, b.start });
        }
    }
    if (candidates.empty())
        return false;

    const Candidate &c =
        candidates[static_cast<size_t>(nonce % candidates.size())];
    return stageHijack(c.addr, /*build_frame=*/true, c.funcId);
}

template <class A>
void
GuestProcess::transfer(A &a)
{
    hipstr_assert(_state != ProcState::Running);
    hipstr_assert(!_mem.journaling());

    a.expect(_cfg.pid, "checkpoint pid mismatch");
    // Validated before it lands: every later load asserts on Running.
    ProcState state = _state;
    a(state);
    a.check(state != ProcState::Running,
            "checkpoint of a running process");
    if constexpr (A::kLoading)
        _state = state;
    a(_serviceRemaining, _lastMigrated, _tainted, _expectedChecksum,
      _haveExpected, _stats, _quantumSerial, _wedgeRemaining,
      _wedgeStreak, _lastFault, _pendingKind);
    a.object(_os);
    a.object(*_runtime);

    // Mutable guest image [kDataBase, kStackTop): data, heap, stack.
    // The code sections below kDataBase are reproduced by the loader
    // at construction; the cache regions above kStackTop rebuild
    // cold. Zero pages are skipped — a worker touches a small
    // fraction of its 8 MiB image — and a sentinel ends the stream.
    constexpr uint32_t kPage = 4096;
    constexpr Addr lo = layout::kDataBase;
    constexpr Addr hi = layout::kStackTop;
    constexpr Addr kEnd = 0xffffffffu;
    if constexpr (!A::kLoading) {
        const uint8_t *bytes = _mem.data();
        for (Addr page = lo; page < hi; page += kPage) {
            const uint8_t *p = bytes + page;
            if (std::all_of(p, p + kPage, [](uint8_t b) { return b == 0; }))
                continue;
            a(page);
            a.bytes(p, kPage);
        }
        a(kEnd);
    } else {
        _mem.zeroRange(lo, hi - lo);
        for (;;) {
            Addr page = kEnd;
            a(page);
            if (page == kEnd)
                break;
            a.check(page >= lo && page < hi && page % kPage == 0,
                    "checkpoint page out of range");
            std::array<uint8_t, kPage> buf;
            a.bytes(buf.data(), kPage);
            _mem.rawWriteBytes(page, buf.data(), kPage);
        }
    }
}

HIPSTR_CHECKPOINT_VIA_TRANSFER(GuestProcess)

bool
GuestProcess::injectCorruption(uint64_t nonce)
{
    hipstr_assert(_state == ProcState::Ready);
    // Return into the VM's own code cache: the SFI check terminates
    // the process (Section 5.1). Vary the exact cache offset by nonce
    // so repeated probes are distinguishable in traces.
    Addr target = layout::cacheBase(isa()) + 64 +
        static_cast<Addr>((nonce % 16) * 4);
    return stageHijack(target, /*build_frame=*/false, 0);
}

} // namespace hipstr
