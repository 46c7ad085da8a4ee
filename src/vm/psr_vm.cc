#include "psr_vm.hh"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "binary/loader.hh"
#include "isa/interp.hh"
#include "isa/mem_traffic.hh"
#include "sim/core_config.hh"
#include "sim/timing.hh"
#include "support/env.hh"
#include "support/logging.hh"

namespace hipstr
{

namespace
{

/** HIPSTR_TRACE=0/off disables superblock traces; default on. */
bool
traceEnvEnabled()
{
    return envFlag("HIPSTR_TRACE", true);
}

bool
resolveTraceMode(const PsrConfig &cfg)
{
    switch (cfg.traceMode) {
      case PsrConfig::TraceMode::On: return true;
      case PsrConfig::TraceMode::Off: return false;
      case PsrConfig::TraceMode::FromEnv: break;
    }
    return traceEnvEnabled();
}

/** HIPSTR_JIT=0/off disables the trace JIT; default on. */
bool
jitEnvEnabled()
{
    return envFlag("HIPSTR_JIT", true);
}

/**
 * Resolve the trace-JIT switch: the config/env knob ANDed with host
 * support. When the knob asks for the JIT but the host or build
 * cannot run it (non-x86-64, sanitizers), log the reason once so a
 * silent 0 in the jit.* counters is explicable.
 */
bool
resolveJitMode(const PsrConfig &cfg)
{
    bool wanted;
    switch (cfg.jitMode) {
      case PsrConfig::JitMode::On: wanted = true; break;
      case PsrConfig::JitMode::Off: wanted = false; break;
      default: wanted = jitEnvEnabled(); break;
    }
    if (!wanted)
        return false;
    const char *reason = nullptr;
    if (!jit::TraceJit::hostSupported(&reason)) {
        static bool warned = false;
        if (!warned) {
            warned = true;
            hipstr_inform("trace JIT auto-disabled: %s", reason);
        }
        return false;
    }
    return true;
}

} // namespace

const char *
vmStopName(VmStop s)
{
    switch (s) {
      case VmStop::Exited: return "exited";
      case VmStop::Halted: return "halted";
      case VmStop::Fault: return "fault";
      case VmStop::BadInst: return "bad-instruction";
      case VmStop::SfiViolation: return "sfi-violation";
      case VmStop::StepLimit: return "step-limit";
      case VmStop::MigrationRequested: return "migration-requested";
    }
    return "?";
}

PsrVm::PsrVm(const FatBinary &bin, IsaKind isa, Memory &mem,
             GuestOs &os, const PsrConfig &cfg)
    : state(isa), _bin(bin), _isa(isa), _mem(mem), _os(os),
      _cfg(cfg), _randomizer(bin, isa, cfg),
      _translator(bin, isa, _randomizer, mem),
      _cache(mem, isa, cfg.codeCacheBytes, cfg.blockPlacement()),
      _rat(cfg.ratEntries)
{
    // Modeled translation cost per guest instruction on this core:
    // cycles / (GHz * 1000) = microseconds.
    _translateUsPerInst = TimingParams{}.translateCyclesPerGuestInst /
        (coreConfig(isa).freqGhz * 1000.0);
    // Trace formation needs chained exits, so it rides the same O1
    // switch as chaining itself.
    _traceOn = resolveTraceMode(cfg) && cfg.superblocks();
    // The JIT compiles formed traces, so it rides the trace switch.
    _jitOn = _traceOn && resolveJitMode(cfg);
}

void
PsrVm::publishTraceTelemetry(telemetry::MetricRegistry &reg) const
{
    reg.counter("trace.formed").set(_traces.stats.formed);
    reg.counter("trace.follows").set(stats.traceFollows);
    reg.counter("trace.invalidated").set(_traces.stats.invalidated);
    reg.counter("trace.sideExits").set(_traces.stats.sideExits);
    reg.counter("trace.execFallbacks").set(_traces.stats.execFallbacks);
}

void
PsrVm::publishJitTelemetry(telemetry::MetricRegistry &reg) const
{
    reg.counter("jit.compiledTraces").set(_jit.stats.compiledTraces);
    reg.counter("jit.codeBytes").set(_jit.stats.codeBytes);
    reg.counter("jit.executions").set(_jit.stats.executions);
    reg.counter("jit.sideExits").set(_jit.stats.sideExits);
    reg.counter("jit.bailouts").set(_jit.stats.bailouts);
    reg.counter("jit.invalidated").set(_jit.stats.invalidated);
    reg.counter("jit.execFallbacks").set(_jit.stats.execFallbacks);
}

double
PsrVm::traceTs() const
{
    return double(stats.guestInsts) /
        telemetry::cost::kGuestInstsPerMicro;
}

void
PsrVm::reset()
{
    initMachineState(state, _bin, _isa);
}

void
PsrVm::reRandomize()
{
    _randomizer.reRandomize();
    _cache.flush();
    _rat.flush();
    invalidateTraces();
    _vetted.clear();
    ++stats.cacheFlushes;
    if (trace && trace->enabled(telemetry::TraceCategory::Vm)) {
        trace->record(
            telemetry::traceInstant(telemetry::TraceCategory::Vm,
                                    "vm.rerandomize", traceTs(), 0,
                                    static_cast<uint32_t>(_isa))
                .arg("generation", _randomizer.generation()));
    }
}

void
PsrVm::flushTranslations()
{
    _cache.flush();
    _rat.flush();
    invalidateTraces();
    _vetted.clear();
    ++stats.cacheFlushes;
    if (trace && trace->enabled(telemetry::TraceCategory::Vm)) {
        trace->record(
            telemetry::traceInstant(telemetry::TraceCategory::Vm,
                                    "vm.fault_flush", traceTs(), 0,
                                    static_cast<uint32_t>(_isa)));
    }
}

template <class A>
void
PsrVm::transfer(A &a)
{
    if constexpr (A::kLoading) {
        // Drop every derived structure first: translations, traces
        // and memoized pointers rebuild cold, exactly as after a
        // flush — but without counter side effects; the counters come
        // from the snapshot below.
        _cache.flush();
        _rat.flush();
        invalidateTraces();
    }
    auto &[isa, regs, flags, pc] = state;
    notCheckpointed(isa); // fixed at construction: always _isa
    a.expect(_isa, "VM checkpoint ISA mismatch");
    a(regs, flags, pc, stats, translatePhase, _decodeFaultArmed);
    a.object(_randomizer);
    a.object(_rat);

    // Vetted addresses: everything currently cache-resident, plus
    // any not-yet-drained vetted addresses if this VM is itself a
    // restored one. Sorted for a byte-deterministic image.
    std::vector<Addr> vetted;
    if constexpr (!A::kLoading) {
        vetted.assign(_vetted.begin(), _vetted.end());
        for (const auto &blk : _cache.blocks())
            vetted.push_back(blk->srcStart);
        std::sort(vetted.begin(), vetted.end());
        vetted.erase(std::unique(vetted.begin(), vetted.end()),
                     vetted.end());
    }
    a.seq32(vetted);
    if constexpr (A::kLoading) {
        _vetted.clear();
        _vetted.reserve(vetted.size());
        _vetted.insert(vetted.begin(), vetted.end());
    }
}

HIPSTR_CHECKPOINT_VIA_TRANSFER(PsrVm)

TranslatedBlock *
PsrVm::fetchBlock(Addr src, VmRunResult &stop)
{
    TranslatedBlock *blk = _cache.lookup(src);
    if (blk != nullptr)
        return blk;

    TranslateError err;
    auto unit = _translator.translate(src, err);
    if (!unit) {
        stop.reason = VmStop::BadInst;
        stop.stopPc = src;
        return nullptr;
    }
    stats.translations++;
    stats.translatedGuestInsts += unit->guestInstCount;
    translatePhase.add(unit->guestInstCount,
                       double(unit->guestInstCount) *
                           _translateUsPerInst);
    if (trace && trace->enabled(telemetry::TraceCategory::Vm)) {
        trace->record(
            telemetry::traceInstant(telemetry::TraceCategory::Vm,
                                    "vm.translate", traceTs(), 0,
                                    static_cast<uint32_t>(_isa))
                .arg("guest_pc", src)
                .arg("guest_insts", unit->guestInstCount));
    }

    uint64_t flushes_before = _cache.flushes();
    TranslatedBlock *placed = _cache.insert(std::move(unit));
    if (placed == nullptr) {
        stop.reason = VmStop::BadInst;
        stop.stopPc = src;
        return nullptr;
    }
    if (_cache.flushes() != flushes_before) {
        // A capacity flush invalidates every RAT entry, chain, and
        // trace. Retired traces are only *freed* at safe points: this
        // can run mid-trace (call-linkage translation), and the
        // executing trace checks the flush generation before touching
        // another trace-held pointer.
        _rat.flush();
        invalidateTraces();
        // The uninterrupted run's cache is empty after this flush, so
        // restore-vetting (which models "would have hit the cache")
        // must not outlive it either.
        _vetted.clear();
        ++stats.cacheFlushes;
    }
    return placed;
}

void
PsrVm::traceData(const MachInst &mi)
{
    forEachMemAccess(mi, state, [&](Addr addr, bool write) {
        if (write)
            ++stats.memWrites;
        else
            ++stats.memReads;
        if (dataTraceHook)
            dataTraceHook(addr, write);
    });
}

VmRunResult
PsrVm::run(uint64_t max_guest_insts)
{
    if (_decodeFaultArmed) {
        // Injected decode fault (src/fault): the corrupted entry trips
        // the decoder before a single instruction retires.
        _decodeFaultArmed = false;
        VmRunResult res;
        res.reason = VmStop::BadInst;
        res.stopPc = state.pc;
        if (trace && trace->enabled(telemetry::TraceCategory::Vm)) {
            trace->record(telemetry::traceInstant(
                telemetry::TraceCategory::Vm, "vm.injected_decode_fault",
                traceTs(), 0, static_cast<uint32_t>(_isa)));
        }
        return res;
    }
    // Safe point: no trace is executing, so traces retired by an
    // earlier mid-trace flush can be freed.
    _traces.collectRetired();

    const bool spans =
        trace && trace->enabled(telemetry::TraceCategory::Vm);
    const double ts0 = spans ? traceTs() : 0;
    const uint64_t g0 = stats.guestInsts;

    VmRunResult res = (fetchTraceHook || dataTraceHook)
        ? runLoop<true>(max_guest_insts)
        : runLoop<false>(max_guest_insts);

    if (spans) {
        trace->record(
            telemetry::traceSpan(telemetry::TraceCategory::Vm,
                                 "vm.run", ts0, traceTs() - ts0, 0,
                                 static_cast<uint32_t>(_isa))
                .arg("ran", stats.guestInsts - g0)
                .arg("reason", static_cast<uint64_t>(res.reason)));
    }
    return res;
}

// Dispatch to a (possibly untranslated) guest target after an
// exit; returns nullptr when the run must stop.
TranslatedBlock *
PsrVm::dispatchTo(Addr target, VmRunResult &stop)
{
    state.pc = target;
    ++stats.dispatches; // every dispatcher entry costs a lookup
    TranslatedBlock *next = _cache.lookup(target);
    if (next != nullptr)
        return next;
    next = fetchBlock(target, stop);
    return next;
}

// Post-SFI tail of an indirect transfer: the code-cache-miss
// security policy of Section 3.5. Callers have already counted
// the transfer and run the SFI check.
TranslatedBlock *
PsrVm::indirectResolve(Addr target, VmRunResult &stop)
{
    state.pc = target;
    ++stats.dispatches;
    TranslatedBlock *next = _cache.lookup(target);
    if (next != nullptr)
        return next;
    if (!_vetted.empty() && consumeVetted(target))
        return fetchBlock(target, stop);
    // Indirect control transfer missing the code cache: the
    // PSR virtual machine suspects a security breach.
    ++stats.codeCacheMisses;
    ++stats.securityEvents;
    if (trace && trace->enabled(telemetry::TraceCategory::Vm)) {
        trace->record(telemetry::traceInstant(
                          telemetry::TraceCategory::Vm,
                          "vm.security_event", traceTs(), 0,
                          static_cast<uint32_t>(_isa))
                          .arg("target", target));
    }
    if (securityEventHook && securityEventHook(target)) {
        ++stats.migrationsRequested;
        stop.reason = VmStop::MigrationRequested;
        stop.stopPc = target;
        stop.migrationTarget = target;
        return nullptr;
    }
    next = fetchBlock(target, stop);
    return next;
}

// Handle an indirect transfer to @p target: SFI check, then the
// code-cache-miss security policy.
TranslatedBlock *
PsrVm::indirectDispatch(Addr target, VmRunResult &stop)
{
    ++stats.indirectTransfers;
    if (_cache.contains(target)) {
        stop.reason = VmStop::SfiViolation;
        stop.stopPc = target;
        return nullptr;
    }
    return indirectResolve(target, stop);
}

// Push/record a source return address for a call exit and make
// sure the RAT can translate it on return.
bool
PsrVm::emitCallLinkage(Addr source_ra, VmRunResult &stop)
{
    if (_isa == IsaKind::Cisc) {
        uint32_t sp = state.sp() - kWordSize;
        if (!_mem.tryWrite32(sp, source_ra)) {
            stop.reason = VmStop::Fault;
            stop.stopPc = state.pc;
            return false;
        }
        state.setSp(sp);
        ++stats.memWrites;
    } else {
        state.setReg(isaDescriptor(_isa).lrReg, source_ra);
    }
    // Eagerly translate the return point (the call macro-op
    // installs the RAT mapping, Section 5.1) and memoize the
    // resolved block so the matching return needs no hash lookup.
    VmRunResult scratch_stop;
    TranslatedBlock *ret_block = fetchBlock(source_ra, scratch_stop);
    if (ret_block != nullptr)
        _rat.insert(source_ra, source_ra, ret_block);
    return true;
}

template <bool Traced>
VmRunResult
PsrVm::runLoop(uint64_t max_guest_insts)
{
    VmRunResult stop;
    const uint64_t guest_budget = stats.guestInsts + max_guest_insts;

    TranslatedBlock *blk = fetchBlock(state.pc, stop);
    if (blk == nullptr)
        return stop;
    ++stats.dispatches;

    auto dispatch = [&](Addr target) -> TranslatedBlock * {
        return dispatchTo(target, stop);
    };
    auto indirect_dispatch = [&](Addr target) -> TranslatedBlock * {
        return indirectDispatch(target, stop);
    };
    auto emit_call_linkage = [&](Addr source_ra) -> bool {
        return emitCallLinkage(source_ra, stop);
    };
    auto indirect_resolve = [&](Addr target) -> TranslatedBlock * {
        return indirectResolve(target, stop);
    };

    // Block-loop entry state for trace side exits: resume_i is the
    // instruction index the next block iteration starts at (credited
    // stays 0 — traces never fold mid-segment), and from_resume
    // suppresses trace re-entry for that one iteration so the resumed
    // instruction is re-executed by the baseline machinery.
    size_t resume_i = 0;
    [[maybe_unused]] bool from_resume = false;

    while (true) {
        if constexpr (!Traced) {
            // Superblock traces live only on the untraced loop: the
            // fetch/data-hooked loop models per-instruction cache
            // behaviour and must keep the baseline dispatch shape.
            const bool entered_from_resume = from_resume;
            from_resume = false;
            if (_traceOn && !entered_from_resume) {
                if (SuperTrace *t = blk->strace; t != nullptr) {
                    // Compiled execution first; the threaded
                    // interpreter is the per-entry fallback when a
                    // gate is live (control-trace hook, journaling)
                    // or the trace cannot be compiled. Both paths
                    // produce identical TraceExits and identical
                    // deterministic counters.
                    TraceExit tx;
                    const bool jitted = _jitOn && !controlTraceHook &&
                        !_mem.journaling() &&
                        _jit.run(*this, t, guest_budget, stop, tx);
                    if (!jitted) {
                        if (_jitOn)
                            ++_jit.stats.bailouts;
                        tx = runTrace(t, guest_budget, stop);
                    }
                    if (tx.kind == TraceExitKind::Stop)
                        return stop;
                    if (tx.kind == TraceExitKind::DispatchTo) {
                        // Mid-trace capacity flush: re-enter through
                        // the ordinary counting dispatcher, exactly
                        // as the baseline's flush-dirtied chain does.
                        blk = dispatch(tx.target);
                        if (blk == nullptr)
                            return stop;
                        if (stats.guestInsts >= guest_budget) {
                            stop.reason = VmStop::StepLimit;
                            stop.stopPc = state.pc;
                            return stop;
                        }
                        continue;
                    }
                    blk = tx.blk;
                    resume_i = tx.instIdx;
                    from_resume = true;
                } else if (!blk->traceDead &&
                           ++blk->hotCount >= _cfg.traceHotThreshold) {
                    _traces.collectRetired();
                    if (_traces.tryForm(blk, _cfg,
                                        isaDescriptor(_isa).spReg,
                                        _cfg.isomeronMode,
                                        _cache.flushes()) == nullptr) {
                        if (++blk->traceFails >= 4)
                            blk->traceDead = true;
                        else
                            blk->hotCount = 0;
                    }
                    // A formed trace starts on the *next* entry; this
                    // iteration still runs the baseline block loop.
                }
            }
        }
        // Execute the block's translated instructions. The loop is a
        // single switch on the translate-time ExecClass; guest-inst
        // and data-traffic counters are folded in from the per-inst
        // running totals only at loop exits (credit_through), so the
        // straight-line path does no per-instruction accounting.
        const TInst *const insts = blk->insts.data();
        const size_t n = blk->insts.size();
        const Addr block_pc = state.pc; // VM owns the pc
        size_t i = resume_i;
        resume_i = 0;
        size_t credited = 0; ///< insts already folded into stats
        int taken_exit = -1;
        Addr ret_target = 0;
        bool is_ret = false;
        bool redirected = false;

        // Fold insts [credited, idx] into stats (cums are inclusive).
        // Called before anything that can observe the counters: exits,
        // syscalls, faults, and trace events (traceTs reads them).
        auto credit_through = [&](size_t idx) {
            const TInst &t = insts[idx];
            uint32_t g0 = 0, r0 = 0, w0 = 0;
            if (credited > 0) {
                const TInst &p = insts[credited - 1];
                g0 = p.guestCum;
                r0 = p.memReadsCum;
                w0 = p.memWritesCum;
            }
            stats.guestInsts += t.guestCum - g0;
            stats.hostInsts += (idx + 1) - credited;
            if constexpr (!Traced) {
                // Translate-time counts: no operand scanning, no
                // address formation on the untraced fast path. The
                // traced loop counts per access in traceData().
                stats.memReads += t.memReadsCum - r0;
                stats.memWrites += t.memWritesCum - w0;
            }
            credited = idx + 1;
        };

        while (i < n) {
            const TInst &ti = insts[i];
            if constexpr (Traced) {
                if (fetchTraceHook)
                    fetchTraceHook(blk->cacheAddr + ti.byteOff);
            }

            switch (ti.klass) {
              case ExecClass::Plain:
              case ExecClass::GuestStartPlain: {
                if constexpr (Traced)
                    traceData(ti.mi);
                ExecStatus st =
                    executeInstInline(ti.mi, state, _mem, &_os);
                state.pc = block_pc;
                if (st != ExecStatus::Continue) [[unlikely]] {
                    // The faulting instruction is still accounted,
                    // like the increment-at-top loop did.
                    credit_through(i);
                    if (st == ExecStatus::Faulted) {
                        stop.reason = VmStop::Fault;
                        stop.stopPc = blk->srcStart;
                        return stop;
                    }
                    if (st == ExecStatus::Halted) {
                        stop.reason = VmStop::Halted;
                        stop.stopPc = blk->srcStart;
                        return stop;
                    }
                }
                ++i;
                continue;
              }

              case ExecClass::Jcc:
                if (!condHolds(ti.mi.cond, state.flags)) {
                    ++i;
                    continue;
                }
                credit_through(i);
                taken_exit = ti.exitIdx;
                break;

              case ExecClass::VmExit:
                credit_through(i);
                taken_exit = ti.exitIdx >= 0
                    ? ti.exitIdx
                    : static_cast<int>(ti.mi.src1.disp);
                break;

              case ExecClass::Ret: {
                // Pop the source return address; translate through
                // the RAT below.
                credit_through(i);
                uint32_t sp = state.sp();
                if (!_mem.tryRead32(sp, ret_target)) {
                    stop.reason = VmStop::Fault;
                    stop.stopPc = blk->srcStart;
                    return stop;
                }
                ++stats.memReads;
                if constexpr (Traced) {
                    if (dataTraceHook)
                        dataTraceHook(sp, false);
                }
                state.setSp(sp + kWordSize);
                is_ret = true;
                break;
              }

              case ExecClass::Syscall: {
                credit_through(i);
                ++stats.syscalls;
                bool keep;
                try {
                    keep = _os.handleSyscall(state, _mem);
                } catch (const Memory::Fault &) {
                    stop.reason = VmStop::Fault;
                    stop.stopPc = blk->srcStart;
                    return stop;
                }
                if (!keep) {
                    stop.reason = VmStop::Exited;
                    stop.stopPc = blk->srcStart;
                    return stop;
                }
                if (_os.takeRedirect()) {
                    // Non-local transfer (longjmp): the OS rewrote
                    // pc to a source address. Dispatch it exactly
                    // like any other indirect control transfer —
                    // including the SFI check and the security
                    // policy (the paper forces migration on a
                    // longjmp whose setjmp ran on the other ISA).
                    if (controlTraceHook)
                        controlTraceHook(state.pc, 'J');
                    blk = indirect_dispatch(state.pc);
                    if (blk == nullptr)
                        return stop;
                    redirected = true;
                    break;
                }
                ++i;
                continue;
              }
            }
            break; // an exit class left the switch: block is done
        }

        if (redirected) {
            if (stats.guestInsts >= guest_budget) {
                stop.reason = VmStop::StepLimit;
                stop.stopPc = state.pc;
                return stop;
            }
            continue;
        }

        // ---- Return handling: RAT translation of the source RA. ----
        if (is_ret) {
            if (controlTraceHook)
                controlTraceHook(ret_target, 'R');
            if (_cfg.isomeronMode)
                ++stats.diversificationFlips;
            ++stats.indirectTransfers;
            if (_cache.contains(ret_target)) {
                stop.reason = VmStop::SfiViolation;
                stop.stopPc = ret_target;
                return stop;
            }
            Addr translated;
            TranslatedBlock *memo = nullptr;
            if (_rat.lookup(ret_target, translated, memo)) {
                ++stats.ratHits;
                state.pc = ret_target;
                if (memo != nullptr) {
                    // Memoized translation: one RAT probe, zero hash
                    // lookups. Valid because every code-cache flush
                    // also flushes the RAT.
                    blk = memo;
                } else {
                    blk = _cache.lookup(ret_target);
                    if (blk == nullptr) {
                        // Stale RAT entry (should not happen: flushes
                        // clear the RAT) — treat as a miss.
                        blk = fetchBlock(ret_target, stop);
                        if (blk == nullptr)
                            return stop;
                    }
                }
            } else {
                ++stats.ratMisses;
                // Trap into the translator.
                state.pc = ret_target;
                TranslatedBlock *next = _cache.lookup(ret_target);
                if (next == nullptr && !_vetted.empty() &&
                    consumeVetted(ret_target)) {
                    next = fetchBlock(ret_target, stop);
                    if (next == nullptr)
                        return stop;
                }
                if (next == nullptr) {
                    // Code cache miss on an indirect transfer.
                    ++stats.codeCacheMisses;
                    ++stats.securityEvents;
                    if (securityEventHook &&
                        securityEventHook(ret_target)) {
                        ++stats.migrationsRequested;
                        stop.reason = VmStop::MigrationRequested;
                        stop.stopPc = ret_target;
                        stop.migrationTarget = ret_target;
                        return stop;
                    }
                    next = fetchBlock(ret_target, stop);
                    if (next == nullptr)
                        return stop;
                }
                _rat.insert(ret_target, ret_target, next);
                ++stats.dispatches;
                blk = next;
            }
            if (stats.guestInsts >= guest_budget) {
                stop.reason = VmStop::StepLimit;
                stop.stopPc = state.pc;
                return stop;
            }
            continue;
        }

        hipstr_assert(taken_exit >= 0);
        const size_t exit_idx = static_cast<size_t>(taken_exit);
        const Addr owner_src = blk->srcStart;
        // Translating a target below can flush the code cache and
        // destroy the exit's owning block, so everything needed from
        // the exit is copied into locals up front and every pointer
        // taken from it is discarded when the flush generation moves.
        const uint64_t flushes_at_exit = _cache.flushes();
        BlockExit &exit_slot = blk->exits[exit_idx];
        if constexpr (!Traced) {
            // Edge profile for the superblock trace builder. The
            // traced loop never forms traces, so it skips the count.
            ++exit_slot.hitCount;
        }
        const BlockExit &exit = exit_slot;

        // Re-resolve the owner before writing a chain pointer: the
        // owner may have been destroyed by a capacity flush.
        auto patch_chain = [&](TranslatedBlock *next) {
            if (!_cfg.superblocks() || next == nullptr)
                return;
            TranslatedBlock *owner = _cache.lookup(owner_src);
            if (owner != nullptr && exit_idx < owner->exits.size())
                owner->exits[exit_idx].chained = next;
        };

        // Install an IBTC entry on the owner's live exit (re-resolved
        // like patch_chain): @p target already passed the full
        // indirect-dispatch security policy this transfer.
        auto update_ibtc = [&](Addr target, TranslatedBlock *next) {
            TranslatedBlock *owner = _cache.lookup(owner_src);
            if (owner != nullptr && exit_idx < owner->exits.size())
                owner->exits[exit_idx].ibtc.insert(target, next);
        };

        switch (exit.kind) {
          case BlockExit::Kind::Halt:
            stop.reason = VmStop::Halted;
            stop.stopPc = owner_src;
            return stop;

          case BlockExit::Kind::Branch: {
            const Addr target = exit.target;
            TranslatedBlock *chained = exit.chained;
            if (controlTraceHook)
                controlTraceHook(target, 'B');
            if (chained != nullptr) {
                ++stats.chainFollows;
                state.pc = target;
                blk = chained;
            } else {
                blk = dispatch(target);
                if (blk == nullptr)
                    return stop;
                patch_chain(blk);
            }
            break;
          }

          case BlockExit::Kind::Call: {
            const Addr target = exit.target;
            const Addr return_to = exit.returnTo;
            TranslatedBlock *chained = exit.chained;
            if (controlTraceHook)
                controlTraceHook(target, 'C');
            if (!emit_call_linkage(return_to))
                return stop;
            if (_cache.flushes() != flushes_at_exit) {
                // The eager return-point translation flushed the
                // cache: the chain pointer read above dangles.
                chained = nullptr;
            }
            if (_cfg.isomeronMode) {
                // The diversifier flips a coin and dispatches to the
                // chosen program variant — chaining is impossible.
                ++stats.diversificationFlips;
                blk = dispatch(target);
                if (blk == nullptr)
                    return stop;
                break;
            }
            if (chained != nullptr) {
                ++stats.chainFollows;
                state.pc = target;
                blk = chained;
            } else {
                blk = dispatch(target);
                if (blk == nullptr)
                    return stop;
                patch_chain(blk);
            }
            break;
          }

          case BlockExit::Kind::IndirectCall:
          case BlockExit::Kind::IndirectJump: {
            const bool is_call =
                exit.kind == BlockExit::Kind::IndirectCall;
            const Addr return_to = exit.returnTo;
            // Read the target from its (possibly relocated) home.
            uint32_t target;
            if (exit.targetOperand.isMem()) {
                Addr a = state.reg(exit.targetOperand.base) +
                    static_cast<uint32_t>(exit.targetOperand.disp);
                if (!_mem.tryRead32(a, target)) {
                    stop.reason = VmStop::Fault;
                    stop.stopPc = owner_src;
                    return stop;
                }
                ++stats.memReads;
            } else {
                target = state.reg(exit.targetOperand.reg);
            }
            // Consult the site's inline cache while the exit is
            // still guaranteed live (nothing has translated yet).
            TranslatedBlock *ibtc_hit = exit.ibtc.lookup(target);
            if (controlTraceHook)
                controlTraceHook(target, 'I');
            if (is_call) {
                if (!emit_call_linkage(return_to))
                    return stop;
                if (_cache.flushes() != flushes_at_exit) {
                    // Linkage translation flushed the cache; the
                    // cached block pointer is gone with it.
                    ibtc_hit = nullptr;
                }
            }
            ++stats.indirectTransfers;
            // SFI first, always — a cached target can never point
            // into the cache region, but the check is the security
            // boundary and stays in front unconditionally.
            if (_cache.contains(target)) {
                stop.reason = VmStop::SfiViolation;
                stop.stopPc = target;
                return stop;
            }
            if (ibtc_hit != nullptr) {
                // Inline-cache hit: this (site, target) pair passed
                // the full Section 3.5 policy before, and the block
                // survived (no flush since). Same counter semantics
                // as the lookup-hit dispatch it replaces.
                state.pc = target;
                ++stats.dispatches;
                blk = ibtc_hit;
            } else {
                blk = indirect_resolve(target);
                if (blk == nullptr)
                    return stop;
                update_ibtc(target, blk);
            }
            break;
          }
        }

        if (stats.guestInsts >= guest_budget) {
            stop.reason = VmStop::StepLimit;
            stop.stopPc = state.pc;
            return stop;
        }
    }
}

} // namespace hipstr
