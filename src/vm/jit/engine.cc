#include "engine.hh"

#include <cstddef>
#include <cstring>

#include "isa/exec_inline.hh"
#include "support/logging.hh"
#include "vm/jit/compiler.hh"
#include "vm/psr_vm.hh"

/**
 * C ABI entry points for emitted code: the compiler embeds these
 * addresses as movabs+call. Each returns nonzero to continue the
 * trace, zero to unwind through the epilogue.
 */
extern "C" int
hipstrJitMemProbe(hipstr::jit::JitFrame *f, uint32_t op_idx)
{
    return hipstr::jit::TraceJit::memProbe(f, op_idx);
}

extern "C" int
hipstrJitExec(hipstr::jit::JitFrame *f, uint32_t op_idx)
{
    return hipstr::jit::TraceJit::execOp(f, op_idx);
}

extern "C" int
hipstrJitSegCall(hipstr::jit::JitFrame *f, uint32_t op_idx)
{
    return hipstr::jit::TraceJit::segCall(f, op_idx);
}

namespace hipstr::jit
{

namespace
{

using JitEntry = void (*)(JitFrame *);

const CompileLayout &
layout()
{
    static const CompileLayout l = [] {
        CompileLayout c;
        c.frameStats =
            static_cast<int32_t>(offsetof(JitFrame, stats));
        c.frameMemBase =
            static_cast<int32_t>(offsetof(JitFrame, memBase));
        c.frameRegs = static_cast<int32_t>(offsetof(JitFrame, regs));
        c.frameBudget =
            static_cast<int32_t>(offsetof(JitFrame, guestBudget));
        c.frameExitCode =
            static_cast<int32_t>(offsetof(JitFrame, exitCode));
        c.frameExitOp =
            static_cast<int32_t>(offsetof(JitFrame, exitOp));
        c.frameOpHints =
            static_cast<int32_t>(offsetof(JitFrame, opHints));
        c.flagsOffFromRegs = static_cast<int32_t>(
            offsetof(MachineState, flags) -
            offsetof(MachineState, regs));
        c.statsGuestInsts =
            static_cast<int32_t>(offsetof(VmStats, guestInsts));
        c.statsHostInsts =
            static_cast<int32_t>(offsetof(VmStats, hostInsts));
        c.statsMemReads =
            static_cast<int32_t>(offsetof(VmStats, memReads));
        c.statsMemWrites =
            static_cast<int32_t>(offsetof(VmStats, memWrites));
        c.statsTraceFollows =
            static_cast<int32_t>(offsetof(VmStats, traceFollows));
        c.memProbeHelper =
            reinterpret_cast<const void *>(&hipstrJitMemProbe);
        c.execHelper =
            reinterpret_cast<const void *>(&hipstrJitExec);
        c.segCallHelper =
            reinterpret_cast<const void *>(&hipstrJitSegCall);
        return c;
    }();
    return l;
}

/** ALU handler shape, or -1 for non-ALU handlers. */
int
aluShape(TraceH h)
{
    if (h >= TraceH::AddRR && h < TraceH::Exec) {
        return (static_cast<int>(h) -
                static_cast<int>(TraceH::AddRR)) %
            5;
    }
    return -1;
}

} // namespace

bool
TraceJit::hostSupported(const char **reason)
{
#if !defined(__x86_64__)
    *reason = "host is not x86-64";
    return false;
#else
#if defined(__SANITIZE_ADDRESS__)
    *reason = "AddressSanitizer build";
    return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    *reason = "AddressSanitizer build";
    return false;
#endif
#endif
#if defined(HIPSTR_UBSAN)
    *reason = "UndefinedBehaviorSanitizer build";
    return false;
#endif
    *reason = nullptr;
    return true;
#endif
}

int
TraceJit::memProbe(JitFrame *f, uint32_t op_idx)
{
    const TraceOp &op = f->trace->ops[op_idx];
    Memory &mem = f->vm->mem();
    const uint32_t *regs = f->regs;
    Memory::SpanHint &h = f->opHints[op_idx];
    bool ok;
    switch (const int shape = aluShape(op.h); op.h) {
      case TraceH::MovRM:
        ok = mem.probe32Span(h, regs[op.b] + op.imm, PermR);
        break;
      case TraceH::MovMR:
      case TraceH::MovMI:
        ok = mem.probe32Span(h, regs[op.a] + op.imm, PermW);
        break;
      case TraceH::MovbRM:
        ok = mem.probe8Span(h, regs[op.b] + op.imm, PermR);
        break;
      case TraceH::MovbMR:
        ok = mem.probe8Span(h, regs[op.a] + op.imm, PermW);
        break;
      case TraceH::CmpRM:
      case TraceH::TestRM:
        ok = mem.probe32Span(h, regs[op.c] + op.imm2, PermR);
        break;
      case TraceH::CmpMR:
      case TraceH::CmpMI:
      case TraceH::TestMR:
      case TraceH::TestMI:
        ok = mem.probe32Span(h, regs[op.b] + op.imm, PermR);
        break;
      case TraceH::PushR:
      case TraceH::PushI:
        ok = mem.probe32Span(h, regs[op.a] - kWordSize, PermW);
        break;
      case TraceH::PopR:
        ok = mem.probe32Span(h, regs[op.a], PermR);
        break;
      default:
        if (shape == 2) { // ALU RM: read [R(c)+imm2]
            ok = mem.probe32Span(h, regs[op.c] + op.imm2, PermR);
        } else if (shape == 3 || shape == 4) {
            // ALU MR/MI read-modify-write the slot at [R(a)+imm]:
            // permission spans are uniform, so one window verified
            // for both directions admits the whole RMW.
            const Addr slot = regs[op.a] + op.imm;
            ok = mem.probe32Span(h, slot, PermR) &&
                mem.probe32Span(h, slot, PermW);
        } else {
            hipstr_panic("jit memProbe: op %u is not a memory op",
                         static_cast<unsigned>(op.h));
        }
        break;
    }
    if (ok)
        return 1;
    f->exitCode = kJitExitFault;
    f->exitOp = op_idx;
    return 0;
}

int
TraceJit::execOp(JitFrame *f, uint32_t op_idx)
{
    PsrVm &vm = *f->vm;
    const TraceOp &op = f->trace->ops[op_idx];
    ++vm._jit.stats.execFallbacks;
    ExecStatus st =
        executeInstInline(op.ti->mi, vm.state, vm._mem, &vm._os);
    if (st == ExecStatus::Continue) [[likely]]
        return 1;
    if (st == ExecStatus::Halted) {
        vm.stopTraceAt(*f->trace, op, VmStop::Halted, *f->stop,
                       *f->exit);
        f->exitCode = kJitExitHelper;
        return 0;
    }
    hipstr_assert(st == ExecStatus::Faulted);
    f->exitCode = kJitExitFault;
    f->exitOp = op_idx;
    return 0;
}

int
TraceJit::segCall(JitFrame *f, uint32_t op_idx)
{
    PsrVm &vm = *f->vm;
    SuperTrace *tr = f->trace;
    const TraceOp &op = tr->ops[op_idx];
    vm.stats.guestInsts += op.guestD;
    vm.stats.hostInsts += op.instIdx + 1;
    vm.stats.memReads += op.readsD;
    vm.stats.memWrites += op.writesD;
    // Linkage faults report the owner block's pc, like the block loop
    // (controlTraceHook is gated off before JIT entry).
    vm.state.pc = tr->segs[op.seg].guestPc;
    if (!vm.emitCallLinkage(op.imm2, *f->stop)) {
        f->exit->kind = TraceExitKind::Stop;
        f->exitCode = kJitExitHelper;
        return 0;
    }
    if (vm._cache.flushes() != tr->flushGen) [[unlikely]] {
        // The eager return-point translation capacity-flushed the
        // cache: abandon the trace and re-enter through the counting
        // dispatcher, exactly like the interpreter's SegCall.
        f->exit->kind = TraceExitKind::DispatchTo;
        f->exit->target = op.imm;
        f->exitCode = kJitExitHelper;
        return 0;
    }
    ++vm.stats.traceFollows;
    vm.state.pc = op.imm;
    if (vm.stats.guestInsts >= f->guestBudget) [[unlikely]] {
        f->stop->reason = VmStop::StepLimit;
        f->stop->stopPc = vm.state.pc;
        f->exit->kind = TraceExitKind::Stop;
        f->exitCode = kJitExitHelper;
        return 0;
    }
    return 1;
}

bool
TraceJit::ensureCompiled(PsrVm &vm, SuperTrace *tr)
{
    if (tr->jit.entry != nullptr &&
        tr->jit.gen == _arena.generation()) [[likely]] {
        return true;
    }
    if (tr->jit.failed || _arenaFailed)
        return false;

    // Safe point by construction: compilation happens only on trace
    // entry from the dispatch loop, never under a live JIT frame, so
    // the W^X page flips cannot pull code out from under an
    // executing trace.
    if (!_arena.valid()) {
        if (!_arena.init(vm.config().jitArenaBytes)) {
            _arenaFailed = true;
            hipstr_warn("trace JIT disabled: executable arena "
                        "allocation failed");
            return false;
        }
    } else {
        _arena.beginWrite();
    }

    Emitter em;
    if (!compileTrace(*tr, layout(), em)) {
        tr->jit.failed = true;
        _arena.endWrite();
        return false;
    }

    uint8_t *p = _arena.alloc(em.size());
    if (p == nullptr) {
        // Arena full: generational reclaim. Every compiled trace is
        // stranded (stale stamp) and lazily recompiled on its next
        // entry; nothing is executing out of the arena here.
        _arena.reset();
        p = _arena.alloc(em.size());
        if (p == nullptr) {
            tr->jit.failed = true; // larger than the whole arena
            _arena.endWrite();
            return false;
        }
    }
    std::memcpy(p, em.code.data(), em.size());
    _arena.endWrite();

    tr->jit.entry = p;
    tr->jit.gen = _arena.generation();
    ++stats.compiledTraces;
    stats.codeBytes += em.size();
    return true;
}

bool
TraceJit::run(PsrVm &vm, SuperTrace *tr, uint64_t guest_budget,
              VmRunResult &stop, TraceExit &tx)
{
    if (!ensureCompiled(vm, tr))
        return false;

    JitFrame f;
    f.stats = &vm.stats;
    f.memBase = vm._mem.jitBase();
    f.regs = vm.state.regs.data();
    f.guestBudget = guest_budget;
    f.vm = &vm;
    f.trace = tr;
    f.stop = &stop;
    f.exit = &tx;

    // Hand the compiled body its persistent per-op hint table. Slots
    // survive across entries (hint state is semantically invisible);
    // any region change bumps the layout epoch and empties them.
    const uint64_t epoch = vm._mem.layoutEpoch();
    if (tr->jit.hintEpoch != epoch ||
        tr->jit.hints.size() != tr->ops.size()) {
        tr->jit.hints.assign(tr->ops.size(), Memory::SpanHint{});
        tr->jit.hintEpoch = epoch;
    }
    f.opHints = tr->jit.hints.data();

    ++stats.executions;
    reinterpret_cast<JitEntry>(const_cast<void *>(tr->jit.entry))(&f);

    switch (f.exitCode) {
      case kJitExitHelper:
        // A helper (Exec stop, SegCall stop/abandon) already filled
        // stop and tx.
        return true;
      case kJitExitSide:
        ++vm._traces.stats.sideExits;
        ++stats.sideExits;
        vm.resumeTraceOwner(*tr, tr->ops[f.exitOp], tx);
        return true;
      case kJitExitEnd:
        vm.resumeTraceOwner(*tr, tr->ops[f.exitOp], tx);
        return true;
      case kJitExitFault:
        vm.stopTraceAt(*tr, tr->ops[f.exitOp], VmStop::Fault, stop, tx);
        return true;
      case kJitExitBudget: {
        // Counters were folded inline before the budget test; the
        // stop pc is the segment edge's target, like the interpreter.
        const TraceOp &op = tr->ops[f.exitOp];
        vm.state.pc = op.imm;
        stop.reason = VmStop::StepLimit;
        stop.stopPc = op.imm;
        tx.kind = TraceExitKind::Stop;
        return true;
      }
      default:
        hipstr_panic("trace JIT: bad exit code %u", f.exitCode);
    }
}

} // namespace hipstr::jit
