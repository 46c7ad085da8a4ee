#include "translator.hh"

#include <algorithm>
#include <array>
#include <unordered_set>

#include "isa/codec.hh"
#include "isa/mem_traffic.hh"
#include "support/bitops.hh"
#include "support/logging.hh"

namespace hipstr
{

namespace
{

/** Identity map used for code outside any known function (_start).
 *  Magic-static init: translators run concurrently under the
 *  parallel experiment engine. */
const RelocationMap &
identityMap(IsaKind isa)
{
    static const auto maps = [] {
        std::array<RelocationMap, kNumIsas> out;
        for (IsaKind k : kAllIsas) {
            RelocationMap &m = out[static_cast<size_t>(k)];
            m.isa = k;
            for (unsigned r = 0; r < 16; ++r) {
                m.regMap[r] = static_cast<Reg>(r);
                m.regToSlot[r] = kNotInMemory;
            }
            const IsaDescriptor &desc = isaDescriptor(k);
            for (unsigned i = 0; i < 4; ++i)
                m.argRegs[i] = desc.argRegs[i];
            m.retReg = desc.retReg;
        }
        return out;
    }();
    return maps[static_cast<size_t>(isa)];
}

/** Roles a guest instruction can play in the convention rewrites. */
enum class Role : uint8_t
{
    Normal,
    PrologueSub,       ///< frame allocation
    PrologueParamStore,///< store of incoming argument p (aux = p)
    EpilogueRetMove,   ///< write of the return value register
    EpilogueAddSp,     ///< frame release directly before Ret
    CallArgLoad,       ///< load of outgoing argument j (aux = j)
    CallTargetLoad,    ///< load of an indirect-call target from the
                       ///< spare staging slot; routed through the
                       ///< scratch register so no renaming can land
                       ///< it on a physical argument register
    CallResultMove,    ///< read of a callee's return register
                       ///< (aux = callee function id)
    SyscallArgLoad,    ///< load of a syscall argument register
    SyscallResultMove  ///< read of the syscall result register
};

struct GuestInst
{
    Addr addr = 0;
    MachInst mi;
    Role role = Role::Normal;
    uint32_t aux = 0;
};

} // namespace

/** Per-unit translation state. */
class TranslationContext
{
  public:
    TranslationContext(PsrTranslator &tr, Addr entry)
        : _tr(tr), _bin(tr._bin), _isa(tr._isa), _mem(tr._mem),
          _desc(isaDescriptor(tr._isa)),
          _scratch(isaDescriptor(tr._isa).scratchReg), _entry(entry)
    {
    }

    std::unique_ptr<TranslatedBlock> run(TranslateError &err);

  private:
    /** Decode one guest basic block starting at @p addr. */
    bool decodeGuestBlock(Addr addr, std::vector<GuestInst> &out);
    /** Assign convention roles within a decoded block. */
    void assignRoles(std::vector<GuestInst> &block, Addr block_start);

    const RelocationMap &map() const { return *_map; }
    const FuncInfo *funcInfo() const { return _fi; }

    /** Emit helpers. @{ */
    void
    emit(MachInst mi)
    {
        _unit->insts.push_back(TInst{ mi, -1 });
    }
    void
    emitExitInst(MachInst mi, int exit_idx)
    {
        _unit->insts.push_back(TInst{ mi, exit_idx });
    }
    int
    addExit(BlockExit exit)
    {
        _unit->exits.push_back(exit);
        return static_cast<int>(_unit->exits.size() - 1);
    }
    /** @} */

    /** Transformation pipeline. @{ */
    Operand renameOperand(const Operand &o) const;
    Operand substituteOperand(const Operand &o) const;
    void fixMemBase(MachInst &mi);
    void emitSpAdjust(Op op, uint32_t amount);
    void emitLegalized(MachInst mi);
    void emitJuggled(MachInst mi);
    void emitRiscBigDisp(MachInst mi);
    void transformNormal(const MachInst &mi);
    void emitLoadSlotToReg(Reg rd, uint32_t disp);
    void emitStoreRegToSlot(uint32_t disp, Reg rs);
    /** @} */

    void processBlock(std::vector<GuestInst> &block);
    void handleTerminator(const GuestInst &gi, bool epilogue_done);

    PsrTranslator &_tr;
    const FatBinary &_bin;
    IsaKind _isa;
    Memory &_mem;
    const IsaDescriptor &_desc;
    Reg _scratch;
    Addr _entry;

    std::unique_ptr<TranslatedBlock> _unit;
    const FuncInfo *_fi = nullptr;
    const RelocationMap *_map = nullptr;
    bool _scratchBusy = false;

    Addr _cur = 0;              ///< next guest block to process
    bool _done = false;
    bool _callTargetInScratch = false;
    std::unordered_set<Addr> _visited;
};

// --------------------------------------------------------------------
// Decoding and role assignment
// --------------------------------------------------------------------

bool
TranslationContext::decodeGuestBlock(Addr addr,
                                     std::vector<GuestInst> &out)
{
    constexpr unsigned kMaxInsts = 256;
    out.clear();
    Addr pc = addr;
    for (unsigned i = 0; i < kMaxInsts; ++i) {
        MachInst mi;
        if (!decodeInst(_isa, _mem, pc, mi)) {
            if (out.empty())
                return false;
            // Garbage mid-stream: end the block here; jumping to it
            // later will crash the guest, as it should.
            break;
        }
        out.push_back(GuestInst{ pc, mi, Role::Normal, 0 });
        pc += mi.size;
        if (pc > _unit->srcEnd)
            _unit->srcEnd = pc;
        // Jcc continues the straight-line block (the fall-through);
        // every other control transfer ends it.
        if (mi.isTerminator() && mi.op != Op::Jcc)
            return true;
    }
    return !out.empty();
}

void
TranslationContext::assignRoles(std::vector<GuestInst> &block,
                                Addr block_start)
{
    const FuncInfo *fi = _fi;
    if (fi == nullptr || block.empty())
        return;

    // --- Prologue pattern (function entry block only). ---
    if (block_start == fi->entry) {
        size_t i = 0;
        const MachInst &first = block[0].mi;
        uint32_t expect = (_isa == IsaKind::Cisc)
            ? fi->frameSize - 4 : fi->frameSize;
        if (first.op == Op::Sub && first.dst.isReg() &&
            first.dst.reg == _desc.spReg && first.src2.isImm() &&
            static_cast<uint32_t>(first.src2.disp) == expect) {
            block[0].role = Role::PrologueSub;
            i = 1;
            if (_isa == IsaKind::Risc)
                ++i; // the LR store transforms via the slot map
            i += fi->usedCalleeSaved.size();
            for (uint32_t p = 0;
                 p < fi->numParams && i < block.size(); ++p, ++i) {
                const MachInst &mi = block[i].mi;
                bool matches = mi.op == Op::Mov && mi.dst.isMem() &&
                    mi.dst.base == _desc.spReg &&
                    static_cast<uint32_t>(mi.dst.disp) ==
                        fi->slotOf(p) &&
                    mi.src1.isReg() &&
                    mi.src1.reg == _desc.argRegs[p];
                if (!matches)
                    break;
                block[i].role = Role::PrologueParamStore;
                block[i].aux = p;
            }
        }
    }

    // --- Post-call result move: the first instruction of a
    // post-call segment reads the *callee's* randomized return
    // register (the caller's own renaming does not apply to it). ---
    const MachBlockInfo *mbi = fi->blockAt(block_start);
    if (mbi != nullptr && mbi->start == block_start &&
        mbi->segment > 0) {
        int prev = fi->blockIndexOf(mbi->irBlock, mbi->segment - 1);
        if (prev >= 0 && fi->blocks[static_cast<size_t>(prev)]
                             .endsInCall) {
            uint32_t cs_id =
                fi->blocks[static_cast<size_t>(prev)].callSiteId;
            uint32_t callee = _bin.callSites[cs_id].calleeFuncId;
            MachInst &mv = block[0].mi;
            if (mv.op == Op::Mov && mv.src1.isReg() &&
                mv.src1.reg == _desc.retReg) {
                block[0].role = Role::CallResultMove;
                block[0].aux = callee;
            }
        }
    }

    // --- Epilogue pattern: [retmove] restores* add-sp ret. ---
    size_t n = block.size();
    if (n >= 2 && block[n - 1].mi.op == Op::Ret) {
        const MachInst &add = block[n - 2].mi;
        if (add.op == Op::Add && add.dst.isReg() &&
            add.dst.reg == _desc.spReg && add.src2.isImm() &&
            static_cast<uint32_t>(add.src2.disp) ==
                fi->frameSize - 4) {
            block[n - 2].role = Role::EpilogueAddSp;
            // Walk back over callee-saved restores.
            size_t k = n - 2;
            size_t restores = 0;
            while (k > 0 && restores < fi->usedCalleeSaved.size()) {
                const MachInst &mi = block[k - 1].mi;
                bool is_restore = mi.op == Op::Mov &&
                    mi.dst.isReg() && mi.src1.isMem() &&
                    mi.src1.base == _desc.spReg &&
                    static_cast<uint32_t>(mi.src1.disp) >=
                        fi->calleeSaveBase &&
                    static_cast<uint32_t>(mi.src1.disp) <
                        fi->calleeSaveBase + 32;
                if (!is_restore)
                    break;
                --k;
                ++restores;
            }
            if (k > 0) {
                const MachInst &mv = block[k - 1].mi;
                if (mv.op == Op::Mov && mv.dst.isReg() &&
                    mv.dst.reg == _desc.retReg) {
                    block[k - 1].role = Role::EpilogueRetMove;
                }
            }
        }
    }

    // --- Call argument loads. ---
    if (n >= 1 && (block[n - 1].mi.op == Op::Call ||
                   block[n - 1].mi.op == Op::CallInd)) {
        size_t k = n - 1;
        if (block[n - 1].mi.op == Op::CallInd && k > 0) {
            // The target load from the spare staging slot goes
            // through the scratch register (see Role docs).
            const MachInst &mi = block[k - 1].mi;
            if (mi.op == Op::Mov && mi.dst.isReg() &&
                mi.src1.isMem() && mi.src1.base == _desc.spReg &&
                mi.src1.disp == 16 &&
                mi.dst.reg == block[n - 1].mi.src1.reg) {
                block[k - 1].role = Role::CallTargetLoad;
                --k;
            }
        }
        // Walk back over `load argRegs[j], [sp + 4j]`, descending j.
        while (k > 0) {
            const MachInst &mi = block[k - 1].mi;
            if (mi.op != Op::Mov || !mi.dst.isReg() ||
                !mi.src1.isMem() || mi.src1.base != _desc.spReg) {
                break;
            }
            int32_t disp = mi.src1.disp;
            if (disp < 0 || disp >= 16 || (disp & 3))
                break;
            uint32_t j = static_cast<uint32_t>(disp) / 4;
            if (mi.dst.reg != _desc.argRegs[j])
                break;
            block[k - 1].role = Role::CallArgLoad;
            block[k - 1].aux = j;
            --k;
        }
    }

    // --- Syscall sequences. ---
    for (size_t i = 0; i < n; ++i) {
        if (block[i].mi.op != Op::Syscall)
            continue;
        size_t k = i;
        while (k > 0) {
            const MachInst &mi = block[k - 1].mi;
            if (mi.op != Op::Mov || !mi.dst.isReg() ||
                !mi.src1.isMem() || mi.src1.base != _desc.spReg) {
                break;
            }
            int32_t disp = mi.src1.disp;
            if (disp < 0 || disp >= 16 || (disp & 3))
                break;
            uint32_t j = static_cast<uint32_t>(disp) / 4;
            Reg expected =
                (j == 0) ? _desc.retReg : _desc.argRegs[j];
            if (mi.dst.reg != expected)
                break;
            block[k - 1].role = Role::SyscallArgLoad;
            block[k - 1].aux = j;
            --k;
        }
        if (i + 1 < n) {
            MachInst &mi = block[i + 1].mi;
            if (mi.op == Op::Mov && mi.src1.isReg() &&
                mi.src1.reg == _desc.retReg &&
                block[i + 1].role == Role::Normal) {
                block[i + 1].role = Role::SyscallResultMove;
            }
        }
    }
}

// --------------------------------------------------------------------
// Operand transformation and legalization
// --------------------------------------------------------------------

Operand
TranslationContext::renameOperand(const Operand &o) const
{
    if (o.isReg()) {
        if (o.reg == _desc.spReg || o.reg == _scratch)
            return o;
        return Operand::makeReg(map().mapReg(o.reg));
    }
    if (o.isMem()) {
        if (o.base == _desc.spReg) {
            return Operand::makeMem(
                o.base,
                static_cast<int32_t>(map().mapSlot(
                    static_cast<uint32_t>(o.disp))));
        }
        Operand out = o;
        if (o.base != _scratch)
            out.base = map().mapReg(o.base);
        return out;
    }
    return o;
}

Operand
TranslationContext::substituteOperand(const Operand &o) const
{
    // Registers relocated to memory become sp-relative slots.
    if (o.isReg() && o.reg != _desc.spReg && o.reg != _scratch) {
        int32_t slot = map().regToSlot[o.reg];
        if (slot != kNotInMemory)
            return Operand::makeMem(_desc.spReg, slot);
    }
    return o;
}

void
TranslationContext::emitLoadSlotToReg(Reg rd, uint32_t disp)
{
    MachInst mi = MachInst::load(rd, _desc.spReg,
                                 static_cast<int32_t>(disp));
    if (isEncodable(_isa, mi)) {
        emit(mi);
    } else {
        emitRiscBigDisp(mi);
    }
}

void
TranslationContext::emitStoreRegToSlot(uint32_t disp, Reg rs)
{
    MachInst mi = MachInst::store(_desc.spReg,
                                  static_cast<int32_t>(disp), rs);
    if (isEncodable(_isa, mi)) {
        emit(mi);
    } else {
        emitRiscBigDisp(mi);
    }
}

/**
 * Fix a memory operand whose base register was relocated to memory:
 * the base value is loaded into the scratch register first.
 */
void
TranslationContext::fixMemBase(MachInst &mi)
{
    auto fix = [&](Operand &o) {
        if (!o.isMem() || o.base == _desc.spReg ||
            o.base == _scratch) {
            return;
        }
        int32_t slot = map().regToSlot[o.base];
        if (slot == kNotInMemory)
            return;
        hipstr_assert(!_scratchBusy);
        emitLoadSlotToReg(_scratch, static_cast<uint32_t>(slot));
        o.base = _scratch;
        _scratchBusy = true;
    };
    // Cisc two-address forms alias dst and src1; fix the shared
    // operand once.
    Operand dst_before = mi.dst;
    fix(mi.dst);
    if (mi.src1 == dst_before && dst_before.isMem())
        mi.src1 = mi.dst;
    else
        fix(mi.src1);
    fix(mi.src2);
}

/** sp += / -= amount, materializing through scratch when needed. */
void
TranslationContext::emitSpAdjust(Op op, uint32_t amount)
{
    MachInst mi = MachInst::alu(
        op, _desc.spReg, _desc.spReg,
        Operand::makeImm(static_cast<int32_t>(amount)));
    if (isEncodable(_isa, mi)) {
        emit(mi);
        return;
    }
    hipstr_assert(_isa == IsaKind::Risc);
    emit(MachInst::movRI(
        _scratch, static_cast<int32_t>(
                      static_cast<int16_t>(amount & 0xffff))));
    emit(MachInst::movHi(_scratch,
                         static_cast<int32_t>((amount >> 16) &
                                              0xffff)));
    emit(MachInst::alu(op, _desc.spReg, _desc.spReg,
                       Operand::makeReg(_scratch)));
}

/** Risc: sp-relative displacements beyond imm16 go through r15. */
void
TranslationContext::emitRiscBigDisp(MachInst mi)
{
    hipstr_assert(_isa == IsaKind::Risc);
    Operand *memop = nullptr;
    if (mi.dst.isMem())
        memop = &mi.dst;
    else if (mi.src1.isMem())
        memop = &mi.src1;
    hipstr_assert(memop != nullptr);
    hipstr_assert(memop->base == _desc.spReg);

    int32_t disp = memop->disp;
    // r15 <- disp; r15 += sp; access [r15 + 0]
    emit(MachInst::movRI(
        _scratch,
        static_cast<int32_t>(static_cast<int16_t>(disp & 0xffff))));
    emit(MachInst::movHi(
        _scratch, static_cast<int32_t>(
                      (static_cast<uint32_t>(disp) >> 16) & 0xffff)));
    emit(MachInst::alu(Op::Add, _scratch, _scratch,
                       Operand::makeReg(_desc.spReg)));
    memop->base = _scratch;
    memop->disp = 0;
    hipstr_assert(isEncodable(_isa, mi));
    emit(mi);
}

/**
 * Last-resort legalization: free up a general-purpose register by
 * spilling it below the stack pointer, use it to route the values,
 * and restore it. Push/pop shift sp, so sp-relative displacements in
 * the working instruction are adjusted by the word size.
 */
void
TranslationContext::emitJuggled(MachInst mi)
{
    hipstr_assert(_isa == IsaKind::Cisc);

    auto referenced = [&](Reg r) {
        auto uses = [&](const Operand &o) {
            return (o.isReg() && o.reg == r) ||
                (o.isMem() && o.base == r);
        };
        return uses(mi.dst) || uses(mi.src1) || uses(mi.src2);
    };
    Reg jr = kNoReg;
    for (Reg r : { cisc::AX, cisc::CX, cisc::DX, cisc::BX, cisc::SI,
                   cisc::DI }) {
        if (!referenced(r)) {
            jr = r;
            break;
        }
    }
    hipstr_assert(jr != kNoReg);

    emit(MachInst::push(Operand::makeReg(jr)));
    auto shift_sp = [&](Operand &o) {
        if (o.isMem() && o.base == _desc.spReg)
            o.disp += 4;
    };
    shift_sp(mi.dst);
    shift_sp(mi.src1);
    shift_sp(mi.src2);

    bool reg_dst_required = mi.op == Op::Mul || mi.op == Op::Divu ||
        ((mi.op == Op::Shl || mi.op == Op::Shr || mi.op == Op::Sar) &&
         mi.src2.isReg());

    if ((mi.op == Op::Mov || mi.op == Op::Movb) && mi.dst.isMem() &&
        mi.src1.isMem()) {
        // mem <- mem copy through jr.
        MachInst ld = mi;
        ld.dst = Operand::makeReg(jr);
        hipstr_assert(isEncodable(_isa, ld));
        emit(ld);
        MachInst st = mi;
        st.src1 = Operand::makeReg(jr);
        hipstr_assert(isEncodable(_isa, st));
        emit(st);
    } else if (reg_dst_required && mi.dst.isMem()) {
        // Route the destination through jr.
        Operand dst_mem = mi.dst;
        MachInst ld = MachInst::load(jr, dst_mem.base, dst_mem.disp);
        hipstr_assert(isEncodable(_isa, ld));
        emit(ld);
        MachInst op = mi;
        op.dst = Operand::makeReg(jr);
        op.src1 = Operand::makeReg(jr);
        if (!isEncodable(_isa, op)) {
            // Variable shift by a memory-resident amount.
            hipstr_assert(!_scratchBusy);
            hipstr_assert(op.src2.isMem());
            MachInst lda = MachInst::load(_scratch, op.src2.base,
                                          op.src2.disp);
            hipstr_assert(isEncodable(_isa, lda));
            emit(lda);
            op.src2 = Operand::makeReg(_scratch);
            hipstr_assert(isEncodable(_isa, op));
        }
        emit(op);
        MachInst st =
            MachInst::store(dst_mem.base, dst_mem.disp, jr);
        hipstr_assert(isEncodable(_isa, st));
        emit(st);
    } else {
        // Generic two-memory ALU/compare: src2 through jr.
        hipstr_assert(mi.src2.isMem());
        MachInst ld =
            MachInst::load(jr, mi.src2.base, mi.src2.disp);
        hipstr_assert(isEncodable(_isa, ld));
        emit(ld);
        MachInst op = mi;
        op.src2 = Operand::makeReg(jr);
        hipstr_assert(isEncodable(_isa, op));
        emit(op);
    }

    emit(MachInst::pop(jr));
}

void
TranslationContext::emitLegalized(MachInst mi)
{
    if (isEncodable(_isa, mi)) {
        emit(mi);
        return;
    }

    if (_isa == IsaKind::Risc) {
        emitRiscBigDisp(mi);
        return;
    }

    // Cisc legalization with the BP scratch, falling back to
    // push/pop juggling when BP is occupied or a register
    // destination is required.
    bool reg_dst_required = mi.op == Op::Mul || mi.op == Op::Divu ||
        ((mi.op == Op::Shl || mi.op == Op::Shr || mi.op == Op::Sar) &&
         mi.src2.isReg());

    if (reg_dst_required && mi.dst.isMem()) {
        emitJuggled(mi);
        return;
    }

    if ((mi.op == Op::Shl || mi.op == Op::Shr || mi.op == Op::Sar) &&
        mi.src2.isMem() && mi.dst.isReg()) {
        // Variable shift with a memory-resident amount.
        if (_scratchBusy) {
            emitJuggled(mi);
            return;
        }
        MachInst ld =
            MachInst::load(_scratch, mi.src2.base, mi.src2.disp);
        hipstr_assert(isEncodable(_isa, ld));
        emit(ld);
        mi.src2 = Operand::makeReg(_scratch);
        hipstr_assert(isEncodable(_isa, mi));
        emit(mi);
        return;
    }

    if ((mi.op == Op::Mov || mi.op == Op::Movb) && mi.dst.isMem() &&
        (mi.src1.isMem() ||
         (mi.op == Op::Movb && mi.src1.isImm() &&
          !isEncodable(_isa, mi)))) {
        if (_scratchBusy) {
            emitJuggled(mi);
            return;
        }
        MachInst ld = mi;
        ld.dst = Operand::makeReg(_scratch);
        if (!isEncodable(_isa, ld)) {
            // e.g. movb scratch, imm — route through a plain mov.
            ld = MachInst::movRI(_scratch, mi.src1.disp);
        }
        emit(ld);
        MachInst st = mi;
        st.src1 = Operand::makeReg(_scratch);
        hipstr_assert(isEncodable(_isa, st));
        emit(st);
        return;
    }

    if (mi.src2.isMem()) {
        // Two-memory ALU/compare: src2 through scratch.
        if (_scratchBusy) {
            emitJuggled(mi);
            return;
        }
        MachInst ld =
            MachInst::load(_scratch, mi.src2.base, mi.src2.disp);
        hipstr_assert(isEncodable(_isa, ld));
        emit(ld);
        mi.src2 = Operand::makeReg(_scratch);
        if (isEncodable(_isa, mi)) {
            emit(mi);
            return;
        }
    }

    if (mi.op == Op::Lea && mi.dst.isMem()) {
        // lea into a relocated register: compute, then store.
        if (_scratchBusy && mi.src1.base != _scratch) {
            emitJuggled(mi);
            return;
        }
        MachInst compute =
            MachInst::lea(_scratch, mi.src1.base, mi.src1.disp);
        hipstr_assert(isEncodable(_isa, compute));
        emit(compute);
        MachInst st = MachInst::store(mi.dst.base, mi.dst.disp,
                                      _scratch);
        hipstr_assert(isEncodable(_isa, st));
        emit(st);
        return;
    }

    if (mi.op == Op::Push && mi.src1.isMem()) {
        if (_scratchBusy) {
            emitJuggled(mi);
            return;
        }
        emit(MachInst::load(_scratch, mi.src1.base, mi.src1.disp));
        emit(MachInst::push(Operand::makeReg(_scratch)));
        return;
    }
    if (mi.op == Op::Pop && mi.dst.isMem()) {
        // pop into a relocated register: pop scratch, then store.
        emit(MachInst::pop(_scratch));
        MachInst st =
            MachInst::store(mi.dst.base, mi.dst.disp, _scratch);
        hipstr_assert(isEncodable(_isa, st));
        emit(st);
        return;
    }

    emitJuggled(mi);
}

void
TranslationContext::transformNormal(const MachInst &guest)
{
    MachInst mi = guest;
    _scratchBusy = false;

    // Rename registers.
    mi.dst = renameOperand(mi.dst);
    mi.src1 = renameOperand(mi.src1);
    mi.src2 = renameOperand(mi.src2);

    // Fix memory bases whose register now lives in memory.
    fixMemBase(mi);

    // Byte accesses touching a memory-relocated register need care:
    // the relocated slot holds the full 32-bit register image, so the
    // slot side of the access must stay word-sized.
    if (mi.op == Op::Movb) {
        bool dst_reloc = mi.dst.isReg() &&
            map().regToSlot[mi.dst.reg] != kNotInMemory;
        bool src_reloc = mi.src1.isReg() &&
            map().regToSlot[mi.src1.reg] != kNotInMemory;
        if (dst_reloc || src_reloc) {
            Reg route = _scratch;
            bool juggled = false;
            if (_scratchBusy) {
                // The guest memory side's base occupies the scratch;
                // borrow a GP register.
                auto referenced = [&](Reg r) {
                    auto uses = [&](const Operand &o) {
                        return (o.isReg() && o.reg == r) ||
                            (o.isMem() && o.base == r);
                    };
                    return uses(mi.dst) || uses(mi.src1);
                };
                for (Reg r : { cisc::AX, cisc::CX, cisc::DX,
                               cisc::BX, cisc::SI, cisc::DI }) {
                    if (!referenced(r)) {
                        route = r;
                        break;
                    }
                }
                juggled = true;
                emit(MachInst::push(Operand::makeReg(route)));
            }
            auto shift = [&](Operand o) {
                if (juggled && o.isMem() && o.base == _desc.spReg)
                    o.disp += 4;
                return o;
            };
            if (dst_reloc) {
                // Byte load: zero-extend into the route register,
                // then a word store refreshes the whole slot.
                MachInst ld = mi;
                ld.dst = Operand::makeReg(route);
                ld.src1 = shift(ld.src1);
                hipstr_assert(isEncodable(_isa, ld));
                emit(ld);
                int32_t slot = map().regToSlot[mi.dst.reg];
                emit(MachInst::store(
                    _desc.spReg, slot + (juggled ? 4 : 0), route));
            } else {
                // Byte store: word-load the register image, then
                // store its low byte.
                int32_t slot = map().regToSlot[mi.src1.reg];
                emit(MachInst::load(route, _desc.spReg,
                                    slot + (juggled ? 4 : 0)));
                MachInst st = mi;
                st.src1 = Operand::makeReg(route);
                st.dst = shift(st.dst);
                hipstr_assert(isEncodable(_isa, st));
                emit(st);
            }
            if (juggled)
                emit(MachInst::pop(route));
            _scratchBusy = false;
            return;
        }
    }

    // Substitute memory-relocated register operands.
    mi.dst = substituteOperand(mi.dst);
    mi.src1 = substituteOperand(mi.src1);
    mi.src2 = substituteOperand(mi.src2);

    emitLegalized(mi);
    _scratchBusy = false;
}

// --------------------------------------------------------------------
// Block processing
// --------------------------------------------------------------------

void
TranslationContext::processBlock(std::vector<GuestInst> &block)
{
    const FuncInfo *fi = _fi;
    _callTargetInScratch = false;

    for (size_t i = 0; i < block.size(); ++i) {
        GuestInst &gi = block[i];
        ++_unit->guestInstCount;
        ++_tr._guestInstsTranslated;
        const MachInst &mi = gi.mi;
        size_t first_emitted = _unit->insts.size();
        auto mark_guest_start = [&]() {
            if (_unit->insts.size() > first_emitted)
                _unit->insts[first_emitted].guestStart = true;
        };
        struct MarkOnExit
        {
            decltype(mark_guest_start) &fn;
            ~MarkOnExit() { fn(); }
        } marker{ mark_guest_start };

        switch (gi.role) {
          case Role::PrologueSub: {
            uint32_t grow = (_isa == IsaKind::Cisc)
                ? map().newFrameSize - 4 : map().newFrameSize;
            emitSpAdjust(Op::Sub, grow);
            if (_isa == IsaKind::Cisc) {
                // Move the pushed return address to its relocated
                // slot.
                uint32_t ra_top = map().newFrameSize - 4;
                uint32_t ra_new = map().mapSlot(fi->raSlot);
                if (ra_new != ra_top) {
                    emitLoadSlotToReg(_scratch, ra_top);
                    emitStoreRegToSlot(ra_new, _scratch);
                }
            }
            continue;
          }

          case Role::PrologueParamStore: {
            uint32_t p = gi.aux;
            Reg incoming = map().argRegs[p];
            emitStoreRegToSlot(map().mapSlot(fi->slotOf(p)),
                               incoming);
            continue;
          }

          case Role::EpilogueRetMove: {
            MachInst mv = mi;
            mv.src1 = renameOperand(mv.src1);
            // Memory-relocated sources still need substitution.
            mv.src1 = substituteOperand(mv.src1);
            mv.dst = Operand::makeReg(map().retReg);
            emitLegalized(mv);
            continue;
          }

          case Role::EpilogueAddSp: {
            // Pop the expanded frame first, then fetch the relocated
            // return address from below the new stack pointer and
            // park it at the top for the POP-return. Releasing the
            // frame before loading keeps the scratch register free
            // for a large sp adjustment.
            uint32_t ra_new = map().mapSlot(fi->raSlot);
            uint32_t pop_amount = map().newFrameSize - 4;
            emitSpAdjust(Op::Add, pop_amount);
            int32_t delta =
                -static_cast<int32_t>(pop_amount - ra_new);
            emitLoadSlotToReg(_scratch,
                              static_cast<uint32_t>(delta));
            emitStoreRegToSlot(0, _scratch);
            continue;
          }

          case Role::CallArgLoad: {
            uint32_t j = gi.aux;
            // Where does the callee expect argument j?
            Reg target = _desc.argRegs[j];
            const MachInst &last = block.back().mi;
            if (last.op == Op::Call) {
                const FuncInfo *callee =
                    _bin.findFuncByAddr(_isa, last.target);
                if (callee != nullptr) {
                    target = _tr._randomizer
                                 .mapFor(callee->funcId)
                                 .argRegs[j];
                }
            }
            MachInst ld = MachInst::load(
                target, _desc.spReg,
                static_cast<int32_t>(map().mapSlot(
                    static_cast<uint32_t>(mi.src1.disp))));
            if (isEncodable(_isa, ld))
                emit(ld);
            else
                emitRiscBigDisp(ld);
            continue;
          }

          case Role::CallTargetLoad: {
            emitLoadSlotToReg(
                _scratch,
                map().mapSlot(static_cast<uint32_t>(mi.src1.disp)));
            _callTargetInScratch = true;
            continue;
          }

          case Role::CallResultMove: {
            Reg callee_ret = _desc.retReg;
            uint32_t callee = gi.aux;
            if (callee != kIndirectCallee &&
                !_tr._randomizer.usesDefaultConvention(callee)) {
                callee_ret =
                    _tr._randomizer.mapFor(callee).retReg;
            }
            MachInst mv = mi;
            mv.src1 = Operand::makeReg(callee_ret);
            mv.dst = renameOperand(mv.dst);
            mv.dst = substituteOperand(mv.dst);
            emitLegalized(mv);
            continue;
          }

          case Role::SyscallArgLoad: {
            MachInst ld = MachInst::load(
                mi.dst.reg, _desc.spReg,
                static_cast<int32_t>(map().mapSlot(
                    static_cast<uint32_t>(mi.src1.disp))));
            if (isEncodable(_isa, ld))
                emit(ld);
            else
                emitRiscBigDisp(ld);
            continue;
          }

          case Role::SyscallResultMove: {
            MachInst mv = mi;
            mv.dst = renameOperand(mv.dst);
            mv.dst = substituteOperand(mv.dst);
            // src stays the architectural result register.
            emitLegalized(mv);
            continue;
          }

          case Role::Normal:
            break;
        }

        // Terminators end the unit (or extend it, for superblocks).
        if (mi.isTerminator() && mi.op != Op::Jcc) {
            handleTerminator(gi, /*epilogue_done=*/true);
            return;
        }

        if (mi.op == Op::Jcc) {
            if (mi.target == _unit->srcStart)
                _unit->isLoopHead = true;
            int idx = addExit(BlockExit{ BlockExit::Kind::Branch,
                                         mi.target, 0, Operand(),
                                         nullptr, {} });
            MachInst jcc = MachInst::jcc(mi.cond, 0);
            emitExitInst(jcc, idx);
            continue;
        }

        if (mi.op == Op::Syscall) {
            emit(MachInst::syscall());
            continue;
        }

        transformNormal(mi);
    }

    // Block ended without a terminator (mid-stream garbage or length
    // cap): exit to the next guest address.
    Addr next = block.back().addr + block.back().mi.size;
    int idx = addExit(BlockExit{ BlockExit::Kind::Branch, next, 0,
                                 Operand(), nullptr, {} });
    emitExitInst(MachInst::vmExit(static_cast<uint32_t>(idx)), idx);
    _done = true;
}

void
TranslationContext::handleTerminator(const GuestInst &gi, bool)
{
    const MachInst &mi = gi.mi;
    const PsrConfig &cfg = _tr._randomizer.config();

    switch (mi.op) {
      case Op::Jmp: {
        if (mi.target == _unit->srcStart)
            _unit->isLoopHead = true;
        // Superblock formation: inline the target when profitable.
        const FuncInfo *target_fi =
            _bin.findFuncByAddr(_isa, mi.target);
        bool same_func =
            (target_fi == nullptr && _fi == nullptr) ||
            (target_fi != nullptr && _fi != nullptr &&
             target_fi->funcId == _fi->funcId);
        if (cfg.superblocks() &&
            _unit->guestBlocksInlined < cfg.maxSuperblockBlocks &&
            same_func && !_visited.count(mi.target)) {
            _visited.insert(mi.target);
            ++_unit->guestBlocksInlined;
            _cur = mi.target;
            return; // continue translating inline
        }
        int idx = addExit(BlockExit{ BlockExit::Kind::Branch,
                                     mi.target, 0, Operand(),
                                     nullptr, {} });
        emitExitInst(MachInst::vmExit(static_cast<uint32_t>(idx)),
                     idx);
        _done = true;
        return;
      }

      case Op::Call: {
        // Touch the callee's relocation map now (first-entry map
        // construction, Section 3.4).
        const FuncInfo *callee =
            _bin.findFuncByAddr(_isa, mi.target);
        if (callee != nullptr)
            (void)_tr._randomizer.mapFor(callee->funcId);
        int idx = addExit(BlockExit{ BlockExit::Kind::Call,
                                     mi.target,
                                     gi.addr + mi.size, Operand(),
                                     nullptr, {} });
        emitExitInst(MachInst::vmExit(static_cast<uint32_t>(idx)),
                     idx);
        _done = true;
        return;
      }

      case Op::CallInd:
      case Op::JmpInd: {
        Operand target;
        if (mi.op == Op::CallInd && _callTargetInScratch) {
            target = Operand::makeReg(_scratch);
        } else {
            target = renameOperand(mi.src1);
            target = substituteOperand(target);
        }
        BlockExit exit;
        exit.kind = (mi.op == Op::CallInd)
            ? BlockExit::Kind::IndirectCall
            : BlockExit::Kind::IndirectJump;
        exit.targetOperand = target;
        exit.returnTo = gi.addr + mi.size;
        int idx = addExit(exit);
        emitExitInst(MachInst::vmExit(static_cast<uint32_t>(idx)),
                     idx);
        _done = true;
        return;
      }

      case Op::Ret:
        emit(MachInst::ret());
        _done = true;
        return;

      case Op::Halt: {
        int idx = addExit(BlockExit{ BlockExit::Kind::Halt, 0, 0,
                                     Operand(), nullptr, {} });
        emitExitInst(MachInst::vmExit(static_cast<uint32_t>(idx)),
                     idx);
        _done = true;
        return;
      }

      default:
        hipstr_panic("handleTerminator: %s", opName(mi.op));
    }
}

std::unique_ptr<TranslatedBlock>
TranslationContext::run(TranslateError &err)
{
    err = TranslateError::None;
    _unit = std::make_unique<TranslatedBlock>();
    _unit->srcStart = _entry;
    _unit->generation = _tr._randomizer.generation();

    _fi = _bin.findFuncByAddr(_isa, _entry);
    if (_fi != nullptr) {
        _unit->funcId = _fi->funcId;
        _map = &_tr._randomizer.mapFor(_fi->funcId);
    } else {
        _map = &identityMap(_isa);
    }

    _cur = _entry;
    _visited.insert(_entry);
    std::vector<GuestInst> block;
    while (!_done) {
        if (!decodeGuestBlock(_cur, block)) {
            if (_unit->insts.empty()) {
                err = TranslateError::BadInstruction;
                return nullptr;
            }
            int idx = addExit(BlockExit{ BlockExit::Kind::Branch,
                                         _cur, 0, Operand(),
                                         nullptr, {} });
            emitExitInst(
                MachInst::vmExit(static_cast<uint32_t>(idx)), idx);
            break;
        }
        assignRoles(block, _cur);
        processBlock(block);
    }

    // ----------------------------------------------------------------
    // Byte layout: body instructions, then VmExit stubs for exits
    // referenced from conditional branches. Branch encodings are
    // pc-relative, so the image is position-independent and can be
    // copied to any code-cache address.
    // ----------------------------------------------------------------
    std::vector<uint32_t> offsets(_unit->insts.size() + 1, 0);
    uint32_t cursor = 0;
    uint32_t guest_cum = 0;
    uint32_t reads_cum = 0;
    uint32_t writes_cum = 0;
    for (size_t i = 0; i < _unit->insts.size(); ++i) {
        TInst &ti = _unit->insts[i];
        ti.mi.size =
            static_cast<uint8_t>(encodedSize(_isa, ti.mi));
        offsets[i] = cursor;
        ti.byteOff = static_cast<uint16_t>(cursor);
        cursor += ti.mi.size;
        MemCounts mc = instMemCounts(ti.mi, _isa);
        ti.memReads = mc.reads;
        ti.memWrites = mc.writes;

        // Pre-classification for the VM's switch-based inner loop.
        // A Jcc without a wired exit stays Plain and executes inline,
        // matching the pre-classification op cascade.
        if (ti.mi.op == Op::Jcc && ti.exitIdx >= 0)
            ti.klass = ExecClass::Jcc;
        else if (ti.mi.op == Op::VmExit)
            ti.klass = ExecClass::VmExit;
        else if (ti.mi.op == Op::Ret)
            ti.klass = ExecClass::Ret;
        else if (ti.mi.op == Op::Syscall)
            ti.klass = ExecClass::Syscall;
        else
            ti.klass = ti.guestStart ? ExecClass::GuestStartPlain
                                     : ExecClass::Plain;

        // Inclusive running totals (see TInst): guest boundaries over
        // every class, data traffic only over the Plain classes whose
        // counts the VM would otherwise add per instruction.
        if (ti.guestStart)
            ++guest_cum;
        if (ti.klass == ExecClass::Plain ||
            ti.klass == ExecClass::GuestStartPlain) {
            reads_cum += ti.memReads;
            writes_cum += ti.memWrites;
        }
        ti.guestCum = guest_cum;
        ti.memReadsCum = reads_cum;
        ti.memWritesCum = writes_cum;
    }
    offsets[_unit->insts.size()] = cursor;

    // Stub layout for Jcc exits.
    std::vector<int32_t> stub_off(_unit->exits.size(), -1);
    uint32_t stub_cursor = cursor;
    for (const TInst &ti : _unit->insts) {
        if (ti.mi.op == Op::Jcc && ti.exitIdx >= 0 &&
            stub_off[static_cast<size_t>(ti.exitIdx)] < 0) {
            MachInst stub =
                MachInst::vmExit(static_cast<uint32_t>(ti.exitIdx));
            stub_off[static_cast<size_t>(ti.exitIdx)] =
                static_cast<int32_t>(stub_cursor);
            stub_cursor += encodedSize(_isa, stub);
        }
    }

    std::vector<uint8_t> &bytes = _unit->bytes;
    bytes.reserve(stub_cursor);
    for (size_t i = 0; i < _unit->insts.size(); ++i) {
        MachInst mi = _unit->insts[i].mi;
        if (mi.op == Op::Jcc && _unit->insts[i].exitIdx >= 0) {
            mi.target = static_cast<Addr>(
                stub_off[static_cast<size_t>(
                    _unit->insts[i].exitIdx)]);
        }
        encodeInst(_isa, mi, offsets[i], bytes);
    }
    for (size_t e = 0; e < _unit->exits.size(); ++e) {
        if (stub_off[e] >= 0) {
            encodeInst(_isa,
                       MachInst::vmExit(static_cast<uint32_t>(e)),
                       static_cast<Addr>(stub_off[e]), bytes);
        }
    }

    ++_tr._unitsTranslated;
    return std::move(_unit);
}

// --------------------------------------------------------------------
// PsrTranslator
// --------------------------------------------------------------------

PsrTranslator::PsrTranslator(const FatBinary &bin, IsaKind isa,
                             Randomizer &randomizer, Memory &mem)
    : _bin(bin), _isa(isa), _randomizer(randomizer), _mem(mem)
{
}

std::unique_ptr<TranslatedBlock>
PsrTranslator::translate(Addr guest_addr, TranslateError &err)
{
    TranslationContext ctx(*this, guest_addr);
    return ctx.run(err);
}

} // namespace hipstr
