/**
 * @file
 * The single source of truth for per-instruction data-memory traffic.
 *
 * Three consumers previously hand-counted (and disagreed on) the
 * reads and writes of an instruction: the PSR VM's traceData, the
 * native interpreter's timing hook, and nothing at translate time.
 * They now all walk the same enumeration, so an instruction can never
 * be double-counted on one engine and missed on the other, and the
 * translator can bake the counts into each translated instruction for
 * the VM's untraced fast path.
 *
 * Enumeration order is reads first (src1, src2), then the destination
 * write, then the implicit stack access — the access order a real
 * pipeline would issue for a read-modify-write.
 */

#ifndef HIPSTR_ISA_MEM_TRAFFIC_HH
#define HIPSTR_ISA_MEM_TRAFFIC_HH

#include "isa/instruction.hh"
#include "isa/machine_state.hh"

namespace hipstr
{

/** Static per-instruction data-access counts. */
struct MemCounts
{
    uint8_t reads = 0;
    uint8_t writes = 0;
};

/**
 * The one enumeration of @p mi's data-memory accesses on @p isa:
 * cb(operand, stack_off, is_write) per access, where operand is the
 * memory operand accessed, or nullptr for an implicit stack access
 * at sp + stack_off. Explicit operands first, then implicit stack
 * traffic:
 *
 *  - Mov/Movb move a value from src1 to dst; any other op reads
 *    src1/src2 and writes dst (memory operands only).
 *  - Push writes the new top of stack on every ISA; Call/CallInd
 *    push a return address only on the Cisc ISA (the Risc ISA links
 *    through a register).
 *  - Pop and Ret read the current top of stack.
 *
 * Control-transfer target reads (JmpInd/CallInd through memory) are
 * accounted by the dispatcher that resolves them, not here.
 */
template <typename Cb>
inline void
walkMemAccesses(const MachInst &mi, IsaKind isa, Cb &&cb)
{
    auto operand = [&](const Operand &o, bool write) {
        if (o.isMem())
            cb(&o, 0, write);
    };
    operand(mi.src1, false);
    if (mi.op != Op::Mov && mi.op != Op::Movb)
        operand(mi.src2, false);
    operand(mi.dst, true);
    switch (mi.op) {
      case Op::Push:
        cb(nullptr, -4, true);
        break;
      case Op::Call:
      case Op::CallInd:
        if (isa == IsaKind::Cisc)
            cb(nullptr, -4, true);
        break;
      case Op::Pop:
      case Op::Ret:
        cb(nullptr, 0, false);
        break;
      default:
        break;
    }
}

/**
 * Invoke cb(addr, is_write) for every data-memory access @p mi
 * performs, using @p state (pre-execution register values) to form
 * addresses.
 */
template <typename Cb>
inline void
forEachMemAccess(const MachInst &mi, const MachineState &state,
                 Cb &&cb)
{
    walkMemAccesses(mi, state.isa,
                    [&](const Operand *o, int32_t stack_off, bool write) {
                        Addr base = o != nullptr ? state.reg(o->base)
                                                 : state.sp();
                        int32_t off = o != nullptr ? o->disp : stack_off;
                        cb(base + static_cast<uint32_t>(off), write);
                    });
}

/**
 * The counts forEachMemAccess would produce for @p mi on @p isa —
 * a static property of the instruction, computable at translate time.
 */
inline MemCounts
instMemCounts(const MachInst &mi, IsaKind isa)
{
    MemCounts c;
    walkMemAccesses(mi, isa, [&](const Operand *, int32_t, bool write) {
        ++(write ? c.writes : c.reads);
    });
    return c;
}

} // namespace hipstr

#endif // HIPSTR_ISA_MEM_TRAFFIC_HH
