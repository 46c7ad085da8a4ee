/**
 * @file
 * Architectural register state shared by the reference interpreter,
 * the PSR virtual machines, and the gadget-classification sandbox.
 */

#ifndef HIPSTR_ISA_MACHINE_STATE_HH
#define HIPSTR_ISA_MACHINE_STATE_HH

#include <array>
#include <cstdint>

#include "isa/isa.hh"

namespace hipstr
{

/** Condition flags; set only by Cmp/Test on both ISAs. */
struct Flags
{
    bool zf = false; ///< zero
    bool sf = false; ///< sign
    bool cf = false; ///< carry (unsigned borrow for Cmp)
    bool of = false; ///< signed overflow

    bool operator==(const Flags &) const = default;
};

/** Checkpoint field list (support/serialize.hh). */
template <class A>
void
transfer(A &a, Flags &f)
{
    auto &[zf, sf, cf, of] = f;
    a(zf, sf, cf, of);
}

/** Evaluate condition @p c against @p f. */
inline bool
condHolds(Cond c, const Flags &f)
{
    switch (c) {
      case Cond::Eq: return f.zf;
      case Cond::Ne: return !f.zf;
      case Cond::Lt: return f.sf != f.of;
      case Cond::Le: return f.zf || (f.sf != f.of);
      case Cond::Gt: return !f.zf && (f.sf == f.of);
      case Cond::Ge: return f.sf == f.of;
      case Cond::B:  return f.cf;
      case Cond::Be: return f.cf || f.zf;
      case Cond::A:  return !f.cf && !f.zf;
      case Cond::Ae: return !f.cf;
    }
    return false;
}

/** Full architectural state of one core. */
struct MachineState
{
    IsaKind isa = IsaKind::Cisc;
    std::array<uint32_t, 16> regs{};
    Flags flags;
    Addr pc = 0;

    explicit MachineState(IsaKind k = IsaKind::Cisc) : isa(k) {}

    uint32_t reg(Reg r) const { return regs[r]; }
    void setReg(Reg r, uint32_t v) { regs[r] = v; }

    uint32_t sp() const { return regs[isaDescriptor(isa).spReg]; }
    void setSp(uint32_t v) { regs[isaDescriptor(isa).spReg] = v; }
};

} // namespace hipstr

#endif // HIPSTR_ISA_MACHINE_STATE_HH
