/**
 * @file
 * Fault taxonomy shared by the fault-injection engine, the HIPStR
 * runtime, and the server supervisor. A FaultInfo is the structured
 * answer to "why did this worker die?" — the kind of fault, the guest
 * PC it struck at, the ISA it was executing on, and the randomization
 * generation of the victim VM.
 */

#ifndef HIPSTR_FAULT_FAULT_HH
#define HIPSTR_FAULT_FAULT_HH

#include <cstddef>
#include <cstdint>

#include "isa/isa.hh"

namespace hipstr
{

/**
 * Every way a worker can fault. The first group are organic guest
 * crashes (mapped from VmStop); the second are the injectable
 * infrastructure faults of the FaultPlan; the last two are verdicts
 * the supervisor itself hands down.
 */
enum class FaultKind : uint8_t
{
    None,           ///< no fault recorded
    MemFault,       ///< organic guest memory fault (VmStop::Fault)
    BadInstruction, ///< undecodable guest target (VmStop::BadInst)
    SfiViolation,   ///< Section 5.1 SFI termination
    BitFlip,        ///< injected: transient guest-memory bit flip
    DecodeFault,    ///< injected: corrupted decode on the next quantum
    CacheFlush,     ///< injected: spurious code-cache + RAT flush
    TransformAbort, ///< injected: cross-ISA transform forced to fail
    Wedge,          ///< injected: guest burns quanta without progress
    Watchdog,       ///< supervisor: wedged past the watchdog limit
    CoreFailure,    ///< supervisor: worker's core (or ISA) went down
    kNum
};

constexpr size_t kNumFaultKinds = static_cast<size_t>(FaultKind::kNum);

/** Range bound for checkpoint loads (support/serialize.hh). */
constexpr FaultKind
lastEnumerator(FaultKind)
{
    return static_cast<FaultKind>(kNumFaultKinds - 1);
}

/** Log-friendly name, procStateName-style. */
const char *faultKindName(FaultKind k);

/** Structured description of one fault (HipstrRunSummary::fault). */
struct FaultInfo
{
    FaultKind kind = FaultKind::None;
    Addr pc = 0;            ///< guest pc the fault struck at
    IsaKind isa = IsaKind::Risc; ///< ISA executing when it struck
    uint32_t generation = 0;     ///< randomizer generation of that VM

    bool valid() const { return kind != FaultKind::None; }
};

/** Checkpoint field list (support/serialize.hh). */
template <class A>
void
transfer(A &a, FaultInfo &f)
{
    auto &[kind, pc, isa, generation] = f;
    a(kind, pc, isa, generation);
}

} // namespace hipstr

#endif // HIPSTR_FAULT_FAULT_HH
