#include "galileo.hh"

#include <unordered_set>

#include "isa/codec.hh"

namespace hipstr
{

namespace
{

GadgetEnd
endKind(Op op)
{
    switch (op) {
      case Op::Ret: return GadgetEnd::Ret;
      case Op::JmpInd: return GadgetEnd::IndirectJump;
      case Op::Syscall: return GadgetEnd::Syscall;
      default: return GadgetEnd::IndirectCall;
    }
}

} // namespace

std::vector<Gadget>
scanRegion(IsaKind isa, const std::vector<uint8_t> &bytes, Addr base,
           const FatBinary *bin, const GalileoConfig &cfg)
{
    std::vector<Gadget> gadgets;
    const unsigned step = isaDescriptor(isa).instAlign;

    // Instruction-boundary map for intentionality: walk the region as
    // the compiler laid it out.
    std::unordered_set<Addr> boundaries;
    {
        Addr pc = base;
        const Addr end = base + static_cast<Addr>(bytes.size());
        while (pc < end) {
            boundaries.insert(pc);
            MachInst mi;
            if (!decodeBytes(isa, bytes.data() + (pc - base),
                             end - pc, pc, mi)) {
                pc += step;
                continue;
            }
            pc += mi.size;
        }
    }

    for (Addr start = base;
         start < base + static_cast<Addr>(bytes.size());
         start += step) {
        Gadget g;
        g.addr = start;
        g.isa = isa;
        Addr pc = start;
        bool ended = false;
        for (unsigned n = 0; n < cfg.maxInsts; ++n) {
            if (pc >= base + static_cast<Addr>(bytes.size()))
                break;
            MachInst mi;
            if (!decodeBytes(isa, bytes.data() + (pc - base),
                             base + bytes.size() - pc, pc, mi)) {
                break;
            }
            // Direct transfers leave the chain, Halt stops the
            // machine, and VmExit (only in translated code, where it
            // marks a dispatcher trap) cannot be ridden.
            const OpInfo &info = opInfo(mi.op);
            if (info.terminator && !info.indirect)
                break;
            g.insts.push_back(mi);
            if (mi.op == Op::Syscall)
                g.hasSyscall = true;
            pc += mi.size;
            // Indirect transfers end a gadget, and so does a system
            // call: the execve gadget does not need to return.
            if (info.indirect || mi.op == Op::Syscall) {
                if (!cfg.includeJop && mi.op != Op::Ret)
                    break;
                g.end = endKind(mi.op);
                ended = true;
                break;
            }
        }
        if (!ended)
            continue;

        g.lengthBytes = pc - start;
        g.intentional = boundaries.count(start) != 0;
        if (bin != nullptr) {
            const FuncInfo *fi = bin->findFuncByAddr(isa, start);
            if (fi != nullptr)
                g.funcId = fi->funcId;
        }
        gadgets.push_back(std::move(g));
    }
    return gadgets;
}

std::vector<Gadget>
scanBinary(const FatBinary &bin, IsaKind isa, const GalileoConfig &cfg)
{
    return scanRegion(isa, bin.code[static_cast<size_t>(isa)],
                      layout::codeBase(isa), &bin, cfg);
}

GadgetCensus
censusOf(const std::vector<Gadget> &gadgets)
{
    GadgetCensus c;
    for (const Gadget &g : gadgets) {
        ++c.total;
        if (g.intentional)
            ++c.intentional;
        else
            ++c.unintentional;
        if (g.end == GadgetEnd::Ret ||
            g.end == GadgetEnd::Syscall)
            ++c.ropEnding;
        else
            ++c.jopEnding;
        if (g.hasSyscall)
            ++c.withSyscall;
    }
    return c;
}

} // namespace hipstr
