/**
 * @file
 * Flat guest memory with region permissions and the canonical process
 * address-space layout used by the loader, the PSR virtual machines,
 * and the attack framework.
 */

#ifndef HIPSTR_ISA_MEMORY_HH
#define HIPSTR_ISA_MEMORY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/isa.hh"

namespace hipstr
{

/**
 * Canonical address-space layout. A fat binary carries one code section
 * per ISA; both map simultaneously (the paper's symmetrical fat binary).
 * The code caches are VM-private regions that guest code must never
 * reference — the software-fault-isolation checks in the VM enforce
 * this, exactly as Section 5.1 of the paper mandates.
 */
namespace layout
{
constexpr Addr kRiscCodeBase = 0x00010000;
constexpr Addr kCiscCodeBase = 0x00400000;
constexpr Addr kDataBase     = 0x00800000;
/** Per-ISA function-pointer dispatch tables (1024 entries each). */
constexpr Addr kRiscFuncTable = kDataBase;
constexpr Addr kCiscFuncTable = kDataBase + 0x1000;
constexpr Addr kGlobalsBase  = kDataBase + 0x2000;
constexpr Addr kHeapBase     = 0x00a00000;
constexpr Addr kStackTop     = 0x01000000; ///< stack grows down
constexpr Addr kStackLimit   = 0x00c00000; ///< lowest legal stack addr
constexpr Addr kRiscCacheBase = 0x01000000; ///< Risc VM code cache
constexpr Addr kCiscCacheBase = 0x01400000; ///< Cisc VM code cache
constexpr Addr kMemEnd       = 0x01800000; ///< 24 MiB address space

/** Base of the code section for @p isa. */
constexpr Addr
codeBase(IsaKind isa)
{
    return isa == IsaKind::Risc ? kRiscCodeBase : kCiscCodeBase;
}

/** Base of the VM code cache for @p isa. */
constexpr Addr
cacheBase(IsaKind isa)
{
    return isa == IsaKind::Risc ? kRiscCacheBase : kCiscCacheBase;
}

/** Base of the function-pointer dispatch table for @p isa. */
constexpr Addr
funcTableBase(IsaKind isa)
{
    return isa == IsaKind::Risc ? kRiscFuncTable : kCiscFuncTable;
}
} // namespace layout

/** Access permissions for a memory region. */
enum Perm : uint8_t
{
    PermNone = 0,
    PermR = 1,
    PermW = 2,
    PermX = 4,
    PermRW = PermR | PermW,
    PermRX = PermR | PermX,
    PermRWX = PermR | PermW | PermX
};

/**
 * Byte-addressable little-endian guest memory.
 *
 * The backing store is one fixed anonymous mapping of kMemEnd bytes
 * followed by an inaccessible guard page: the kernel zero-fills it
 * lazily, so a fresh address space costs only the pages the guest
 * touches, and a host-side access that runs past the guest address
 * space faults instead of reading a neighbouring mapping. Without
 * mmap the store is a plain calloc block. It never moves, so a
 * Memory is neither copyable nor movable.
 *
 * Accesses outside the address space or violating region permissions
 * raise a @c MemFault, which the interpreter converts into a guest
 * crash — the event brute-force attacks (Section 6, Algorithm 1)
 * observe and count.
 */
class Memory
{
  public:
    /** Thrown on an illegal access; caught by the interpreter. */
    struct Fault
    {
        Addr addr;
        Perm needed;
        std::string what;
    };

    Memory();
    ~Memory();

    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;

    /** Define or redefine the permissions of [base, base+size). */
    void setRegion(Addr base, uint32_t size, Perm perm,
                   const std::string &name);

    /**
     * Permission byte governing @p addr: a binary search over the
     * flattened span partition (rebuilt on every setRegion), so the
     * per-access cost is O(log regions) instead of a scan of the
     * region list with last-definition-wins ordering.
     */
    Perm permAt(Addr addr) const
    {
        if (addr >= layout::kMemEnd)
            return PermNone;
        size_t lo = 0, hi = _spans.size() - 1;
        while (lo < hi) {
            size_t mid = (lo + hi) / 2;
            if (addr < _spans[mid].end)
                hi = mid;
            else
                lo = mid + 1;
        }
        return static_cast<Perm>(_spans[lo].perm);
    }

    /** Name of the region containing @p addr ("" if unmapped). */
    std::string regionName(Addr addr) const;

    /** Checked reads/writes. @{ */
    uint8_t read8(Addr addr) const;
    uint16_t read16(Addr addr) const;
    uint32_t read32(Addr addr) const;
    void write8(Addr addr, uint8_t v);
    void write16(Addr addr, uint16_t v);
    void write32(Addr addr, uint32_t v);
    /** @} */

    /**
     * Non-throwing checked accesses: return false instead of raising a
     * Fault. These back the per-instruction hot path of the interpreter
     * and the PSR VMs, where a status return avoids the try/catch setup
     * cost of the throwing variants; the throwing variants remain for
     * cold paths that want the diagnostic message. Try-writes honor
     * journaling exactly like their throwing counterparts. Inline —
     * together with the span-based permAt, a checked access is a
     * bounds test, a short binary search, and the data move. @{
     */
    bool tryRead8(Addr addr, uint8_t &v) const noexcept
    {
        if (!checkOk(addr, 1, PermR))
            return false;
        v = _bytes[addr];
        return true;
    }

    bool tryRead32(Addr addr, uint32_t &v) const noexcept
    {
        if (!checkOk(addr, 4, PermR))
            return false;
        __builtin_memcpy(&v, &_bytes[addr], 4);
        return true;
    }

    bool tryWrite8(Addr addr, uint8_t v) noexcept
    {
        if (!checkOk(addr, 1, PermW))
            return false;
        if (_journaling)
            journalBytes(addr, 1);
        _bytes[addr] = v;
        return true;
    }

    bool tryWrite32(Addr addr, uint32_t v) noexcept
    {
        if (!checkOk(addr, 4, PermW))
            return false;
        if (_journaling)
            journalBytes(addr, 4);
        __builtin_memcpy(&_bytes[addr], &v, 4);
        return true;
    }
    /** @} */

    /**
     * Span hint: an access fast path for loops whose addresses
     * cluster inside one permission span (stack frames, the relocated
     * register slots, a hot array). The hint caches the inclusive
     * range of base addresses for which an access of one width is
     * known legal, so a hit replaces the permAt binary search with one
     * range compare. Hints hold no pointers and must be discarded (or
     * simply not reused) across setRegion calls; the superblock trace
     * executor creates fresh hints per trace run and traces never
     * reach setRegion (syscalls end a trace). A hinted access has
     * byte-identical semantics to the matching tryRead/tryWrite,
     * including the first-byte permission rule and write journaling.
     *
     * A hint is direction- and width-specific: the cached window
     * proves only the permission and the address-space bound of the
     * access that established it, so a hint must be used exclusively
     * with one of tryRead32Span, tryWrite32Span, tryRead8Span and
     * tryWrite8Span, never two of them. @{
     */
    struct SpanHint
    {
        Addr lo = 1; ///< inclusive; lo > hi encodes the empty range
        Addr hi = 0;
    };

    bool tryRead32Span(SpanHint &h, Addr addr, uint32_t &v) const noexcept
    {
        if (addr >= h.lo && addr <= h.hi) [[likely]] {
            __builtin_memcpy(&v, &_bytes[addr], 4);
            return true;
        }
        if (!checkOk(addr, 4, PermR))
            return false;
        refillHint(h, addr, 4);
        __builtin_memcpy(&v, &_bytes[addr], 4);
        return true;
    }

    bool tryWrite32Span(SpanHint &h, Addr addr, uint32_t v) noexcept
    {
        if (addr >= h.lo && addr <= h.hi) [[likely]] {
            if (_journaling) [[unlikely]]
                journalBytes(addr, 4);
            __builtin_memcpy(&_bytes[addr], &v, 4);
            return true;
        }
        if (!checkOk(addr, 4, PermW))
            return false;
        refillHint(h, addr, 4);
        if (_journaling)
            journalBytes(addr, 4);
        __builtin_memcpy(&_bytes[addr], &v, 4);
        return true;
    }

    bool tryRead8Span(SpanHint &h, Addr addr, uint8_t &v) const noexcept
    {
        if (addr >= h.lo && addr <= h.hi) [[likely]] {
            v = _bytes[addr];
            return true;
        }
        if (!checkOk(addr, 1, PermR))
            return false;
        refillHint(h, addr, 1);
        v = _bytes[addr];
        return true;
    }

    bool tryWrite8Span(SpanHint &h, Addr addr, uint8_t v) noexcept
    {
        if (addr >= h.lo && addr <= h.hi) [[likely]] {
            if (_journaling) [[unlikely]]
                journalBytes(addr, 1);
            _bytes[addr] = v;
            return true;
        }
        if (!checkOk(addr, 1, PermW))
            return false;
        refillHint(h, addr, 1);
        if (_journaling)
            journalBytes(addr, 1);
        _bytes[addr] = v;
        return true;
    }
    /** @} */

    /**
     * Validate a 4-byte (probe32Span) or 1-byte (probe8Span) access
     * at @p addr for @p needed and refill @p h around it *without*
     * performing the access. This is the trace JIT's hint-miss probe:
     * it must stay free of guest-visible effects so the op that missed
     * can be retried from its start (read-modify-write ops would
     * otherwise double-apply). Semantically the miss path of the
     * matching try*Span accessor minus the data move. @{
     */
    bool
    probe32Span(SpanHint &h, Addr addr, Perm needed) const noexcept
    {
        if (!checkOk(addr, 4, needed))
            return false;
        refillHint(h, addr, 4);
        return true;
    }

    bool
    probe8Span(SpanHint &h, Addr addr, Perm needed) const noexcept
    {
        if (!checkOk(addr, 1, needed))
            return false;
        refillHint(h, addr, 1);
        return true;
    }
    /** @} */

    /**
     * True iff every byte of [addr, addr+len) is inside the address
     * space and grants @p needed. Syscall argument validation uses
     * this to reject guest-supplied buffer pointers up front — a
     * guest-level error return instead of a host-side Fault halfway
     * through the operation. Permission is checked per byte, so a
     * range spanning a region boundary needs @p needed on both sides.
     */
    bool rangeAccessible(Addr addr, uint32_t len,
                         Perm needed) const noexcept;

    /** Instruction fetch: like read but requires PermX. */
    uint8_t fetch8(Addr addr) const;
    /** Fetch up to @p len bytes into @p out; stops at region end. */
    size_t fetchBytes(Addr addr, uint8_t *out, size_t len) const;

    /**
     * Raw access without permission checks — used by the loader, the
     * stack transformer, and the attacker model (which by assumption
     * has an arbitrary read/write primitive).
     */
    uint8_t rawRead8(Addr addr) const;
    uint32_t rawRead32(Addr addr) const;
    void rawWrite8(Addr addr, uint8_t v);
    void rawWrite32(Addr addr, uint32_t v);
    void rawWriteBytes(Addr addr, const uint8_t *src, size_t len);
    void rawReadBytes(Addr addr, uint8_t *dst, size_t len) const;

    /**
     * Zero [base, base+len) without permission checks. Used when a
     * crashed worker process respawns: its data/heap/stack image is
     * wiped before the fat binary is reloaded, so the new generation
     * starts from a pristine address space.
     *
     * Costs what was dirtied, not what is covered: on Linux a range
     * spanning at least kDiscardPages whole pages hands its
     * page-aligned interior back to the kernel (MADV_DONTNEED, which
     * makes private anonymous pages read back as zero) and memsets
     * only the partial head and tail pages.
     */
    void zeroRange(Addr base, uint32_t len);

    /** Direct pointer into the backing store (attacker disclosures). */
    const uint8_t *data() const { return _bytes; }
    /**
     * Mutable backing-store base for the trace JIT, whose compiled
     * code addresses guest memory as [base + addr] after passing the
     * same span-hint window checks the interpreter uses. The mapping
     * is fixed at construction, so the pointer stays valid for the
     * object's lifetime.
     */
    uint8_t *jitBase() { return _bytes; }
    uint32_t size() const { return layout::kMemEnd; }

    /**
     * Monotonic stamp of the permission-span layout, bumped on every
     * region change. Cached hint windows (the trace JIT's persistent
     * per-op tables) are valid only while this stands still.
     */
    uint64_t layoutEpoch() const { return _layoutEpoch; }

    /**
     * Journaling: while enabled, checked writes record the bytes they
     * overwrite; rollback() restores them (newest first). The gadget
     * sandbox uses this to execute thousands of candidate gadgets
     * against one loaded image without copying it.
     */
    void beginJournal();
    void rollback();
    bool journaling() const { return _journaling; }

  private:
    void journalBytes(Addr addr, unsigned len);

    void check(Addr addr, unsigned len, Perm needed) const;

    /**
     * Point @p h at the widest window around @p addr for which a
     * @p len-byte access with the just-verified permission stays
     * legal: base addresses within the containing span whose first
     * byte rule and the address-space bound (addr + len <= kMemEnd)
     * both hold. Caller has already passed checkOk(addr, len, perm).
     */
    void refillHint(SpanHint &h, Addr addr, unsigned len) const noexcept
    {
        size_t lo = 0, hi = _spans.size() - 1;
        while (lo < hi) {
            size_t mid = (lo + hi) / 2;
            if (addr < _spans[mid].end)
                hi = mid;
            else
                lo = mid + 1;
        }
        h.lo = lo == 0 ? 0 : _spans[lo - 1].end;
        Addr span_last = _spans[lo].end - 1;
        Addr bound_last = layout::kMemEnd - len;
        h.hi = span_last < bound_last ? span_last : bound_last;
    }

    bool checkOk(Addr addr, unsigned len, Perm needed) const noexcept
    {
        if (static_cast<uint64_t>(addr) + len > layout::kMemEnd)
            return false;
        return (permAt(addr) & needed) == needed;
    }

    struct Region
    {
        Addr base;
        uint32_t size;
        Perm perm;
        std::string name;
    };

    /**
     * One cell of the flattened permission partition: covers up to
     * (exclusive) @c end with @c perm. Spans are sorted, contiguous
     * from 0, and always terminate at the address-space end, so
     * permAt resolves with a binary search instead of replaying the
     * region list's definition order.
     */
    struct Span
    {
        Addr end;
        uint8_t perm;
    };

    /** Recompute _spans from _regions (definition order wins). */
    void rebuildSpans();

    /**
     * Minimum number of whole pages a zeroRange must cover before
     * discarding them beats memset: below this the madvise syscall
     * and the refaults that follow cost more than the stores.
     */
    static constexpr size_t kDiscardPages = 16;

    uint8_t *_bytes = nullptr; ///< kMemEnd bytes (+ guard page if mapped)
    size_t _mapBytes = 0;      ///< mapping length; 0 = calloc fallback
    std::vector<Region> _regions;
    std::vector<Span> _spans;
    uint64_t _layoutEpoch = 0; ///< incremented by rebuildSpans()
    bool _journaling = false;
    std::vector<std::pair<Addr, uint8_t>> _journal;
};

} // namespace hipstr

#endif // HIPSTR_ISA_MEMORY_HH
