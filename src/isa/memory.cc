#include "memory.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

#include "support/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define HIPSTR_MEM_HAVE_MMAP 1
#ifndef MAP_NORESERVE
#define MAP_NORESERVE 0
#endif
#endif

namespace hipstr
{

namespace
{

#if HIPSTR_MEM_HAVE_MMAP
size_t
hostPageSize()
{
    static const size_t page =
        static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    return page;
}
#endif

} // namespace

Memory::Memory()
{
#if HIPSTR_MEM_HAVE_MMAP
    // One private anonymous mapping, zero-filled lazily by the kernel,
    // plus a PROT_NONE guard page past kMemEnd. NORESERVE: a fleet
    // maps dozens of these and touches a small fraction of each.
    const size_t page = hostPageSize();
    const size_t len = layout::kMemEnd + page;
    void *p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p != MAP_FAILED) {
        _bytes = static_cast<uint8_t *>(p);
        _mapBytes = len;
        if (::mprotect(_bytes + layout::kMemEnd, page, PROT_NONE) != 0)
            hipstr_fatal("guest memory: guard page mprotect failed");
    }
#endif
    if (_bytes == nullptr) {
        _bytes = static_cast<uint8_t *>(std::calloc(layout::kMemEnd, 1));
        if (_bytes == nullptr)
            throw std::bad_alloc();
    }
    rebuildSpans();
}

Memory::~Memory()
{
#if HIPSTR_MEM_HAVE_MMAP
    if (_mapBytes != 0) {
        ::munmap(_bytes, _mapBytes);
        return;
    }
#endif
    std::free(_bytes);
}

void
Memory::setRegion(Addr base, uint32_t size, Perm perm,
                  const std::string &name)
{
    hipstr_assert(static_cast<uint64_t>(base) + size <=
                  layout::kMemEnd);
    // Later definitions take precedence; keep the list small by
    // replacing an exact match.
    for (auto &r : _regions) {
        if (r.base == base && r.size == size) {
            r.perm = perm;
            r.name = name;
            rebuildSpans();
            return;
        }
    }
    _regions.push_back(Region{base, size, perm, name});
    rebuildSpans();
}

void
Memory::rebuildSpans()
{
    ++_layoutEpoch;
    // Every region edge is a potential permission change; resolve the
    // perm of each cell with the region list's last-definition-wins
    // rule, then merge equal neighbours. Region counts are single
    // digits, so the quadratic resolve is irrelevant — this runs only
    // on setRegion, never on an access.
    std::vector<Addr> edges;
    edges.reserve(_regions.size() * 2 + 2);
    edges.push_back(0);
    const Addr mem_end = layout::kMemEnd;
    for (const auto &r : _regions) {
        if (r.base < mem_end)
            edges.push_back(r.base);
        if (r.base + r.size < mem_end)
            edges.push_back(r.base + r.size);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    edges.push_back(mem_end);

    _spans.clear();
    for (size_t i = 0; i + 1 < edges.size(); ++i) {
        const Addr cell = edges[i];
        Perm p = PermNone;
        for (const auto &r : _regions) {
            if (cell >= r.base && cell - r.base < r.size)
                p = r.perm;
        }
        if (!_spans.empty() && _spans.back().perm == p)
            _spans.back().end = edges[i + 1];
        else
            _spans.push_back(Span{edges[i + 1],
                                  static_cast<uint8_t>(p)});
    }
    hipstr_assert(!_spans.empty() && _spans.back().end == mem_end);
}

std::string
Memory::regionName(Addr addr) const
{
    std::string name;
    for (const auto &r : _regions) {
        if (addr >= r.base && addr - r.base < r.size)
            name = r.name;
    }
    return name;
}

void
Memory::check(Addr addr, unsigned len, Perm needed) const
{
    if (static_cast<uint64_t>(addr) + len > layout::kMemEnd) {
        throw Fault{addr, needed, "access beyond address space"};
    }
    Perm have = permAt(addr);
    if ((have & needed) != needed) {
        throw Fault{addr, needed,
                    std::string("permission violation in region '") +
                        regionName(addr) + "'"};
    }
}

bool
Memory::rangeAccessible(Addr addr, uint32_t len,
                        Perm needed) const noexcept
{
    if (static_cast<uint64_t>(addr) + len > layout::kMemEnd)
        return false;
    for (uint64_t a = addr; a < static_cast<uint64_t>(addr) + len; ++a)
        if ((permAt(static_cast<Addr>(a)) & needed) != needed)
            return false;
    return true;
}

uint8_t
Memory::read8(Addr addr) const
{
    check(addr, 1, PermR);
    return _bytes[addr];
}

uint16_t
Memory::read16(Addr addr) const
{
    check(addr, 2, PermR);
    return static_cast<uint16_t>(_bytes[addr]) |
        (static_cast<uint16_t>(_bytes[addr + 1]) << 8);
}

uint32_t
Memory::read32(Addr addr) const
{
    check(addr, 4, PermR);
    uint32_t v;
    std::memcpy(&v, &_bytes[addr], 4);
    return v;
}

void
Memory::beginJournal()
{
    hipstr_assert(!_journaling);
    _journaling = true;
    _journal.clear();
}

void
Memory::rollback()
{
    hipstr_assert(_journaling);
    for (size_t i = _journal.size(); i-- > 0;)
        _bytes[_journal[i].first] = _journal[i].second;
    _journal.clear();
    _journaling = false;
}

void
Memory::journalBytes(Addr addr, unsigned len)
{
    if (!_journaling)
        return;
    for (unsigned i = 0; i < len; ++i)
        _journal.emplace_back(addr + i, _bytes[addr + i]);
}

void
Memory::write8(Addr addr, uint8_t v)
{
    check(addr, 1, PermW);
    journalBytes(addr, 1);
    _bytes[addr] = v;
}

void
Memory::write16(Addr addr, uint16_t v)
{
    check(addr, 2, PermW);
    journalBytes(addr, 2);
    _bytes[addr] = static_cast<uint8_t>(v);
    _bytes[addr + 1] = static_cast<uint8_t>(v >> 8);
}

void
Memory::write32(Addr addr, uint32_t v)
{
    check(addr, 4, PermW);
    journalBytes(addr, 4);
    std::memcpy(&_bytes[addr], &v, 4);
}

uint8_t
Memory::fetch8(Addr addr) const
{
    check(addr, 1, PermX);
    return _bytes[addr];
}

size_t
Memory::fetchBytes(Addr addr, uint8_t *out, size_t len) const
{
    size_t n = 0;
    while (n < len &&
           static_cast<uint64_t>(addr) + n < layout::kMemEnd &&
           (permAt(addr + static_cast<Addr>(n)) & PermX)) {
        out[n] = _bytes[addr + n];
        ++n;
    }
    return n;
}

uint8_t
Memory::rawRead8(Addr addr) const
{
    hipstr_assert(addr < layout::kMemEnd);
    return _bytes[addr];
}

uint32_t
Memory::rawRead32(Addr addr) const
{
    hipstr_assert(static_cast<uint64_t>(addr) + 4 <= layout::kMemEnd);
    uint32_t v;
    std::memcpy(&v, &_bytes[addr], 4);
    return v;
}

void
Memory::rawWrite8(Addr addr, uint8_t v)
{
    hipstr_assert(addr < layout::kMemEnd);
    _bytes[addr] = v;
}

void
Memory::rawWrite32(Addr addr, uint32_t v)
{
    hipstr_assert(static_cast<uint64_t>(addr) + 4 <= layout::kMemEnd);
    std::memcpy(&_bytes[addr], &v, 4);
}

void
Memory::rawWriteBytes(Addr addr, const uint8_t *src, size_t len)
{
    hipstr_assert(static_cast<uint64_t>(addr) + len <= layout::kMemEnd);
    std::memcpy(&_bytes[addr], src, len);
}

void
Memory::rawReadBytes(Addr addr, uint8_t *dst, size_t len) const
{
    hipstr_assert(static_cast<uint64_t>(addr) + len <= layout::kMemEnd);
    std::memcpy(dst, &_bytes[addr], len);
}

void
Memory::zeroRange(Addr base, uint32_t len)
{
    hipstr_assert(static_cast<uint64_t>(base) + len <= layout::kMemEnd);
#if defined(__linux__)
    // Linux only: elsewhere (macOS) MADV_DONTNEED need not zero.
    if (_mapBytes != 0) {
        const size_t page = hostPageSize();
        const size_t end = static_cast<size_t>(base) + len;
        const size_t lo = (static_cast<size_t>(base) + page - 1) &
            ~(page - 1);
        const size_t hi = end & ~(page - 1);
        if (hi > lo && (hi - lo) / page >= kDiscardPages &&
            ::madvise(_bytes + lo, hi - lo, MADV_DONTNEED) == 0) {
            std::memset(&_bytes[base], 0, lo - base);
            std::memset(&_bytes[hi], 0, end - hi);
            return;
        }
    }
#endif
    std::memset(&_bytes[base], 0, len);
}

} // namespace hipstr
