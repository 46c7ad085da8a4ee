#include "arena.hh"

#include <algorithm>

#include "support/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define HIPSTR_JIT_HAVE_MMAP 1
#endif

namespace hipstr::jit
{

ExecArena::~ExecArena()
{
#if HIPSTR_JIT_HAVE_MMAP
    if (_base != nullptr)
        ::munmap(_base, _cap);
#endif
}

bool
ExecArena::init(size_t bytes)
{
#if HIPSTR_JIT_HAVE_MMAP
    _page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    _cap = (bytes + _page - 1) & ~(_page - 1);
    if (_cap < _page)
        _cap = _page;
    void *p = ::mmap(nullptr, _cap, PROT_READ | PROT_EXEC,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
        _cap = 0;
        return false;
    }
    _base = static_cast<uint8_t *>(p);
    _used = 0;
    _writable = true;
    return true;
#else
    (void)bytes;
    return false;
#endif
}

void
ExecArena::beginWrite()
{
    hipstr_assert(_base != nullptr);
    _writable = true;
}

void
ExecArena::endWrite()
{
    hipstr_assert(_base != nullptr);
    if (!_writable)
        return;
#if HIPSTR_JIT_HAVE_MMAP
    if (_rwHi > _rwLo &&
        ::mprotect(_base + _rwLo, _rwHi - _rwLo,
                   PROT_READ | PROT_EXEC) != 0)
        hipstr_fatal("jit arena: mprotect(RX) failed");
#endif
    _rwLo = _rwHi = 0;
    _writable = false;
}

uint8_t *
ExecArena::alloc(size_t bytes)
{
    hipstr_assert(_base != nullptr && _writable);
    size_t aligned = (_used + 15) & ~size_t(15);
    if (aligned + bytes > _cap)
        return nullptr;
    _used = aligned + bytes;
#if HIPSTR_JIT_HAVE_MMAP
    // Flip just the pages this body spans; the window grows to their
    // union if one bracket allocates more than once.
    const size_t lo = aligned & ~(_page - 1);
    const size_t hi = (_used + _page - 1) & ~(_page - 1);
    if (hi > lo) {
        if (::mprotect(_base + lo, hi - lo, PROT_READ | PROT_WRITE) != 0)
            hipstr_fatal("jit arena: mprotect(RW) failed");
        if (_rwHi == _rwLo) {
            _rwLo = lo;
            _rwHi = hi;
        } else {
            _rwLo = std::min(_rwLo, lo);
            _rwHi = std::max(_rwHi, hi);
        }
    }
#endif
    return _base + aligned;
}

void
ExecArena::reset()
{
    hipstr_assert(_base != nullptr && _writable);
    ++_gen;
    _used = 0;
}

} // namespace hipstr::jit
