/**
 * @file
 * W^X executable-memory arena for the trace JIT.
 *
 * The arena is a single anonymous mapping, RX from the moment it is
 * mapped, and W^X holds page by page: no page is ever writable and
 * executable at once. Compilation happens inside a
 * beginWrite()/endWrite() bracket; inside it, alloc() flips only the
 * pages the new body spans to RW, and endWrite() returns exactly that
 * window to RX. Opening the bracket and reset() make no syscall, so a
 * compile costs two mprotect calls over a page or two, whatever the
 * arena's size. The flips happen only at safe points — trace
 * compilation runs from the dispatch loop or a formation site, never
 * under a live JIT frame — so no thread ever executes a page that is
 * currently writable, even when a new body shares a page with an
 * older one.
 *
 * Reclamation is generational, mirroring the code cache's flush
 * counter: the arena is bump-allocated, and when it fills up reset()
 * bumps the generation and rewinds the bump pointer. Compiled traces
 * stamp the generation they were emitted under; an entry stub whose
 * stamp no longer matches generation() must not be called (the bytes
 * may have been reused) and the owning trace is lazily recompiled.
 */

#ifndef HIPSTR_VM_JIT_ARENA_HH
#define HIPSTR_VM_JIT_ARENA_HH

#include <cstddef>
#include <cstdint>

namespace hipstr::jit
{

class ExecArena
{
  public:
    ExecArena() = default;
    ~ExecArena();

    ExecArena(const ExecArena &) = delete;
    ExecArena &operator=(const ExecArena &) = delete;

    /**
     * Map @p bytes of RX memory (rounded up to whole pages). Returns
     * false when the platform cannot provide executable mappings; the
     * JIT then stays disabled. The fresh arena is left inside an open
     * write bracket — call endWrite() after the first compile.
     */
    bool init(size_t bytes);

    bool valid() const { return _base != nullptr; }
    const uint8_t *base() const { return _base; }
    size_t capacity() const { return _cap; }
    size_t used() const { return _used; }
    uint64_t generation() const { return _gen; }

    /** Open a write bracket (no syscall). Safe points only. */
    void beginWrite();
    /**
     * Close the bracket: return the pages alloc() made writable to
     * RX (code becomes callable).
     */
    void endWrite();

    /**
     * Bump-allocate @p bytes (16-byte aligned) for code about to be
     * copied in, flipping the pages it spans to RW; requires an open
     * bracket. Returns nullptr when the arena is full — the caller
     * resets and retries.
     */
    uint8_t *alloc(size_t bytes);

    /**
     * Discard every compiled trace: bump the generation and rewind
     * the bump pointer (no syscall). Requires an open bracket and a
     * safe point (no JIT frame live anywhere in this VM).
     */
    void reset();

  private:
    uint8_t *_base = nullptr;
    size_t _cap = 0;
    size_t _used = 0;
    size_t _page = 0;
    uint64_t _gen = 1; ///< 0 is the never-compiled stamp on traces
    bool _writable = false; ///< inside a beginWrite/endWrite bracket
    /** Page-aligned [_rwLo, _rwHi) flipped RW in this bracket. */
    size_t _rwLo = 0;
    size_t _rwHi = 0;
};

} // namespace hipstr::jit

#endif // HIPSTR_VM_JIT_ARENA_HH
