/**
 * @file
 * Byte-level serialization for checkpoints and the record/replay
 * journal (src/replay). Fixed-width little-endian encoding so
 * journals and checkpoint images are portable across hosts; every
 * read is bounds-checked and throws a typed SerializeError instead
 * of reading garbage, which is what turns a truncated or bit-flipped
 * journal into a clean diagnostic rather than a diverged replay.
 */

#ifndef HIPSTR_SUPPORT_SERIALIZE_HH
#define HIPSTR_SUPPORT_SERIALIZE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace hipstr
{

/** Why a deserialization failed. */
enum class SerializeErrc
{
    Truncated, ///< read past the end of the buffer
    Corrupt,   ///< decoded a value no writer can produce
};

/** Thrown by ByteReader on malformed input. */
class SerializeError : public std::runtime_error
{
  public:
    SerializeError(SerializeErrc code, const std::string &what)
        : std::runtime_error(what), _code(code)
    {
    }

    SerializeErrc code() const { return _code; }

  private:
    SerializeErrc _code;
};

/** Append-only little-endian byte sink. */
class ByteWriter
{
  public:
    void u8(uint8_t v) { _buf.push_back(v); }

    void
    u16(uint16_t v)
    {
        u8(uint8_t(v));
        u8(uint8_t(v >> 8));
    }

    void
    u32(uint32_t v)
    {
        u16(uint16_t(v));
        u16(uint16_t(v >> 16));
    }

    void
    u64(uint64_t v)
    {
        u32(uint32_t(v));
        u32(uint32_t(v >> 32));
    }

    /** IEEE-754 bit pattern; bit-exact round trip. */
    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void boolean(bool v) { u8(v ? 1 : 0); }

    void
    bytes(const uint8_t *p, size_t n)
    {
        _buf.insert(_buf.end(), p, p + n);
    }

    /** u32 length prefix + raw bytes. */
    void
    str(const std::string &s)
    {
        u32(uint32_t(s.size()));
        bytes(reinterpret_cast<const uint8_t *>(s.data()), s.size());
    }

    const std::vector<uint8_t> &data() const { return _buf; }
    size_t size() const { return _buf.size(); }

  private:
    std::vector<uint8_t> _buf;
};

/** Bounds-checked little-endian byte source over a borrowed buffer. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *p, size_t len) : _p(p), _len(len) {}

    explicit ByteReader(const std::vector<uint8_t> &v)
        : _p(v.data()), _len(v.size())
    {
    }

    uint8_t
    u8()
    {
        need(1);
        return _p[_off++];
    }

    uint16_t u16() { return little<uint16_t>(); }
    uint32_t u32() { return little<uint32_t>(); }
    uint64_t u64() { return little<uint64_t>(); }

    double
    f64()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    bool
    boolean()
    {
        uint8_t v = u8();
        if (v > 1)
            throw SerializeError(SerializeErrc::Corrupt,
                                 "boolean byte out of range");
        return v != 0;
    }

    void
    bytes(uint8_t *out, size_t n)
    {
        need(n);
        if (n != 0) // out may be null for an empty buffer
            std::memcpy(out, _p + _off, n);
        _off += n;
    }

    std::string
    str()
    {
        uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char *>(_p + _off), n);
        _off += n;
        return s;
    }

    /** Throw Truncated unless @p n more bytes are available. */
    void
    need(size_t n) const
    {
        if (n > _len - _off)
            throw SerializeError(SerializeErrc::Truncated,
                                 "read past end of buffer");
    }

    size_t remaining() const { return _len - _off; }
    size_t offset() const { return _off; }
    bool atEnd() const { return _off == _len; }
    /** Borrowed pointer to the current read position. */
    const uint8_t *ptr() const { return _p + _off; }

    /** Skip @p n bytes (bounds-checked). */
    void
    skip(size_t n)
    {
        need(n);
        _off += n;
    }

  private:
    /** The next sizeof(T) bytes as a little-endian integer. */
    template <class T>
    T
    little()
    {
        need(sizeof(T));
        T v = 0;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(&v, _p + _off, sizeof(T));
        } else {
            for (size_t i = 0; i < sizeof(T); ++i)
                v |= T(T(_p[_off + i]) << (8 * i));
        }
        _off += sizeof(T);
        return v;
    }

    const uint8_t *_p;
    size_t _len;
    size_t _off = 0;
};

// ---------------------------------------------------------------
// Checkpoint archives.
//
// A checkpointed type names its fields once, in a transfer function
// templated on the archive: `template <class A> void transfer(A &a)`.
// SaveArchive writes each field; LoadArchive reads it back into the
// same member and validates it on the way in, so every rule below is
// written once, here, instead of once per type:
//
//  - bool, the fixed-width unsigned integers, int32_t and double
//    travel at their declared width;
//  - an enum travels as one byte and must not exceed the enumerator
//    lastEnumerator(E{}) names (found by argument-dependent lookup,
//    declared next to the enum);
//  - std::array travels element by element, std::string with a u32
//    length prefix;
//  - any other class travels through its own transfer(a, value)
//    field list (argument-dependent lookup);
//  - a length-prefixed sequence names its prefix width (seq32 or
//    seq64), and a loaded count is checked against the bytes left
//    before anything is allocated: every element takes at least one.
//    A map travels as (key, value) pairs in its iteration order and
//    refuses a duplicate key;
//  - expect() writes a value the loading side already knows (a pid,
//    an ISA, a table geometry) and refuses a checkpoint that differs.
//
// Violations throw SerializeError: Truncated when the bytes run out
// (a count beyond them included), Corrupt for a value no writer can
// produce. A load that throws leaves its object partly restored: load
// it again or discard it. Code that genuinely differs by direction
// (flushes before a load, sorted emission of unordered containers)
// sits inside the one transfer function behind
// `if constexpr (A::kLoading)`.
// ---------------------------------------------------------------

/** Named in a field list for members deliberately not checkpointed. */
template <class... T>
void
notCheckpointed(const T &...)
{
}

/** Serializes the fields a transfer function names. */
class SaveArchive
{
  public:
    static constexpr bool kLoading = false;

    explicit SaveArchive(ByteWriter &w) : _w(w) {}

    template <class... T>
    void
    operator()(const T &...fields)
    {
        (put(fields), ...);
    }

    /** A u32 or u64 count, then each element through @p each, or
     *  through the element's own rule when none is given. @{ */
    template <class C, class... F>
    void seq32(C &c, F &&...each) { seq<uint32_t>(c, each...); }
    template <class C, class... F>
    void seq64(C &c, F &&...each) { seq<uint64_t>(c, each...); }
    /** @} */

    template <class T>
    void expect(const T &value, const char *) { put(value); }
    /** A loading-side validity condition: nothing to do on save. */
    void check(bool, const char *) {}
    /** @p n raw bytes (a memory page). */
    void bytes(const uint8_t *p, size_t n) { _w.bytes(p, n); }
    /** A nested object with its own saveState(); any further
     *  arguments are for its loadState() only. */
    template <class T, class... X>
    void object(const T &obj, X &&...) { obj.saveState(_w); }

  private:
    template <class N, class C, class... F>
    void
    seq(C &c, F &...each)
    {
        put(static_cast<N>(c.size()));
        if constexpr (std::is_same_v<C, std::vector<uint8_t>>) {
            _w.bytes(c.data(), c.size());
        } else {
            for (auto &e : c) {
                if constexpr (sizeof...(F) == 0)
                    put(e);
                else
                    (each(e), ...);
            }
        }
    }

    void put(bool v) { _w.boolean(v); }
    void put(uint8_t v) { _w.u8(v); }
    void put(uint32_t v) { _w.u32(v); }
    void put(uint64_t v) { _w.u64(v); }
    void put(int32_t v) { _w.u32(static_cast<uint32_t>(v)); }
    void put(double v) { _w.f64(v); }
    void put(const std::string &s) { _w.str(s); }

    template <class E>
        requires std::is_enum_v<E>
    void put(E e) { _w.u8(static_cast<uint8_t>(e)); }

    template <class T, size_t N>
    void
    put(const std::array<T, N> &arr)
    {
        for (const T &e : arr)
            put(e);
    }

    template <class T>
        requires std::is_class_v<T>
    void put(const T &obj) { transfer(*this, const_cast<T &>(obj)); }

    ByteWriter &_w;
};

/** Deserializes and validates the fields a transfer function names. */
class LoadArchive
{
  public:
    static constexpr bool kLoading = true;

    explicit LoadArchive(ByteReader &r) : _r(r) {}

    template <class... T>
    void
    operator()(T &...fields)
    {
        (get(fields), ...);
    }

    /** Fill @p c, cleared first, from a u32 or u64 count and each
     *  element through @p each or its own rule. @{ */
    template <class C, class... F>
    void seq32(C &c, F &&...each) { seq<uint32_t>(c, each...); }
    template <class C, class... F>
    void seq64(C &c, F &&...each) { seq<uint64_t>(c, each...); }
    /** @} */

    template <class T>
    void
    expect(const T &value, const char *what)
    {
        T got{};
        get(got);
        check(got == value, what);
    }

    void
    check(bool ok, const char *what)
    {
        if (!ok)
            throw SerializeError(SerializeErrc::Corrupt, what);
    }

    void bytes(uint8_t *p, size_t n) { _r.bytes(p, n); }
    template <class T, class... X>
    void
    object(T &obj, X &&...load_args)
    {
        obj.loadState(_r, load_args...);
    }

  private:
    template <class N, class C, class... F>
    void
    seq(C &c, F &...each)
    {
        N count{};
        get(count);
        // No element is smaller than one byte.
        if (count > _r.remaining())
            throw SerializeError(SerializeErrc::Truncated,
                                 "length prefix exceeds checkpoint");
        c.clear();
        if constexpr (std::is_same_v<C, std::vector<uint8_t>>) {
            c.resize(count);
            _r.bytes(c.data(), count);
        } else if constexpr (requires { typename C::mapped_type; }) {
            // A map's element is a (key, value) pair it must not
            // already hold.
            for (N i = 0; i < count; ++i) {
                std::pair<typename C::key_type, typename C::mapped_type>
                    e{};
                element(e, each...);
                check(c.emplace(std::move(e)).second,
                      "duplicate key in checkpoint");
            }
        } else {
            for (N i = 0; i < count; ++i) {
                typename C::value_type e{};
                element(e, each...);
                c.push_back(std::move(e));
            }
        }
    }

    template <class T, class... F>
    void
    element(T &e, F &...each)
    {
        if constexpr (sizeof...(F) == 0)
            get(e);
        else
            (each(e), ...);
    }

    void get(bool &v) { v = _r.boolean(); }
    void get(uint8_t &v) { v = _r.u8(); }
    void get(uint32_t &v) { v = _r.u32(); }
    void get(uint64_t &v) { v = _r.u64(); }
    void get(int32_t &v) { v = static_cast<int32_t>(_r.u32()); }
    void get(double &v) { v = _r.f64(); }
    void get(std::string &s) { s = _r.str(); }

    template <class E>
        requires std::is_enum_v<E>
    void
    get(E &e)
    {
        constexpr auto last = static_cast<uint64_t>(lastEnumerator(E{}));
        static_assert(last <= 0xff, "enums travel as one byte");
        uint8_t v = _r.u8();
        check(v <= last, "enum value out of range");
        e = static_cast<E>(v);
    }

    template <class T, size_t N>
    void
    get(std::array<T, N> &arr)
    {
        for (T &e : arr)
            get(e);
    }

    template <class T>
        requires std::is_class_v<T>
    void get(T &obj) { transfer(*this, obj); }

    ByteReader &_r;
};

/**
 * Defines Type::saveState() and Type::loadState() over the private
 * field list `template <class A> void transfer(A &a)`. The save
 * archive only reads, so casting away const never writes.
 */
#define HIPSTR_CHECKPOINT_VIA_TRANSFER(Type)                          \
    void Type::saveState(ByteWriter &w) const                          \
    {                                                                 \
        SaveArchive a(w);                                             \
        const_cast<Type *>(this)->transfer(a);                        \
    }                                                                 \
    void Type::loadState(ByteReader &r)                               \
    {                                                                 \
        LoadArchive a(r);                                             \
        transfer(a);                                                  \
    }

} // namespace hipstr

#endif // HIPSTR_SUPPORT_SERIALIZE_HH
