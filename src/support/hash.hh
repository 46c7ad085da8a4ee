/**
 * @file
 * 64-bit FNV-1a, the one hash behind every run signature, sync
 * signature and config hash. Values fold byte-wise, little-endian,
 * so a signature never depends on host byte order.
 */

#ifndef HIPSTR_SUPPORT_HASH_HH
#define HIPSTR_SUPPORT_HASH_HH

#include <cstddef>
#include <cstdint>

namespace hipstr
{

/** FNV-1a offset basis: the starting value of every fold. */
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** Fold @p n bytes at @p p into @p h. */
inline void
foldBytes(uint64_t &h, const uint8_t *p, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

/** Fold the eight bytes of @p v, least significant first. */
inline void
fold64(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
}

} // namespace hipstr

#endif // HIPSTR_SUPPORT_HASH_HH
