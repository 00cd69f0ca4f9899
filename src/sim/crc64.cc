#include "crc64.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define SER_CRC64_CLMUL 1
#endif

namespace ser
{

namespace
{

/** Reflected ECMA-182 polynomial (0x42F0E1EBA9EA3693 bit-reversed). */
constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ull;

struct Crc64Table
{
    std::uint64_t entries[256];

    constexpr Crc64Table() : entries()
    {
        for (std::uint32_t byte = 0; byte < 256; ++byte) {
            std::uint64_t crc = byte;
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc >> 1) ^ (crc & 1 ? kPoly : 0);
            entries[byte] = crc;
        }
    }
};

constexpr Crc64Table kTable;

/** The bytewise loop over the raw register (no pre/post inversion). */
std::uint64_t
crcBytes(std::uint64_t reg, const unsigned char *p, std::size_t len)
{
    while (len--)
        reg = (reg >> 8) ^ kTable.entries[(reg ^ *p++) & 0xff];
    return reg;
}

#if SER_CRC64_CLMUL

/** x^n mod P, bit-reflected like the register: bit 63 is x^0, and a
 * multiply by x is one step of the bitwise CRC. */
constexpr std::uint64_t
xPowModP(unsigned n)
{
    std::uint64_t r = 1ull << 63;
    while (n--)
        r = (r >> 1) ^ (r & 1 ? kPoly : 0);
    return r;
}

/**
 * Multiplier pairs that move a 16-byte block D bits further along the
 * message: D = 512 for the four-accumulator stride, 128 for one. The
 * low lane holds the block's first 8 bytes, its high-degree half, so
 * it takes x^(D + 64); the high lane takes x^D. Each exponent is one
 * less because the carry-less product of two reflected 64-bit values
 * lands one bit low in the reflected 128-bit result.
 */
constexpr std::uint64_t kFold512Lo = xPowModP(512 + 64 - 1);
constexpr std::uint64_t kFold512Hi = xPowModP(512 - 1);
constexpr std::uint64_t kFold128Lo = xPowModP(128 + 64 - 1);
constexpr std::uint64_t kFold128Hi = xPowModP(128 - 1);
static_assert(kFold128Lo == 0xe05dd497ca393ae4ull &&
                  kFold128Hi == 0xdabe95afc7875f40ull,
              "fold multipliers disagree with CRC-64/XZ");

__attribute__((target("pclmul,sse4.1"))) __m128i
fold(__m128i acc, __m128i k, __m128i next)
{
    __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
    __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

__attribute__((target("pclmul,sse4.1"))) __m128i
load(const unsigned char *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/**
 * Gopal et al.'s carry-less-multiply folding (Intel, 2009) over the
 * first 'len' bytes (a multiple of 16, at least 64): four
 * accumulators take 64 bytes per step, then one takes 16. The
 * register is XORed into the first 8 bytes, which for a reflected
 * CRC is the same as starting from it. The last accumulator is
 * congruent to everything consumed, so the bytewise loop over its 16
 * bytes from a zero register yields the register, with no Barrett
 * reduction.
 */
__attribute__((target("pclmul,sse4.1"))) std::uint64_t
crcFold(std::uint64_t reg, const unsigned char *p, std::size_t len)
{
    const __m128i k512 = _mm_set_epi64x(
        static_cast<long long>(kFold512Hi),
        static_cast<long long>(kFold512Lo));
    const __m128i k128 = _mm_set_epi64x(
        static_cast<long long>(kFold128Hi),
        static_cast<long long>(kFold128Lo));

    __m128i x0 = _mm_xor_si128(
        load(p), _mm_cvtsi64_si128(static_cast<long long>(reg)));
    __m128i x1 = load(p + 16);
    __m128i x2 = load(p + 32);
    __m128i x3 = load(p + 48);
    p += 64;
    len -= 64;
    for (; len >= 64; p += 64, len -= 64) {
        x0 = fold(x0, k512, load(p));
        x1 = fold(x1, k512, load(p + 16));
        x2 = fold(x2, k512, load(p + 32));
        x3 = fold(x3, k512, load(p + 48));
    }
    x0 = fold(x0, k128, x1);
    x0 = fold(x0, k128, x2);
    x0 = fold(x0, k128, x3);
    for (; len >= 16; p += 16, len -= 16)
        x0 = fold(x0, k128, load(p));

    unsigned char acc[16];
    _mm_storeu_si128(reinterpret_cast<__m128i *>(acc), x0);
    return crcBytes(0, acc, sizeof(acc));
}

#endif // SER_CRC64_CLMUL

} // namespace

std::uint64_t
crc64(std::uint64_t crc, const void *data, std::size_t len)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint64_t reg = ~crc;
#if SER_CRC64_CLMUL
    if (len >= 64 && __builtin_cpu_supports("pclmul") &&
        __builtin_cpu_supports("sse4.1"))
    {
        std::size_t folded = len & ~std::size_t{15};
        reg = crcFold(reg, p, folded);
        p += folded;
        len -= folded;
    }
#endif
    return ~crcBytes(reg, p, len);
}

} // namespace ser
