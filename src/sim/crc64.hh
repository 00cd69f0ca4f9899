/**
 * @file
 * CRC-64 integrity checksums for persistent cache blobs.
 *
 * The variant is CRC-64/XZ (ECMA-182 polynomial, reflected, init and
 * xorout ~0) — the same parameterization the joernblog crc64 and the
 * xz container use, so blobs written here are checkable with any
 * standard CRC-64/XZ tool. The check value (CRC of the ASCII bytes
 * "123456789") is 0x995DC9BBDF1939FA; tests/test_disk_cache.cc pins
 * it along with further known-answer vectors.
 *
 * The update function chains zlib-style: pass 0 for the first call
 * and the previous return value to continue — the pre/post
 * inversions compose so that chained calls equal one call over the
 * concatenation.
 *
 * Inputs of 64 bytes or more are folded with carry-less multiplies
 * (PCLMULQDQ, after Gopal et al., Intel 2009) on x86-64 hosts that
 * have them, picked at run time; the bytewise table loop takes the
 * rest, and everything on other hosts. Both give the same value, so
 * blobs verify across builds and hosts; the same test file checks
 * every length up to 1 KiB against a bit-at-a-time reference.
 */

#ifndef SER_SIM_CRC64_HH
#define SER_SIM_CRC64_HH

#include <cstddef>
#include <cstdint>

namespace ser
{

/** CRC-64/XZ over [data, data + len), chained from 'crc' (use 0 to
 * start). */
std::uint64_t crc64(std::uint64_t crc, const void *data,
                    std::size_t len);

} // namespace ser

#endif // SER_SIM_CRC64_HH
