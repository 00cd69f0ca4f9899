/**
 * @file
 * Binary serialization of the RunCache artifact types, for the
 * persistent disk tier (harness/disk_cache.hh).
 *
 * The format is a flat little-endian byte stream: scalar fields in
 * declaration order, doubles as their IEEE-754 bit patterns,
 * containers as a u64 count followed by elements, vector<bool>
 * bit-packed into u64 words. Vectors of padding-free elements (the
 * SoA incarnation columns, interval samples, AVF epochs) are
 * bulk-copied; structs with internal padding are written
 * field-by-field so the encoded bytes — and therefore the blob CRC —
 * never depend on indeterminate padding.
 *
 * Programs round-trip through StaticInst::encode()/decode(): the
 * canonical 64-bit encoding word is the only per-instruction state,
 * so equal-content programs encode to equal bytes (matching
 * isa::Program::contentHash's content addressing).
 *
 * kSchemaVersion must be bumped whenever any serialized struct
 * changes shape; the disk cache folds it into the blob header so a
 * stale blob misses cleanly instead of mis-decoding.
 *
 * Decoders are total: any truncated or structurally impossible input
 * returns false and leaves *out unspecified (the disk cache then
 * treats the blob as corrupt). They never read past [data, data+len).
 */

#ifndef SER_HARNESS_CACHE_CODEC_HH
#define SER_HARNESS_CACHE_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "avf/avf.hh"
#include "avf/deadness.hh"
#include "faults/campaign_engine.hh"
#include "harness/run_cache.hh"

namespace ser
{
namespace harness
{
namespace codec
{

/** Bump on any change to the serialized shape of the types below. */
constexpr std::uint32_t kSchemaVersion = 4;

std::string encodeSimProducts(const SimProducts &products);
std::string encodeDeadness(const avf::DeadnessResult &result);
std::string encodeAvf(const avf::AvfResult &result);
std::string encodeCampaign(const faults::CampaignSample &sample);

/** Decoders require the whole buffer to be consumed exactly. After a
 * successful decodeSimProducts, out->trace.program points at
 * out->program (the bundle owns it, as on the compute path). */
bool decodeSimProducts(const void *data, std::size_t len,
                       SimProducts *out);
bool decodeDeadness(const void *data, std::size_t len,
                    avf::DeadnessResult *out);
bool decodeAvf(const void *data, std::size_t len,
               avf::AvfResult *out);
bool decodeCampaign(const void *data, std::size_t len,
                    faults::CampaignSample *out);

} // namespace codec
} // namespace harness
} // namespace ser

#endif // SER_HARNESS_CACHE_CODEC_HH
