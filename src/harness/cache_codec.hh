/**
 * @file
 * Binary serialization of the RunCache artifact types, for the
 * persistent disk tier (harness/disk_cache.hh).
 *
 * The format is a flat little-endian byte stream: scalar fields,
 * doubles as their IEEE-754 bit patterns, bools and enums as one
 * byte each, containers as a u64 count followed by elements. Each
 * blob's field order is stated once, in cache_codec.cc: one walk per
 * stored type (the program's parts, the sim bundle, deadness, AVF
 * and the campaign sample), which the encoder runs over the value it
 * stores and the decoder over the value it fills. Every bulk array
 * is a column of padding-free elements (the commit records, the SoA
 * incarnation columns, the deadness columns with the returnFdd bits
 * packed into u64 words, the program's data words, interval samples,
 * the AVF exposure and epoch columns): a u64 count, zero bytes up to
 * the next kColumnAlignment offset of the payload, and the raw
 * elements. Records whose fields each need a check (the campaign
 * sample's enums and bools) are written field by field, so the
 * encoded bytes — and therefore the blob CRC — never depend on
 * indeterminate padding.
 *
 * Zero-copy decode: the sim, deadness and AVF decoders do not copy
 * their columns. Each becomes a sim::Column viewing the payload in
 * place, kept alive by the 'owner' the caller passes (the disk tier
 * passes its blob mapping, so a served value holds the mapping until
 * the last view goes). Every check runs before the decoder returns,
 * so no caller sees a view of bytes that failed one. The payload
 * must start at a kColumnAlignment-aligned address (the disk tier's
 * blobs put it there); a column that would land misaligned for its
 * element type fails the decode. Only the campaign records, the
 * program's instruction words and labels, the strings and the
 * scalars are copied; the prof counter codec.decode_copied_bytes
 * totals them over successful decodes.
 *
 * Zero-copy encode: an encoder returns a Payload, the payload's bytes
 * as ranges in payload order. The small fields
 * (scalars, counts, strings, instruction words and the
 * column padding) are copied into one small buffer the Payload owns;
 * each bulk column is a range borrowed from the value being encoded,
 * which must stay alive and unchanged while the ranges are read. The
 * disk tier checksums and writes the ranges where they lie, so
 * storing a 20 MB trace copies tens of kilobytes. The ranges'
 * concatenation is the byte stream described above, so how a payload
 * is split into ranges never shows in a blob.
 *
 * Programs round-trip through StaticInst::encode()/decode(): the
 * canonical 64-bit encoding word is the only per-instruction state,
 * so equal-content programs encode to equal bytes (matching
 * isa::Program::contentHash's content addressing). The decoder
 * collects the parts, then constructs the program once.
 *
 * kSchemaVersion must be bumped whenever any serialized struct
 * changes shape; the disk cache folds it into the blob header so a
 * stale blob misses cleanly instead of mis-decoding.
 *
 * Decoders are total: any truncated or structurally impossible input
 * returns false and leaves *out unspecified (the disk cache then
 * treats the blob as corrupt). They never read past [data, data+len),
 * and they size nothing from a count that the bytes left could not
 * hold.
 */

#ifndef SER_HARNESS_CACHE_CODEC_HH
#define SER_HARNESS_CACHE_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

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
constexpr std::uint32_t kSchemaVersion = 7;

/** Every bulk column starts at a multiple of this payload offset. */
constexpr std::size_t kColumnAlignment = 64;

/** An encoded payload: its bytes are the concatenation of 'ranges'.
 * Some ranges point into 'owned' (the copied small fields), the rest
 * into the encoded value. Move-only, since a copy's ranges would
 * still point into the original's buffer. */
struct Payload
{
    Payload() = default;
    Payload(Payload &&) = default;
    Payload &operator=(Payload &&) = default;
    Payload(const Payload &) = delete;
    Payload &operator=(const Payload &) = delete;

    std::vector<std::span<const std::byte>> ranges;
    std::vector<std::byte> owned;
};

/** One overload per stored type; RunCache stores exactly the types
 * these accept. The payload borrows the value's bulk columns. */
Payload encode(const SimProducts &products);
Payload encode(const avf::DeadnessResult &result);
Payload encode(const avf::AvfResult &result);
Payload encode(const faults::CampaignSample &sample);

/** Decoders require the whole buffer to be consumed exactly. After a
 * successful sim decode, out->trace.program points at out->program
 * (the bundle owns it, as on the compute path). The sim, deadness
 * and AVF columns view [data, data+len), which 'owner' must keep
 * alive and unchanged; the campaign sample copies every field. */
bool decode(const void *data, std::size_t len,
            const std::shared_ptr<const void> &owner, SimProducts *out);
bool decode(const void *data, std::size_t len,
            const std::shared_ptr<const void> &owner,
            avf::DeadnessResult *out);
bool decode(const void *data, std::size_t len,
            const std::shared_ptr<const void> &owner,
            avf::AvfResult *out);
bool decode(const void *data, std::size_t len,
            const std::shared_ptr<const void> &owner,
            faults::CampaignSample *out);

} // namespace codec
} // namespace harness
} // namespace ser

#endif // SER_HARNESS_CACHE_CODEC_HH
