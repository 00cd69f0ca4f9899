/**
 * @file
 * The persistent tier of the RunCache: a content-addressed blob
 * store under --cache-dir.
 *
 * Each cached artifact is one file,
 *
 *     <dir>/<section>/<crc64(key) as 16 hex digits>.blob
 *
 * framed as:
 *
 *     offset  size  field
 *     0       4     magic "SERB"
 *     4       4     container format version (kFormatVersion, u32)
 *     8       4     payload schema version (codec::kSchemaVersion)
 *     12      4     key length (u32)
 *     16      8     payload length (u64)
 *     24      8     CRC-64/XZ over every byte from offset 32 on:
 *                   key, padding and payload
 *     32      -     key bytes (the full RunCache section key)
 *     ...     -     zero bytes up to the next multiple of
 *                   codec::kColumnAlignment (64)
 *     P       -     payload bytes (cache_codec encoding), P a
 *                   multiple of codec::kColumnAlignment
 *
 * The aligned payload offset lets the codec view the payload's
 * columns in the page-aligned mapping instead of copying them.
 *
 * The file name is only a bucket: load() compares the stored key
 * byte-for-byte against the requested one, so a (astronomically
 * unlikely) CRC64 filename collision reads as a clean miss, never as
 * wrong data.
 *
 * Integrity and crash-safety:
 *  - store() writes to a process/thread-unique temp name in the same
 *    directory and rename(2)s it into place, so readers only ever
 *    see complete blobs and concurrent writers of the same key
 *    last-write-win without mixing bytes. A crash mid-write leaves
 *    only a temp file, never a half-visible blob.
 *  - store() takes the payload as byte ranges and copies none of
 *    them: it chains the CRC over the ranges in order, then writes
 *    the header, key, padding and ranges with one writev(2) loop
 *    (resumed after EINTR and short writes, and in batches of at most
 *    IOV_MAX ranges). The file holds the ranges' concatenation, as if
 *    the payload had been one buffer.
 *  - load() mmaps the blob and verifies magic, versions, framing
 *    lengths against the file size, and the CRC before handing the
 *    payload to the decoder. Version mismatches are clean misses
 *    (stale schema after an upgrade); any other integrity failure —
 *    truncation, bit flips, a decoder rejection — quarantines the
 *    file (rename to *.quarantine) so it cannot mis-hit again and
 *    is preserved for inspection.
 *  - The decoder may keep views of the payload: it receives a
 *    shared owner of the mapping, which is unmapped when the last
 *    view goes. A blob is therefore never rewritten in place: store()
 *    and quarantine both rename, so a live view keeps reading the
 *    bytes it verified (the old inode) whatever happens to the path.
 *
 * The singleton is disabled until setDirectory() is called with a
 * non-empty path (BenchOptions wires --cache-dir to it). All methods
 * are thread-safe.
 */

#ifndef SER_HARNESS_DISK_CACHE_HH
#define SER_HARNESS_DISK_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

namespace ser
{
namespace harness
{

class DiskCache
{
  public:
    static constexpr std::uint32_t kFormatVersion = 2;

    static DiskCache &instance();

    /**
     * Point the store at a directory, created with any missing
     * parents (per-section subdirectories follow on first store). An
     * empty path disables the disk tier. schema_version is stamped
     * into every blob and checked on load; pass codec::kSchemaVersion.
     * Returns false, and leaves the tier disabled, when 'dir' is not
     * and cannot be made a directory (a regular file, say).
     */
    bool setDirectory(const std::string &dir,
                      std::uint32_t schema_version);

    bool enabled() const;
    std::string directory() const;

    enum class LoadStatus
    {
        Disabled,   ///< no directory configured
        NoEntry,    ///< no blob for this key (or filename-bucket
                    ///< collision with a different key)
        Stale,      ///< format/schema version mismatch: clean miss
        Corrupt,    ///< integrity failure; blob quarantined
        Ok,
    };

    struct LoadResult
    {
        LoadStatus status = LoadStatus::Disabled;
        std::uint64_t payloadBytes = 0;  ///< valid when status == Ok
    };

    /** The decoder a load() runs on a verified payload: (payload,
     * length, owner of the mapping). The payload stays mapped while
     * any copy of the owner lives; returning false rejects it. */
    using Decode = std::function<bool(
        const void *, std::size_t, const std::shared_ptr<const void> &)>;

    /**
     * Look up (section, key). On an integrity-clean hit, 'decode' is
     * invoked once with the mmapped payload; if it returns false the
     * blob is treated as corrupt (quarantined, status Corrupt).
     */
    LoadResult load(const std::string &section, const std::string &key,
                    const Decode &decode);

    /** A payload as byte ranges in order; the payload is their
     * concatenation. */
    using Ranges = std::span<const std::span<const std::byte>>;

    /**
     * Publish a blob for (section, key); atomic and last-write-wins.
     * The ranges are only read, and only during the call. Returns the
     * total file bytes written, 0 when disabled or on an I/O failure
     * (which is non-fatal: the cache just stays cold).
     */
    std::uint64_t store(const std::string &section,
                        const std::string &key, Ranges payload);

    /** The blob path a key maps to (for tests that corrupt blobs). */
    std::string blobPath(const std::string &section,
                         const std::string &key) const;

  private:
    DiskCache() = default;
};

} // namespace harness
} // namespace ser

#endif // SER_HARNESS_DISK_CACHE_HH
