#include "disk_cache.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <system_error>
#include <vector>

#include "harness/cache_codec.hh"
#include "sim/crc64.hh"
#include "sim/prof.hh"

namespace ser
{
namespace harness
{
namespace
{

constexpr char kMagic[4] = {'S', 'E', 'R', 'B'};
constexpr std::size_t kHeaderBytes = 32;
/** The payload's file offset for a key of 'key_len' bytes: aligned
 * like the codec's columns, so they land aligned in the mapping. */
std::uint64_t
payloadOffset(std::uint64_t key_len)
{
    constexpr std::uint64_t a = codec::kColumnAlignment;
    return (kHeaderBytes + key_len + a - 1) / a * a;
}

struct BlobHeader
{
    char magic[4];
    std::uint32_t formatVersion;
    std::uint32_t schemaVersion;
    std::uint32_t keyLen;
    std::uint64_t payloadLen;
    std::uint64_t crc;
};
static_assert(sizeof(BlobHeader) == kHeaderBytes,
              "blob header layout drifted");

struct State
{
    mutable std::mutex lock;
    std::string dir;
    std::uint32_t schemaVersion = 0;
    std::atomic<std::uint64_t> tempSeq{0};
};

State &
state()
{
    // Leaked like RunCache::instance(): atexit snapshots may read
    // after main returns.
    static State *s = new State;
    return *s;
}

bool
makeDir(const std::string &path)
{
    return ::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST;
}

std::string
hexKeyHash(const std::string &key)
{
    std::uint64_t h = crc64(0, key.data(), key.size());
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
quarantine(const std::string &path)
{
    // Preserved for inspection; a second corrupt blob at the same
    // path just replaces the first quarantine.
    ::rename(path.c_str(), (path + ".quarantine").c_str());
}

} // namespace

DiskCache &
DiskCache::instance()
{
    static DiskCache *cache = new DiskCache;
    return *cache;
}

bool
DiskCache::setDirectory(const std::string &dir,
                        std::uint32_t schema_version)
{
    std::error_code error;
    if (!dir.empty())
        std::filesystem::create_directories(dir, error);
    const bool usable =
        dir.empty() || std::filesystem::is_directory(dir, error);
    State &s = state();
    std::lock_guard<std::mutex> guard(s.lock);
    s.dir = usable ? dir : "";
    s.schemaVersion = schema_version;
    return usable;
}

bool
DiskCache::enabled() const
{
    State &s = state();
    std::lock_guard<std::mutex> guard(s.lock);
    return !s.dir.empty();
}

std::string
DiskCache::directory() const
{
    State &s = state();
    std::lock_guard<std::mutex> guard(s.lock);
    return s.dir;
}

std::string
DiskCache::blobPath(const std::string &section,
                    const std::string &key) const
{
    State &s = state();
    std::string dir;
    {
        std::lock_guard<std::mutex> guard(s.lock);
        dir = s.dir;
    }
    return dir + "/" + section + "/" + hexKeyHash(key) + ".blob";
}

DiskCache::LoadResult
DiskCache::load(const std::string &section, const std::string &key,
                const Decode &decode)
{
    State &s = state();
    std::string dir;
    std::uint32_t schemaVersion;
    {
        std::lock_guard<std::mutex> guard(s.lock);
        dir = s.dir;
        schemaVersion = s.schemaVersion;
    }
    if (dir.empty())
        return {LoadStatus::Disabled, 0};

    std::string path =
        dir + "/" + section + "/" + hexKeyHash(key) + ".blob";
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return {LoadStatus::NoEntry, 0};

    struct stat st;
    if (::fstat(fd, &st) != 0 ||
        static_cast<std::size_t>(st.st_size) < kHeaderBytes)
    {
        ::close(fd);
        quarantine(path);
        return {LoadStatus::Corrupt, 0};
    }
    std::size_t size = static_cast<std::size_t>(st.st_size);
    // The CRC reads every byte, so map the whole file's pages in this
    // one call rather than fault them in one by one.
    void *map = ::mmap(nullptr, size, PROT_READ,
                       MAP_PRIVATE | MAP_POPULATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED)
        return {LoadStatus::NoEntry, 0};
    // The decoder's views share this owner; the last one unmaps.
    std::shared_ptr<const void> mapping(
        map, [size](const void *p) {
            ::munmap(const_cast<void *>(p), size);
        });

    const unsigned char *bytes =
        static_cast<const unsigned char *>(map);
    BlobHeader header;
    std::memcpy(&header, bytes, kHeaderBytes);

    LoadResult result{LoadStatus::Corrupt, 0};
    const std::uint64_t payloadAt = payloadOffset(header.keyLen);
    if (std::memcmp(header.magic, kMagic, 4) != 0) {
        // Not one of ours at all: corrupt.
    } else if (header.formatVersion != kFormatVersion ||
               header.schemaVersion != schemaVersion)
    {
        result.status = LoadStatus::Stale;
    } else if (header.keyLen != key.size() || payloadAt > size ||
               header.payloadLen != size - payloadAt)
    {
        // Framing disagrees with the file size: truncated or
        // garbled. (keyLen mismatch with intact framing would be a
        // filename collision, but that is indistinguishable from
        // corruption without the framing holding up, so the
        // byte-compare below handles the collision case.)
    } else if (std::memcmp(bytes + kHeaderBytes, key.data(),
                           key.size()) != 0)
    {
        result.status = LoadStatus::NoEntry;  // bucket collision
    } else {
        std::uint64_t crc = 0;
        {
            SER_PROF_SCOPE("disk_verify");
            crc = crc64(0, bytes + kHeaderBytes, size - kHeaderBytes);
        }
        if (crc == header.crc) {
            SER_PROF_SCOPE("disk_decode");
            if (decode(bytes + payloadAt,
                       static_cast<std::size_t>(header.payloadLen),
                       mapping))
                result = {LoadStatus::Ok, header.payloadLen};
        }
    }

    if (result.status == LoadStatus::Corrupt)
        quarantine(path);
    return result;
}

std::uint64_t
DiskCache::store(const std::string &section, const std::string &key,
                 Ranges payload)
{
    State &s = state();
    std::string dir;
    std::uint32_t schemaVersion;
    {
        std::lock_guard<std::mutex> guard(s.lock);
        dir = s.dir;
        schemaVersion = s.schemaVersion;
    }
    if (dir.empty())
        return 0;

    std::string sectionDir = dir + "/" + section;
    if (!makeDir(sectionDir))
        return 0;

    BlobHeader header;
    std::memcpy(header.magic, kMagic, 4);
    header.formatVersion = kFormatVersion;
    header.schemaVersion = schemaVersion;
    header.keyLen = static_cast<std::uint32_t>(key.size());
    static constexpr char zeros[codec::kColumnAlignment] = {};
    const std::size_t padding =
        payloadOffset(key.size()) - kHeaderBytes - key.size();
    std::uint64_t crc = crc64(0, key.data(), key.size());
    crc = crc64(crc, zeros, padding);
    header.payloadLen = 0;
    for (std::span<const std::byte> range : payload) {
        crc = crc64(crc, range.data(), range.size());
        header.payloadLen += range.size();
    }
    header.crc = crc;

    // The file's bytes in order; empty ranges are left out, so a
    // writev that writes nothing has failed.
    std::vector<iovec> iov;
    iov.reserve(payload.size() + 3);
    auto add = [&iov](const void *data, std::size_t len) {
        if (len)
            iov.push_back({const_cast<void *>(data), len});
    };
    add(&header, kHeaderBytes);
    add(key.data(), key.size());
    add(zeros, padding);
    for (std::span<const std::byte> range : payload)
        add(range.data(), range.size());

    // Temp name unique across processes (pid) and threads (seq);
    // same-directory so the rename is atomic on every filesystem.
    char temp[64];
    std::snprintf(temp, sizeof(temp), ".tmp.%ld.%llu",
                  static_cast<long>(::getpid()),
                  static_cast<unsigned long long>(
                      s.tempSeq.fetch_add(1)));
    std::string tempPath = sectionDir + "/" + temp;
    int fd = ::open(tempPath.c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC, 0666);
    if (fd < 0)
        return 0;

    // One writev for the whole blob, resumed after a signal or a
    // short write and batched by IOV_MAX.
    bool ok = true;
    for (std::size_t next = 0; ok && next < iov.size();) {
        const int batch = static_cast<int>(
            std::min<std::size_t>(iov.size() - next, IOV_MAX));
        ssize_t n = ::writev(fd, iov.data() + next, batch);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            ok = false;
            break;
        }
        auto done = static_cast<std::size_t>(n);
        while (next < iov.size() && done >= iov[next].iov_len)
            done -= iov[next++].iov_len;
        if (done) {
            iov[next].iov_base =
                static_cast<char *>(iov[next].iov_base) + done;
            iov[next].iov_len -= done;
        }
    }
    ok = (::close(fd) == 0) && ok;
    std::string path =
        sectionDir + "/" + hexKeyHash(key) + ".blob";
    if (!ok || ::rename(tempPath.c_str(), path.c_str()) != 0) {
        ::unlink(tempPath.c_str());
        return 0;
    }
    return payloadOffset(key.size()) + header.payloadLen;
}

} // namespace harness
} // namespace ser
