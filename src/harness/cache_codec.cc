#include "cache_codec.hh"

#include <bit>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cpu/sampler.hh"
#include "cpu/trace.hh"
#include "isa/program.hh"
#include "isa/static_inst.hh"
#include "sim/prof.hh"

namespace ser
{
namespace harness
{
namespace codec
{
namespace
{

static_assert(std::endian::native == std::endian::little,
              "cache blobs are little-endian; add byte swapping "
              "before enabling the disk cache on a big-endian host");
static_assert(std::numeric_limits<double>::is_iec559,
              "doubles are serialized as IEEE-754 bit patterns");

/** Zero bytes from payload offset 'pos' to the next column start. */
constexpr std::size_t
columnPad(std::size_t pos)
{
    return (kColumnAlignment - pos % kColumnAlignment) %
           kColumnAlignment;
}

/** A field's encoded type where it is not the field's own:
 * `c.scalar(entry, wire<std::uint64_t>)`. */
template <typename W>
constexpr std::type_identity<W> wire{};

/** Runs a walk (below) over a value and builds its Payload: small
 * fields are copied into the payload's owned buffer, bulk columns are
 * borrowed where they lie. */
class Encoder
{
  public:
    template <typename T, typename W = T>
    void scalar(const T &v, std::type_identity<W> = {})
    {
        static_assert(std::is_trivially_copyable_v<W>);
        const W w = static_cast<W>(v);
        copy(&w, sizeof(W));
    }

    void f64(const double &v) { scalar(std::bit_cast<std::uint64_t>(v)); }
    void boolean(const bool &v) { scalar(v, wire<std::uint8_t>); }

    /** A one-byte enum; 'last' bounds only the decoder. */
    template <typename E>
    void enumeration(const E &v, E) { scalar(v, wire<std::uint8_t>); }

    void str(const std::string &s)
    {
        scalar(s.size(), wire<std::uint64_t>);
        copy(s.data(), s.size());
    }

    /** An instruction as its canonical encoding word. */
    void inst(const isa::StaticInst &i) { scalar(i.encode()); }

    /** The count, then each element as 'each' walks it.
     * 'min_bytes' bounds only the decoder. */
    template <typename Seq, typename Each>
    void seq(const Seq &v, std::size_t, Each each)
    {
        scalar(v.size(), wire<std::uint64_t>);
        for (const auto &elem : v)
            each(elem);
    }

    template <typename Map, typename Each>
    void map(const Map &m, std::size_t, Each each)
    {
        scalar(m.size(), wire<std::uint64_t>);
        for (const auto &[key, value] : m)
            each(key, value);
    }

    /** Bulk column of a padding-free type (a scalar, or a record
     * whose bytes are all value bytes, so the blob never holds
     * indeterminate padding): the count, zero bytes up to the next
     * kColumnAlignment offset, then the elements, borrowed. */
    template <typename T>
    void column(const sim::Column<T> &v)
    {
        static_assert(std::has_unique_object_representations_v<T>);
        static constexpr std::byte zeros[kColumnAlignment] = {};
        scalar(v.size(), wire<std::uint64_t>);
        copy(zeros, columnPad(_size));
        if (v.empty())
            return;
        closeRun();
        _pieces.push_back({reinterpret_cast<const std::byte *>(v.data()),
                           0, v.size() * sizeof(T)});
        _size += v.size() * sizeof(T);
    }

    Payload take()
    {
        static prof::Counter copied(
            "codec.encode_copied_bytes",
            "payload bytes the disk-tier encoders copied into their "
            "own buffer; bulk columns are borrowed, not copied");
        closeRun();
        copied += _owned.size();
        Payload out;
        out.owned = std::move(_owned);
        out.ranges.reserve(_pieces.size());
        for (const Piece &piece : _pieces) {
            const std::byte *at =
                piece.borrowed ? piece.borrowed
                               : out.owned.data() + piece.offset;
            out.ranges.emplace_back(at, piece.len);
        }
        return out;
    }

  private:
    /** A borrowed range, or (borrowed null) a run of the owned
     * buffer, which may still move while it grows. */
    struct Piece
    {
        const std::byte *borrowed;
        std::size_t offset;
        std::size_t len;
    };

    void copy(const void *data, std::size_t len)
    {
        const auto *bytes = static_cast<const std::byte *>(data);
        _owned.insert(_owned.end(), bytes, bytes + len);
        _size += len;
    }

    /** End the owned run since the last borrowed range. */
    void closeRun()
    {
        if (_owned.size() > _runStart)
            _pieces.push_back({nullptr, _runStart,
                               _owned.size() - _runStart});
        _runStart = _owned.size();
    }

    std::vector<std::byte> _owned;
    std::vector<Piece> _pieces;
    std::size_t _runStart = 0;
    /** Payload bytes so far, owned and borrowed. */
    std::size_t _size = 0;
};

/** Runs a walk over a value and fills its fields from a payload: the
 * Encoder's operations, reading back what they wrote. Any failure
 * sticks, and every later read is a no-op. */
class Decoder
{
  public:
    /** 'owner' keeps [data, data+len) alive for the views column()
     * hands out. */
    Decoder(const void *data, std::size_t len,
            std::shared_ptr<const void> owner)
        : _p(static_cast<const unsigned char *>(data)), _len(len),
          _owner(std::move(owner))
    {
    }

    /** Call once, last: true if the whole payload decoded, and then
     * counts the bytes the decode copied out, every byte that no
     * view covers. */
    bool finish()
    {
        static prof::Counter copied(
            "codec.decode_copied_bytes",
            "payload bytes the disk-tier decoders copied out of "
            "verified blobs; bulk columns are viewed, not copied");
        if (!_ok || _pos != _len)
            return false;
        copied += _len - _viewed;
        return true;
    }

    template <typename T, typename W = T>
    void scalar(T &v, std::type_identity<W> = {})
    {
        static_assert(std::is_trivially_copyable_v<W>);
        W w{};
        if (take(sizeof(W)))
            std::memcpy(&w, _p + _pos - sizeof(W), sizeof(W));
        v = static_cast<T>(w);
    }

    void f64(double &v)
    {
        std::uint64_t bits = 0;
        scalar(bits);
        v = std::bit_cast<double>(bits);
    }

    void boolean(bool &v) { scalar(v, wire<std::uint8_t>); }

    /** A one-byte enum; a value past 'last' fails the decode and
     * leaves 'v' as it was. */
    template <typename E>
    void enumeration(E &v, E last)
    {
        std::uint8_t byte = 0;
        scalar(byte);
        if (byte > static_cast<std::uint8_t>(last))
            fail();
        else
            v = static_cast<E>(byte);
    }

    void str(std::string &s)
    {
        const std::uint64_t n = count(1);
        if (take(n))
            s.assign(reinterpret_cast<const char *>(_p + _pos - n),
                     static_cast<std::size_t>(n));
    }

    void inst(isa::StaticInst &i)
    {
        std::uint64_t word = 0;
        scalar(word);
        if (_ok && !isa::StaticInst::decode(word, i))
            fail();
    }

    /** 'min_bytes' is one element's smallest encoding: see count(). */
    template <typename T, typename Each>
    void seq(std::vector<T> &v, std::size_t min_bytes, Each each)
    {
        const std::uint64_t n = count(min_bytes);
        v.resize(static_cast<std::size_t>(n));
        for (T &elem : v) {
            if (!_ok)
                return;
            each(elem);
        }
    }

    /** As seq(); a key read twice fails the decode, since no encoder
     * writes one and the map could not hold it. */
    template <typename K, typename V, typename Each>
    void map(std::map<K, V> &m, std::size_t min_bytes, Each each)
    {
        const std::uint64_t n = count(min_bytes);
        for (std::uint64_t i = 0; _ok && i < n; ++i) {
            K key{};
            V value{};
            each(key, value);
            if (_ok && !m.emplace(std::move(key), value).second)
                fail();
        }
    }

    /** A bulk column viewed where it lies, kept alive by the owner:
     * its count, the zero padding up to the next kColumnAlignment
     * offset, then n elements, which must sit at an address aligned
     * for T or the decode fails. */
    template <typename T>
    void column(sim::Column<T> &c)
    {
        static_assert(std::has_unique_object_representations_v<T>);
        const std::uint64_t n = count(sizeof(T));
        const std::size_t framed = _pos;
        if (!take(columnPad(_pos)))
            return;
        const unsigned char *at = _p + _pos;
        if (!take(n * sizeof(T)))
            return;
        if (reinterpret_cast<std::uintptr_t>(at) % alignof(T) != 0) {
            fail();
            return;
        }
        _viewed += _pos - framed;
        c = sim::Column<T>(reinterpret_cast<const T *>(at),
                           static_cast<std::size_t>(n), _owner);
    }

  private:
    /** An element count that the bytes left could hold at
     * 'min_bytes' per element. A larger one fails the decode before
     * anything is sized from it, so a corrupt count never drives an
     * allocation. */
    std::uint64_t count(std::size_t min_bytes)
    {
        std::uint64_t n = 0;
        scalar(n);
        if (n > (_len - _pos) / min_bytes) {
            fail();
            return 0;
        }
        return n;
    }

    bool take(std::uint64_t n)
    {
        if (!_ok || n > _len - _pos) {
            fail();
            return false;
        }
        _pos += static_cast<std::size_t>(n);
        return true;
    }

    void fail() { _ok = false; }

    const unsigned char *_p;
    std::size_t _len;
    std::shared_ptr<const void> _owner;
    std::size_t _pos = 0;
    /** Payload bytes the views cover, their padding included. */
    std::size_t _viewed = 0;
    bool _ok = true;
};

// --- The walks: each blob's fields in payload order, run by the
// Encoder over a const value and by the Decoder over the value it
// fills. The smallest element encodings bound the decoder's counts.

/** The fields a walk visits: const for the Encoder. */
template <typename Codec, typename T>
using Fields =
    std::conditional_t<std::is_same_v<Codec, Encoder>, const T, T>;

/** A program's parts, which the decoder builds the program from. */
template <typename Codec>
void
walkProgram(Codec &c, Fields<Codec, std::vector<isa::StaticInst>> &insts,
            Fields<Codec, std::size_t> &entry,
            Fields<Codec, sim::Column<isa::DataInit>> &data,
            Fields<Codec, std::map<std::string, std::size_t>> &labels)
{
    c.seq(insts, 8, [&](auto &inst) { c.inst(inst); });
    c.scalar(entry, wire<std::uint64_t>);
    c.column(data);
    c.map(labels, 16, [&](auto &name, auto &index) {
        c.str(name);
        c.scalar(index, wire<std::uint64_t>);
    });
}

/** The sim bundle after its program; the trace's program pointer is
 * not stored. */
template <typename Codec>
void
walk(Codec &c, Fields<Codec, SimProducts> &products)
{
    auto &trace = products.trace;
    auto &inc = trace.incarnations;
    c.column(trace.commits);
    c.column(inc.staticIdx);
    c.column(inc.oracleSeq);
    c.column(inc.enqueueCycle);
    c.column(inc.issueCycle);
    c.column(inc.evictCycle);
    c.column(inc.iqEntry);
    c.column(inc.flags);
    c.scalar(trace.startCycle);
    c.scalar(trace.endCycle);
    c.scalar(trace.committedInsts);
    c.boolean(trace.programHalted);
    c.scalar(trace.iqEntries);
    c.f64(products.ipc);
    c.str(products.statsDump);
    c.str(products.statsJson);
    static_assert(sizeof(cpu::IntervalSample) == 9 * 8,
                  "IntervalSample gained fields; bump kSchemaVersion");
    c.column(products.intervals);
    c.scalar(products.poolHighWater);
    c.scalar(products.cyclesSkipped);
}

template <typename Codec>
void
walk(Codec &c, Fields<Codec, avf::DeadnessResult> &result)
{
    c.column(result.kind);
    c.column(result.overwriteDist);
    c.column(result.returnFddWords);
    c.scalar(result.numInsts);
    c.scalar(result.numDefs);
    c.scalar(result.numFddReg);
    c.scalar(result.numTddReg);
    c.scalar(result.numFddMem);
    c.scalar(result.numTddMem);
    c.scalar(result.numReturnFdd);
}

template <typename Codec>
void
walk(Codec &c, Fields<Codec, avf::AvfResult> &result)
{
    c.scalar(result.windowCycles);
    c.scalar(result.totalBitCycles);
    c.scalar(result.idle);
    c.scalar(result.exAce);
    c.scalar(result.squashedUnread);
    c.scalar(result.ace);
    c.scalar(result.aceRefined);
    for (auto &bitCycles : result.unAceRead)
        c.scalar(bitCycles);
    c.column(result.fddBitCycles);
    c.column(result.fddOverwriteDist);
    static_assert(sizeof(avf::EpochAce) == 5 * 8,
                  "EpochAce gained fields; bump kSchemaVersion");
    c.column(result.epochs);
}

template <typename Codec>
void
walk(Codec &c, Fields<Codec, faults::CampaignSample> &sample)
{
    c.seq(sample.structures, 25, [&](auto &space) {
        c.enumeration(space.structure, faults::Structure::PredRegFile);
        c.scalar(space.weight);
        c.f64(space.sdcAvf);
        c.f64(space.dueAvf);
    });
    c.scalar(sample.goldenSteps);
    c.scalar(sample.checkpoints);
    c.seq(sample.sites, 38, [&](auto &rec) {
        auto &site = rec.site;
        auto &verdict = rec.verdict;
        c.enumeration(site.structure, faults::Structure::PredRegFile);
        c.scalar(site.entry);
        c.scalar(site.bit);
        c.scalar(site.cycle);
        c.scalar(verdict.residency, wire<std::uint64_t>);
        c.scalar(verdict.inst);
        c.scalar(verdict.rerunSteps);
        c.enumeration(verdict.role, faults::BitRole::Pi);
        c.boolean(verdict.readAfter);
        c.boolean(verdict.wrongPath);
        c.boolean(verdict.committed);
        c.boolean(verdict.reRan);
        c.boolean(verdict.outputChanged);
    });
    c.seq(sample.aceShares, 12, [&](auto &share) {
        c.scalar(share.first);
        c.f64(share.second);
    });
}

} // namespace

Payload
encode(const SimProducts &products)
{
    Encoder e;
    const isa::Program &program = *products.program;
    const std::size_t entry = program.entry();
    walkProgram(e, program.instructions(), entry, program.dataInits(),
                program.labels());
    walk(e, products);
    return e.take();
}

Payload
encode(const avf::DeadnessResult &result)
{
    Encoder e;
    walk(e, result);
    return e.take();
}

Payload
encode(const avf::AvfResult &result)
{
    Encoder e;
    walk(e, result);
    return e.take();
}

Payload
encode(const faults::CampaignSample &sample)
{
    Encoder e;
    walk(e, sample);
    return e.take();
}

bool
decode(const void *data, std::size_t len,
       const std::shared_ptr<const void> &owner, SimProducts *out)
{
    Decoder d(data, len, owner);
    std::vector<isa::StaticInst> insts;
    std::size_t entry = 0;
    sim::Column<isa::DataInit> words;
    std::map<std::string, std::size_t> labels;
    walkProgram(d, insts, entry, words, labels);
    walk(d, *out);
    // The columns must agree in length or the SoA gather is UB, and
    // every static index must name one of the program's
    // instructions: the AVF fold, the classifier and attribution
    // index their tables by it.
    const cpu::IncarnationColumns &inc = out->trace.incarnations;
    if (inc.staticIdx.size() != inc.flags.size() ||
        inc.oracleSeq.size() != inc.flags.size() ||
        inc.enqueueCycle.size() != inc.flags.size() ||
        inc.issueCycle.size() != inc.flags.size() ||
        inc.evictCycle.size() != inc.flags.size() ||
        inc.iqEntry.size() != inc.flags.size())
    {
        return false;
    }
    bool inRange = true;
    for (const cpu::CommitRecord &c : out->trace.commits)
        inRange &= c.staticIdx < insts.size();
    for (std::uint32_t idx : inc.staticIdx)
        inRange &= idx < insts.size();
    if (!inRange || !d.finish())
        return false;
    out->program = std::make_shared<const isa::Program>(
        std::move(insts), std::move(labels), entry, std::move(words));
    out->trace.program = out->program.get();
    return true;
}

bool
decode(const void *data, std::size_t len,
       const std::shared_ptr<const void> &owner, avf::DeadnessResult *out)
{
    Decoder d(data, len, owner);
    walk(d, *out);
    // Readers index all three by commit, the packed bits by word.
    if (out->overwriteDist.size() != out->kind.size() ||
        out->returnFddWords.size() != (out->kind.size() + 63) / 64)
    {
        return false;
    }
    for (avf::DeadKind kind : out->kind) {
        if (kind > avf::DeadKind::TddMem)
            return false;
    }
    return d.finish();
}

bool
decode(const void *data, std::size_t len,
       const std::shared_ptr<const void> &owner, avf::AvfResult *out)
{
    Decoder d(data, len, owner);
    walk(d, *out);
    // PET coverage reads the two exposure columns in step.
    return out->fddOverwriteDist.size() == out->fddBitCycles.size() &&
           d.finish();
}

bool
decode(const void *data, std::size_t len,
       const std::shared_ptr<const void> &owner,
       faults::CampaignSample *out)
{
    Decoder d(data, len, owner);
    walk(d, *out);
    // The label fold tallies a site under its structure's space.
    unsigned sampled = 0;  // bit per Structure value
    for (const faults::CampaignSample::Space &space : out->structures)
        sampled |= 1u << static_cast<unsigned>(space.structure);
    for (const faults::SampledSite &rec : out->sites) {
        if (!(sampled & 1u << static_cast<unsigned>(rec.site.structure)))
            return false;
    }
    return d.finish();
}

} // namespace codec
} // namespace harness
} // namespace ser
