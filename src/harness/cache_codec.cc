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

/** Guard against absurd counts from corrupt blobs: no artifact in
 * this codebase holds anywhere near this many elements, and refusing
 * early keeps a flipped length byte from driving a multi-GB
 * allocation before the CRC/truncation checks can reject it. */
constexpr std::uint64_t kMaxElements = 1ull << 33;

/** Zero bytes from payload offset 'pos' to the next column start. */
constexpr std::size_t
columnPad(std::size_t pos)
{
    return (kColumnAlignment - pos % kColumnAlignment) %
           kColumnAlignment;
}

/** Builds a Payload: small fields are copied into its owned buffer,
 * bulk columns are borrowed where they lie. */
class Encoder
{
  public:
    void u8(std::uint8_t v) { copy(&v, 1); }

    template <typename T>
    void scalar(T v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        copy(&v, sizeof(T));
    }

    void u16(std::uint16_t v) { scalar(v); }
    void u32(std::uint32_t v) { scalar(v); }
    void u64(std::uint64_t v) { scalar(v); }
    void f64(double v) { scalar(std::bit_cast<std::uint64_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    void str(const std::string &s)
    {
        u64(s.size());
        copy(s.data(), s.size());
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
        u64(v.size());
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

class Decoder
{
  public:
    /** 'owner' keeps [data, data+len) alive for the views view()
     * hands out. */
    Decoder(const void *data, std::size_t len,
            std::shared_ptr<const void> owner = nullptr)
        : _p(static_cast<const unsigned char *>(data)), _len(len),
          _owner(std::move(owner))
    {
    }

    bool ok() const { return _ok; }

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

    template <typename T>
    T scalar()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v{};
        if (!take(sizeof(T)))
            return v;
        std::memcpy(&v, _p + _pos - sizeof(T), sizeof(T));
        return v;
    }

    std::uint8_t u8() { return scalar<std::uint8_t>(); }
    std::uint16_t u16() { return scalar<std::uint16_t>(); }
    std::uint32_t u32() { return scalar<std::uint32_t>(); }
    std::uint64_t u64() { return scalar<std::uint64_t>(); }
    double f64() { return std::bit_cast<double>(u64()); }
    bool boolean() { return u8() != 0; }

    /** A one-byte enum; a value past `last` fails the decode. */
    template <typename E>
    E enumeration(E last)
    {
        std::uint8_t v = u8();
        if (v > static_cast<std::uint8_t>(last)) {
            _ok = false;
            return E{};
        }
        return static_cast<E>(v);
    }

    std::string str()
    {
        std::uint64_t n = u64();
        if (!take(n))
            return {};
        return std::string(
            reinterpret_cast<const char *>(_p + _pos - n),
            static_cast<std::size_t>(n));
    }

    /** A bulk column viewed where it lies, kept alive by the owner:
     * its count, the zero padding up to the next kColumnAlignment
     * offset, then n elements, which must sit at an address aligned
     * for T or the decode fails. */
    template <typename T>
    void view(sim::Column<T> *c)
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
            _ok = false;
            return;
        }
        _viewed += _pos - framed;
        *c = sim::Column<T>(reinterpret_cast<const T *>(at),
                            static_cast<std::size_t>(n), _owner);
    }

    /** An element count, sanity-bounded so corrupt lengths fail
     * instead of allocating. */
    std::uint64_t count(std::size_t elem_size)
    {
        std::uint64_t n = u64();
        if (n > kMaxElements / (elem_size ? elem_size : 1)) {
            _ok = false;
            return 0;
        }
        return n;
    }

  private:
    bool take(std::uint64_t n)
    {
        if (!_ok || n > _len - _pos) {
            _ok = false;
            return false;
        }
        _pos += static_cast<std::size_t>(n);
        return true;
    }

    const unsigned char *_p;
    std::size_t _len;
    std::shared_ptr<const void> _owner;
    std::size_t _pos = 0;
    /** Payload bytes the views cover, their padding included. */
    std::size_t _viewed = 0;
    bool _ok = true;
};

// --- Program ---

void
putProgram(Encoder &e, const isa::Program &program)
{
    e.u64(program.size());
    for (const auto &inst : program.instructions())
        e.u64(inst.encode());
    e.u64(program.entry());
    e.column(program.dataInits());
    e.u64(program.labels().size());
    for (const auto &[name, index] : program.labels()) {
        e.str(name);
        e.u64(index);
    }
}

/** The parts first, then the program: its data words view the
 * buffer. A duplicate label name fails the decode. */
bool
getProgram(Decoder &d, std::shared_ptr<const isa::Program> *program)
{
    std::vector<isa::StaticInst> insts;
    std::uint64_t count = d.count(8);
    for (std::uint64_t i = 0; d.ok() && i < count; ++i) {
        isa::StaticInst inst;
        if (!isa::StaticInst::decode(d.u64(), inst))
            return false;
        insts.push_back(inst);
    }
    const auto entry = static_cast<std::size_t>(d.u64());
    sim::Column<isa::DataInit> data;
    d.view(&data);
    std::map<std::string, std::size_t> labels;
    count = d.count(8);
    for (std::uint64_t i = 0; d.ok() && i < count; ++i) {
        std::string name = d.str();
        const auto index = static_cast<std::size_t>(d.u64());
        if (d.ok() && !labels.emplace(std::move(name), index).second)
            return false;
    }
    if (!d.ok())
        return false;
    *program = std::make_shared<const isa::Program>(
        std::move(insts), std::move(labels), entry, std::move(data));
    return true;
}

// --- SimTrace (program pointer excluded; fixed up by the caller) ---

void
putTrace(Encoder &e, const cpu::SimTrace &trace)
{
    e.column(trace.commits);
    const cpu::IncarnationColumns &inc = trace.incarnations;
    e.column(inc.staticIdx);
    e.column(inc.oracleSeq);
    e.column(inc.enqueueCycle);
    e.column(inc.issueCycle);
    e.column(inc.evictCycle);
    e.column(inc.iqEntry);
    e.column(inc.flags);
    e.u64(trace.startCycle);
    e.u64(trace.endCycle);
    e.u64(trace.committedInsts);
    e.boolean(trace.programHalted);
    e.u32(trace.iqEntries);
}

/** 'num_insts' is the decoded program's size: every static index
 * the trace holds must name one of its instructions, since the AVF
 * fold, the classifier and attribution index their tables by it. */
bool
getTrace(Decoder &d, std::size_t num_insts, cpu::SimTrace *trace)
{
    d.view(&trace->commits);
    cpu::IncarnationColumns &inc = trace->incarnations;
    d.view(&inc.staticIdx);
    d.view(&inc.oracleSeq);
    d.view(&inc.enqueueCycle);
    d.view(&inc.issueCycle);
    d.view(&inc.evictCycle);
    d.view(&inc.iqEntry);
    d.view(&inc.flags);
    trace->startCycle = d.u64();
    trace->endCycle = d.u64();
    trace->committedInsts = d.u64();
    trace->programHalted = d.boolean();
    trace->iqEntries = d.u32();
    // The columns must agree in length or the SoA gather is UB.
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
    for (const cpu::CommitRecord &c : trace->commits)
        inRange &= c.staticIdx < num_insts;
    for (std::uint32_t idx : inc.staticIdx)
        inRange &= idx < num_insts;
    return inRange && d.ok();
}

} // namespace

Payload
encodeSimProducts(const SimProducts &products)
{
    Encoder e;
    putProgram(e, *products.program);
    putTrace(e, products.trace);
    e.f64(products.ipc);
    e.str(products.statsDump);
    e.str(products.statsJson);
    static_assert(sizeof(cpu::IntervalSample) == 9 * 8,
                  "IntervalSample gained fields; bump kSchemaVersion");
    e.column(products.intervals);
    e.u64(products.poolHighWater);
    e.u64(products.cyclesSkipped);
    return e.take();
}

bool
decodeSimProducts(const void *data, std::size_t len,
                  const std::shared_ptr<const void> &owner,
                  SimProducts *out)
{
    Decoder d(data, len, owner);
    if (!getProgram(d, &out->program) ||
        !getTrace(d, out->program->size(), &out->trace))
        return false;
    out->trace.program = out->program.get();
    out->ipc = d.f64();
    out->statsDump = d.str();
    out->statsJson = d.str();
    d.view(&out->intervals);
    out->poolHighWater = d.u64();
    out->cyclesSkipped = d.u64();
    return d.finish();
}

Payload
encodeDeadness(const avf::DeadnessResult &result)
{
    Encoder e;
    e.column(result.kind);
    e.column(result.overwriteDist);
    e.column(result.returnFddWords);
    e.u64(result.numInsts);
    e.u64(result.numDefs);
    e.u64(result.numFddReg);
    e.u64(result.numTddReg);
    e.u64(result.numFddMem);
    e.u64(result.numTddMem);
    e.u64(result.numReturnFdd);
    return e.take();
}

bool
decodeDeadness(const void *data, std::size_t len,
               const std::shared_ptr<const void> &owner,
               avf::DeadnessResult *out)
{
    Decoder d(data, len, owner);
    d.view(&out->kind);
    d.view(&out->overwriteDist);
    d.view(&out->returnFddWords);
    out->numInsts = d.u64();
    out->numDefs = d.u64();
    out->numFddReg = d.u64();
    out->numTddReg = d.u64();
    out->numFddMem = d.u64();
    out->numTddMem = d.u64();
    out->numReturnFdd = d.u64();
    // Readers index all three by commit, the packed bits by word.
    if (out->overwriteDist.size() != out->kind.size() ||
        out->returnFddWords.size() != (out->kind.size() + 63) / 64)
    {
        return false;
    }
    for (auto kind : out->kind) {
        if (static_cast<std::uint8_t>(kind) >
            static_cast<std::uint8_t>(avf::DeadKind::TddMem))
        {
            return false;
        }
    }
    return d.finish();
}

Payload
encodeAvf(const avf::AvfResult &result)
{
    Encoder e;
    e.u64(result.windowCycles);
    e.u64(result.totalBitCycles);
    e.u64(result.idle);
    e.u64(result.exAce);
    e.u64(result.squashedUnread);
    e.u64(result.ace);
    e.u64(result.aceRefined);
    for (int s = 0; s < avf::numUnAceSources; ++s)
        e.u64(result.unAceRead[s]);
    e.column(result.fddBitCycles);
    e.column(result.fddOverwriteDist);
    static_assert(sizeof(avf::EpochAce) == 5 * 8,
                  "EpochAce gained fields; bump kSchemaVersion");
    e.column(result.epochs);
    return e.take();
}

bool
decodeAvf(const void *data, std::size_t len,
          const std::shared_ptr<const void> &owner, avf::AvfResult *out)
{
    Decoder d(data, len, owner);
    out->windowCycles = d.u64();
    out->totalBitCycles = d.u64();
    out->idle = d.u64();
    out->exAce = d.u64();
    out->squashedUnread = d.u64();
    out->ace = d.u64();
    out->aceRefined = d.u64();
    for (int s = 0; s < avf::numUnAceSources; ++s)
        out->unAceRead[s] = d.u64();
    d.view(&out->fddBitCycles);
    d.view(&out->fddOverwriteDist);
    d.view(&out->epochs);
    // PET coverage reads the two exposure columns in step.
    if (out->fddOverwriteDist.size() != out->fddBitCycles.size())
        return false;
    return d.finish();
}

Payload
encodeCampaign(const faults::CampaignSample &sample)
{
    Encoder e;
    e.u64(sample.structures.size());
    for (const faults::CampaignSample::Space &s : sample.structures) {
        e.u8(static_cast<std::uint8_t>(s.structure));
        e.u64(s.weight);
        e.f64(s.sdcAvf);
        e.f64(s.dueAvf);
    }
    e.u64(sample.goldenSteps);
    e.u64(sample.checkpoints);
    e.u64(sample.sites.size());
    for (const faults::SampledSite &rec : sample.sites) {
        e.u8(static_cast<std::uint8_t>(rec.site.structure));
        e.u16(rec.site.entry);
        e.u8(rec.site.bit);
        e.u64(rec.site.cycle);
        const faults::Verdict &v = rec.verdict;
        e.u64(static_cast<std::uint64_t>(v.residency));
        e.u32(v.inst);
        e.u64(v.rerunSteps);
        e.u8(static_cast<std::uint8_t>(v.role));
        e.boolean(v.readAfter);
        e.boolean(v.wrongPath);
        e.boolean(v.committed);
        e.boolean(v.reRan);
        e.boolean(v.outputChanged);
    }
    e.u64(sample.aceShares.size());
    for (const auto &[inst, share] : sample.aceShares) {
        e.u32(inst);
        e.f64(share);
    }
    return e.take();
}

bool
decodeCampaign(const void *data, std::size_t len,
               faults::CampaignSample *out)
{
    Decoder d(data, len);
    std::uint64_t structures = d.count(25);
    out->structures.reserve(
        static_cast<std::size_t>(d.ok() ? structures : 0));
    unsigned sampled = 0;  // bit per Structure value
    for (std::uint64_t i = 0; d.ok() && i < structures; ++i) {
        faults::CampaignSample::Space s;
        s.structure = d.enumeration(faults::Structure::PredRegFile);
        s.weight = d.u64();
        s.sdcAvf = d.f64();
        s.dueAvf = d.f64();
        sampled |= 1u << static_cast<unsigned>(s.structure);
        out->structures.push_back(s);
    }
    out->goldenSteps = d.u64();
    out->checkpoints = d.u64();
    std::uint64_t sites = d.count(38);
    out->sites.reserve(static_cast<std::size_t>(d.ok() ? sites : 0));
    for (std::uint64_t i = 0; d.ok() && i < sites; ++i) {
        faults::SampledSite rec;
        rec.site.structure =
            d.enumeration(faults::Structure::PredRegFile);
        rec.site.entry = d.u16();
        rec.site.bit = d.u8();
        rec.site.cycle = d.u64();
        faults::Verdict &v = rec.verdict;
        v.residency = static_cast<std::int64_t>(d.u64());
        v.inst = d.u32();
        v.rerunSteps = d.u64();
        v.role = d.enumeration(faults::BitRole::Pi);
        v.readAfter = d.boolean();
        v.wrongPath = d.boolean();
        v.committed = d.boolean();
        v.reRan = d.boolean();
        v.outputChanged = d.boolean();
        // The label fold tallies a site under its structure's space.
        if (!(sampled & 1u << static_cast<unsigned>(rec.site.structure)))
            return false;
        out->sites.push_back(rec);
    }
    std::uint64_t shares = d.count(12);
    out->aceShares.reserve(
        static_cast<std::size_t>(d.ok() ? shares : 0));
    for (std::uint64_t i = 0; d.ok() && i < shares; ++i) {
        std::uint32_t inst = d.u32();
        out->aceShares.emplace_back(inst, d.f64());
    }
    return d.finish();
}

} // namespace codec
} // namespace harness
} // namespace ser
