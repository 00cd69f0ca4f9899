#include "cache_codec.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "cpu/sampler.hh"
#include "cpu/trace.hh"
#include "isa/program.hh"
#include "isa/static_inst.hh"

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

class Encoder
{
  public:
    void u8(std::uint8_t v) { _buf.push_back(static_cast<char>(v)); }

    template <typename T>
    void scalar(T v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        char raw[sizeof(T)];
        std::memcpy(raw, &v, sizeof(T));
        _buf.append(raw, sizeof(T));
    }

    void u16(std::uint16_t v) { scalar(v); }
    void u32(std::uint32_t v) { scalar(v); }
    void u64(std::uint64_t v) { scalar(v); }
    void f64(double v) { scalar(std::bit_cast<std::uint64_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    void str(const std::string &s)
    {
        u64(s.size());
        _buf.append(s);
    }

    /** Bulk column of a padding-free scalar type. */
    template <typename T>
    void column(const std::vector<T> &v)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
        u64(v.size());
        if (!v.empty())
            _buf.append(reinterpret_cast<const char *>(v.data()),
                        v.size() * sizeof(T));
    }

    void bits(const std::vector<bool> &v)
    {
        u64(v.size());
        std::uint64_t word = 0;
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (v[i])
                word |= 1ull << (i & 63);
            if ((i & 63) == 63) {
                u64(word);
                word = 0;
            }
        }
        if (v.size() & 63)
            u64(word);
    }

    std::string take() { return std::move(_buf); }

  private:
    std::string _buf;
};

class Decoder
{
  public:
    Decoder(const void *data, std::size_t len)
        : _p(static_cast<const unsigned char *>(data)), _len(len)
    {
    }

    bool ok() const { return _ok; }
    bool done() const { return _ok && _pos == _len; }

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

    template <typename T>
    void column(std::vector<T> *v)
    {
        std::uint64_t n = count(sizeof(T));
        if (!take(n * sizeof(T)))
            return;
        v->resize(static_cast<std::size_t>(n));
        if (n)
            std::memcpy(v->data(), _p + _pos - n * sizeof(T),
                        static_cast<std::size_t>(n) * sizeof(T));
    }

    void bits(std::vector<bool> *v)
    {
        std::uint64_t n = count(1);
        std::uint64_t words = (n + 63) / 64;
        if (!take(words * 8))
            return;
        v->assign(static_cast<std::size_t>(n), false);
        const unsigned char *base = _p + _pos - words * 8;
        for (std::uint64_t w = 0; w < words; ++w) {
            std::uint64_t word;
            std::memcpy(&word, base + w * 8, 8);
            std::uint64_t limit = std::min<std::uint64_t>(64, n - w * 64);
            for (std::uint64_t b = 0; b < limit; ++b)
                (*v)[static_cast<std::size_t>(w * 64 + b)] =
                    (word >> b) & 1;
        }
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
    std::size_t _pos = 0;
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
    e.u64(program.dataInits().size());
    for (const auto &init : program.dataInits()) {
        e.u64(init.addr);
        e.u64(init.value);
    }
    e.u64(program.labels().size());
    for (const auto &[name, index] : program.labels()) {
        e.str(name);
        e.u64(index);
    }
}

bool
getProgram(Decoder &d, isa::Program *program)
{
    std::uint64_t insts = d.count(8);
    for (std::uint64_t i = 0; d.ok() && i < insts; ++i) {
        isa::StaticInst inst;
        if (!isa::StaticInst::decode(d.u64(), inst))
            return false;
        program->append(inst);
    }
    program->setEntry(static_cast<std::size_t>(d.u64()));
    std::uint64_t data = d.count(16);
    for (std::uint64_t i = 0; d.ok() && i < data; ++i) {
        std::uint64_t addr = d.u64();
        std::uint64_t value = d.u64();
        program->addData(addr, value);
    }
    std::uint64_t labels = d.count(8);
    for (std::uint64_t i = 0; d.ok() && i < labels; ++i) {
        std::string name = d.str();
        std::uint64_t index = d.u64();
        if (!d.ok())
            break;
        program->defineLabel(name,
                             static_cast<std::size_t>(index));
    }
    return d.ok();
}

// --- SimTrace (program pointer excluded; fixed up by the caller) ---

void
putTrace(Encoder &e, const cpu::SimTrace &trace)
{
    e.u64(trace.commits.size());
    for (const auto &c : trace.commits) {
        e.u32(c.staticIdx);
        e.u8(c.qpTrue);
        e.u64(c.memAddr);
    }
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

bool
getTrace(Decoder &d, cpu::SimTrace *trace)
{
    std::uint64_t commits = d.count(13);
    trace->commits.reserve(static_cast<std::size_t>(
        d.ok() ? commits : 0));
    for (std::uint64_t i = 0; d.ok() && i < commits; ++i) {
        cpu::CommitRecord c;
        c.staticIdx = d.u32();
        c.qpTrue = d.u8();
        c.memAddr = d.u64();
        trace->commits.push_back(c);
    }
    cpu::IncarnationColumns &inc = trace->incarnations;
    d.column(&inc.staticIdx);
    d.column(&inc.oracleSeq);
    d.column(&inc.enqueueCycle);
    d.column(&inc.issueCycle);
    d.column(&inc.evictCycle);
    d.column(&inc.iqEntry);
    d.column(&inc.flags);
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
    return d.ok();
}

} // namespace

std::string
encodeSimProducts(const SimProducts &products)
{
    Encoder e;
    putProgram(e, *products.program);
    putTrace(e, products.trace);
    e.f64(products.ipc);
    e.str(products.statsDump);
    e.str(products.statsJson);
    static_assert(sizeof(cpu::IntervalSample) == 9 * 8,
                  "IntervalSample gained padding or fields; update "
                  "the codec and bump kSchemaVersion");
    e.u64(products.intervals.size());
    for (const auto &s : products.intervals) {
        e.u64(s.startCycle);
        e.u64(s.endCycle);
        e.u64(s.committed);
        e.u64(s.fetched);
        e.u64(s.mispredicts);
        e.u64(s.triggerSquashes);
        e.u64(s.triggerSquashedInsts);
        e.u64(s.iqValidEntryCycles);
        e.u64(s.iqWaitingEntryCycles);
    }
    e.u64(products.poolHighWater);
    e.u64(products.cyclesSkipped);
    return e.take();
}

bool
decodeSimProducts(const void *data, std::size_t len,
                  SimProducts *out)
{
    Decoder d(data, len);
    auto program = std::make_shared<isa::Program>();
    if (!getProgram(d, program.get()))
        return false;
    out->program = program;
    if (!getTrace(d, &out->trace))
        return false;
    out->trace.program = out->program.get();
    out->ipc = d.f64();
    out->statsDump = d.str();
    out->statsJson = d.str();
    std::uint64_t intervals = d.count(72);
    out->intervals.reserve(
        static_cast<std::size_t>(d.ok() ? intervals : 0));
    for (std::uint64_t i = 0; d.ok() && i < intervals; ++i) {
        cpu::IntervalSample s;
        s.startCycle = d.u64();
        s.endCycle = d.u64();
        s.committed = d.u64();
        s.fetched = d.u64();
        s.mispredicts = d.u64();
        s.triggerSquashes = d.u64();
        s.triggerSquashedInsts = d.u64();
        s.iqValidEntryCycles = d.u64();
        s.iqWaitingEntryCycles = d.u64();
        out->intervals.push_back(s);
    }
    out->poolHighWater = d.u64();
    out->cyclesSkipped = d.u64();
    return d.done();
}

std::string
encodeDeadness(const avf::DeadnessResult &result)
{
    Encoder e;
    e.column(result.kind);
    e.column(result.overwriteDist);
    e.bits(result.returnFdd);
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
               avf::DeadnessResult *out)
{
    Decoder d(data, len);
    d.column(&out->kind);
    d.column(&out->overwriteDist);
    d.bits(&out->returnFdd);
    out->numInsts = d.u64();
    out->numDefs = d.u64();
    out->numFddReg = d.u64();
    out->numTddReg = d.u64();
    out->numFddMem = d.u64();
    out->numTddMem = d.u64();
    out->numReturnFdd = d.u64();
    for (auto kind : out->kind) {
        if (static_cast<std::uint8_t>(kind) >
            static_cast<std::uint8_t>(avf::DeadKind::TddMem))
        {
            return false;
        }
    }
    return d.done();
}

std::string
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
    for (int s = 0; s < avf::numUnAceSources; ++s)
        e.u64(result.unAceUnread[s]);
    e.u64(result.fddRegExposures.size());
    for (const auto &exp : result.fddRegExposures) {
        e.u64(exp.bitCycles);
        e.u32(exp.overwriteDist);
    }
    e.u64(result.epochs.size());
    for (const auto &epoch : result.epochs) {
        e.u64(epoch.startCycle);
        e.u64(epoch.cycles);
        e.u64(epoch.occupied);
        e.u64(epoch.ace);
        e.u64(epoch.unAceRead);
    }
    return e.take();
}

bool
decodeAvf(const void *data, std::size_t len, avf::AvfResult *out)
{
    Decoder d(data, len);
    out->windowCycles = d.u64();
    out->totalBitCycles = d.u64();
    out->idle = d.u64();
    out->exAce = d.u64();
    out->squashedUnread = d.u64();
    out->ace = d.u64();
    out->aceRefined = d.u64();
    for (int s = 0; s < avf::numUnAceSources; ++s)
        out->unAceRead[s] = d.u64();
    for (int s = 0; s < avf::numUnAceSources; ++s)
        out->unAceUnread[s] = d.u64();
    std::uint64_t exposures = d.count(12);
    out->fddRegExposures.reserve(
        static_cast<std::size_t>(d.ok() ? exposures : 0));
    for (std::uint64_t i = 0; d.ok() && i < exposures; ++i) {
        avf::FddExposure exp;
        exp.bitCycles = d.u64();
        exp.overwriteDist = d.u32();
        out->fddRegExposures.push_back(exp);
    }
    std::uint64_t epochs = d.count(40);
    out->epochs.reserve(
        static_cast<std::size_t>(d.ok() ? epochs : 0));
    for (std::uint64_t i = 0; d.ok() && i < epochs; ++i) {
        avf::EpochAce epoch;
        epoch.startCycle = d.u64();
        epoch.cycles = d.u64();
        epoch.occupied = d.u64();
        epoch.ace = d.u64();
        epoch.unAceRead = d.u64();
        out->epochs.push_back(epoch);
    }
    return d.done();
}

std::string
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
    return d.done();
}

} // namespace codec
} // namespace harness
} // namespace ser
