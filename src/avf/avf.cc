#include "avf.hh"

#include <algorithm>
#include <array>
#include <cstddef>
#include <sstream>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "isa/encoding.hh"
#include "sim/compiler.hh"
#include "sim/logging.hh"
#include "sim/prof.hh"

namespace ser
{
namespace avf
{

const char *
unAceSourceName(UnAceSource src)
{
    switch (src) {
      case UnAceSource::WrongPath: return "wrong_path";
      case UnAceSource::PredFalse: return "pred_false";
      case UnAceSource::Neutral: return "neutral";
      case UnAceSource::FddReg: return "fdd_reg";
      case UnAceSource::TddReg: return "tdd_reg";
      case UnAceSource::FddMem: return "fdd_mem";
      case UnAceSource::TddMem: return "tdd_mem";
      case UnAceSource::NumSources: break;
    }
    return "?";
}

std::uint64_t
AvfResult::unAceReadTotal() const
{
    std::uint64_t total = 0;
    for (int i = 0; i < numUnAceSources; ++i)
        total += unAceRead[i];
    return total;
}

double
AvfResult::unreadUnAceFraction() const
{
    std::uint64_t total = 0;
    for (int i = 0; i < numUnAceSources; ++i)
        total += unAceUnread[i];
    return frac(total);
}

std::string
AvfResult::summary() const
{
    std::ostringstream os;
    os << "window cycles      " << windowCycles << "\n";
    os << "idle               " << idleFraction() * 100 << "%\n";
    os << "ex-ACE             " << exAceFraction() * 100 << "%\n";
    os << "ACE (SDC AVF)      " << sdcAvf() * 100 << "%\n";
    os << "  field-refined    " << sdcAvfRefined() * 100 << "%\n";
    os << "valid un-ACE       " << validUnAceFraction() * 100
       << "%\n";
    os << "DUE AVF            " << dueAvf() * 100 << "%\n";
    os << "  true DUE AVF     " << trueDueAvf() * 100 << "%\n";
    os << "  false DUE AVF    " << falseDueAvf() * 100 << "%\n";
    for (int i = 0; i < numUnAceSources; ++i) {
        os << "    " << unAceSourceName(static_cast<UnAceSource>(i))
           << " " << frac(unAceRead[i]) * 100 << "%\n";
    }
    return os.str();
}

namespace
{

constexpr std::uint64_t payloadBits = isa::encoding::payloadBits;

/** Clip [lo, hi) to the window; returns the clipped interval. */
struct Interval
{
    std::uint64_t lo;
    std::uint64_t hi;

    std::uint64_t length() const { return hi - lo; }
};

Interval
clip(std::uint64_t lo, std::uint64_t hi, std::uint64_t wlo,
     std::uint64_t whi)
{
    lo = std::max(lo, wlo);
    hi = std::min(hi, whi);
    if (hi < lo)
        hi = lo;
    return {lo, hi};
}

} // namespace

namespace
{

/** Shared body of the two classifyIncarnation overloads: 'entry',
 * when non-null, supplies the memoized opcode-derived constants
 * instead of re-deriving them from OpInfo per incarnation. */
IncarnationClass
classifyImpl(const cpu::SimTrace &trace,
             const DeadnessResult &deadness,
             const cpu::IncarnationRecord &inc,
             const StaticClassInfo *entry)
{
    using namespace isa::encoding;

    IncarnationClass c;
    const std::uint64_t wlo = trace.startCycle;
    const std::uint64_t whi = trace.endCycle;
    const std::uint64_t enq = inc.enqueueCycle;
    const std::uint64_t evict = inc.evictCycle;
    c.issued = inc.issueCycle != cpu::noCycle32;

    if (!c.issued) {
        // Squashed before any read: a strike here is wiped by the
        // refetch — fully un-ACE and undetectable, all rates zero.
        Interval iv = clip(enq, evict, wlo, whi);
        c.preLo = iv.lo;
        c.preHi = iv.hi;
        return c;
    }

    Interval pre_iv = clip(enq, inc.issueCycle, wlo, whi);
    Interval post_iv = clip(inc.issueCycle, evict, wlo, whi);
    c.preLo = pre_iv.lo;
    c.preHi = pre_iv.hi;
    c.postLo = post_iv.lo;
    c.postHi = post_iv.hi;

    if (inc.flags & cpu::incWrongPath) {
        c.unAceReadRate = payloadBits;
        c.source = UnAceSource::WrongPath;
        return c;
    }

    const bool neutral =
        entry ? entry->isNeutral
              : trace.program->inst(inc.staticIdx).info().isNeutral;

    if (neutral) {
        // Only the opcode bits could turn this into something that
        // matters.
        c.aceRate = opcodeBits;
        c.aceRefinedRate = opcodeBits;
        c.unAceReadRate = payloadBits - opcodeBits;
        c.source = UnAceSource::Neutral;
        return c;
    }

    if (inc.flags & cpu::incPredFalse) {
        // Only the qualifying-predicate bits could un-nullify it.
        c.aceRate = qpBits;
        c.aceRefinedRate = qpBits;
        c.unAceReadRate = payloadBits - qpBits;
        c.source = UnAceSource::PredFalse;
        return c;
    }

    DeadKind kind = DeadKind::Live;
    std::uint32_t overwrite_dist = noOverwrite;
    if (inc.oracleSeq != cpu::noSeq32 &&
        inc.oracleSeq < deadness.kind.size()) {
        kind = deadness.kind[inc.oracleSeq];
        overwrite_dist = deadness.overwriteDist[inc.oracleSeq];
    }

    switch (kind) {
      case DeadKind::Live: {
        c.aceRate = payloadBits;
        // Refined estimate: only the fields this opcode uses.
        std::uint64_t used;
        if (entry) {
            used = entry->liveRefinedRate;
        } else {
            const isa::OpInfo &oi =
                trace.program->inst(inc.staticIdx).info();
            used = qpBits + opcodeBits;
            if (oi.dstClass != isa::RegClass::None)
                used += dstBits;
            if (oi.src1Class != isa::RegClass::None)
                used += src1Bits;
            if (oi.src2Class != isa::RegClass::None)
                used += src2Bits;
            if (oi.usesImm)
                used += immBits;
        }
        c.aceRefinedRate = used;
        break;
      }
      case DeadKind::FddReg:
      case DeadKind::TddReg:
        // Destination-specifier bits stay ACE (a strike there
        // redirects the dead result onto a live register).
        c.aceRate = dstBits;
        c.aceRefinedRate = dstBits;
        c.unAceReadRate = payloadBits - dstBits;
        c.source = kind == DeadKind::FddReg ? UnAceSource::FddReg
                                            : UnAceSource::TddReg;
        c.fddRegExposure = kind == DeadKind::FddReg;
        c.overwriteDist = overwrite_dist;
        break;
      case DeadKind::FddMem:
      case DeadKind::TddMem:
        // Address bits (base specifier + offset) stay ACE (a strike
        // there redirects the dead store onto live memory).
        c.aceRate = src1Bits + immBits;
        c.aceRefinedRate = c.aceRate;
        c.unAceReadRate = payloadBits - c.aceRate;
        c.source = kind == DeadKind::FddMem ? UnAceSource::FddMem
                                            : UnAceSource::TddMem;
        break;
    }
    return c;
}

} // namespace

IncarnationClass
classifyIncarnation(const cpu::SimTrace &trace,
                    const DeadnessResult &deadness,
                    const cpu::IncarnationRecord &inc)
{
    return classifyImpl(trace, deadness, inc, nullptr);
}

IncarnationClass
classifyIncarnation(const cpu::SimTrace &trace,
                    const DeadnessResult &deadness,
                    const cpu::IncarnationRecord &inc,
                    const StaticClassTable &table)
{
    return classifyImpl(trace, deadness, inc, &table[inc.staticIdx]);
}

StaticClassTable
buildStaticClassTable(const isa::Program &program)
{
    using namespace isa::encoding;
    StaticClassTable table(program.size());
    for (std::size_t i = 0; i < program.size(); ++i) {
        const isa::OpInfo &oi = program.inst(
            static_cast<std::uint32_t>(i)).info();
        StaticClassInfo &e = table[i];
        e.isNeutral = oi.isNeutral;
        std::uint64_t used = qpBits + opcodeBits;
        if (oi.dstClass != isa::RegClass::None)
            used += dstBits;
        if (oi.src1Class != isa::RegClass::None)
            used += src1Bits;
        if (oi.src2Class != isa::RegClass::None)
            used += src2Bits;
        if (oi.usesImm)
            used += immBits;
        e.liveRefinedRate = static_cast<std::uint16_t>(used);
    }
    return table;
}

namespace
{

/** Branch-free select: cond ? a : b with cond in {0, 1}. The mask
 * form compiles to and/xor on every target, keeping the fold free of
 * data-dependent branches. */
SER_ALWAYS_INLINE std::uint64_t
sel(bool cond, std::uint64_t a, std::uint64_t b)
{
    const std::uint64_t mask = -static_cast<std::uint64_t>(cond);
    return b ^ ((a ^ b) & mask);
}

/**
 * The per-cycle bit rates of every incarnation class, indexed by a
 * compact class code. The codes collapse classifyImpl's decision
 * tree into one table lookup: every rate is a compile-time constant
 * of the encoding except a Live def's refined rate, which pass A
 * patches in from the StaticClassTable. Order matters: entries
 * kLive..kLive+4 line up with DeadKind's Live..TddMem values.
 */
enum ClassCode : unsigned
{
    kSquashed = 0,  ///< never issued: wiped by the refetch
    kWrongPath,
    kNeutral,
    kPredFalse,
    kLive,  ///< + static_cast<unsigned>(DeadKind) for dead defs
    kFddReg,
    kTddReg,
    kFddMem,
    kTddMem,
    kNumClassCodes
};

struct ClassRates
{
    std::uint64_t ace;
    std::uint64_t aceRefined;
    std::uint64_t unAceRead;
    std::uint8_t source;  ///< UnAceSource index (when unAceRead)
};

constexpr ClassRates
classRate(std::uint64_t ace_rate, std::uint64_t refined,
          UnAceSource src)
{
    return {ace_rate, refined, payloadBits - ace_rate,
            static_cast<std::uint8_t>(src)};
}

constexpr std::uint64_t addrBits =
    isa::encoding::src1Bits + isa::encoding::immBits;

constexpr ClassRates classRates[kNumClassCodes] = {
    /* kSquashed  */ {0, 0, 0, 0},
    /* kWrongPath */ {0, 0, payloadBits,
                      static_cast<std::uint8_t>(
                          UnAceSource::WrongPath)},
    /* kNeutral   */ classRate(isa::encoding::opcodeBits,
                               isa::encoding::opcodeBits,
                               UnAceSource::Neutral),
    /* kPredFalse */ classRate(isa::encoding::qpBits,
                               isa::encoding::qpBits,
                               UnAceSource::PredFalse),
    /* kLive      */ {payloadBits, 0 /* per-static, patched */, 0, 0},
    /* kFddReg    */ classRate(isa::encoding::dstBits,
                               isa::encoding::dstBits,
                               UnAceSource::FddReg),
    /* kTddReg    */ classRate(isa::encoding::dstBits,
                               isa::encoding::dstBits,
                               UnAceSource::TddReg),
    /* kFddMem    */ classRate(addrBits, addrBits,
                               UnAceSource::FddMem),
    /* kTddMem    */ classRate(addrBits, addrBits,
                               UnAceSource::TddMem),
};

/**
 * Class index from its ingredient bits, precomputed for every
 * combination so the per-incarnation precedence chain (squashed >
 * wrong-path > neutral > pred-false > deadness kind, mirroring
 * classifyImpl's early returns) collapses to one table load.
 * Index layout: flags&3 | neutral<<2 | kind<<3 | issued<<6.
 */
constexpr std::array<std::uint8_t, 128> kTable = [] {
    std::array<std::uint8_t, 128> t{};
    for (unsigned idx = 0; idx < 128; ++idx) {
        const bool wp = idx & 1;
        const bool pf = idx & 2;
        const bool neutral = idx & 4;
        const unsigned kind = (idx >> 3) & 7;
        const bool issued = idx & 64;
        unsigned k;
        if (!issued)
            k = kSquashed;
        else if (wp)
            k = kWrongPath;
        else if (neutral)
            k = kNeutral;
        else if (pf)
            k = kPredFalse;
        else
            k = kLive + (kind <= 4 ? kind : 0);
        t[idx] = static_cast<std::uint8_t>(k);
    }
    return t;
}();

/** Raw column pointers of a trace's incarnation rows, bound once so
 * the fold loops index seven flat streams with no vector-header
 * reloads. */
struct ColumnView
{
    const std::uint32_t *staticIdx;
    const std::uint32_t *oracleSeq;
    const std::uint32_t *enq;
    const std::uint32_t *issue;
    const std::uint32_t *evict;
    const std::uint8_t *flags;

    explicit ColumnView(const cpu::IncarnationColumns &cols)
        : staticIdx(cols.staticIdx.data()),
          oracleSeq(cols.oracleSeq.data()),
          enq(cols.enqueueCycle.data()),
          issue(cols.issueCycle.data()),
          evict(cols.evictCycle.data()), flags(cols.flags.data())
    {
    }
};

/** One accumulator bank of the four-wide unrolled fold. */
struct FoldBank
{
    std::uint64_t preSum[kNumClassCodes] = {};
    std::uint64_t post = 0;  ///< sum of post-read cycles
    std::uint64_t ref = 0;   ///< sum of pre * liveRefinedRate
};

/**
 * One incarnation's contribution to one accumulator bank. Force-
 * inlined so the bank stays in registers across the unroll;
 * as a capturing lambda GCC 12 kept this out of line and the call
 * overhead dominated the fold.
 *
 * The overwhelmingly common case — a residency fully inside the
 * measurement window — needs no interval clipping: pre and post are
 * two subtractions. Window-straddling records (warmup prefix, run
 * tail) clip both intervals to the window instead; they arrive in
 * bursts at the window edges, so the guard predicts near-perfectly.
 * Either way the class comes from the same kTable lookup. When
 * `Whole` is set the caller has proven no record can straddle
 * (wlo == 0, and every evict cycle is at most the trace's drain
 * cycle whi), so the guard compiles out entirely.
 */
template <bool Whole>
SER_ALWAYS_INLINE void
foldOne(const ColumnView &v, std::size_t i, std::uint64_t wlo,
        std::uint64_t whi, const StaticClassInfo *stat,
        const DeadKind *dead, const std::uint32_t *odist,
        std::uint64_t dead_limit, FoldBank &bank,
        std::vector<FddExposure> &exposures)
{
    std::uint64_t pre, post, k;
    std::uint64_t live_ref = 0;
    std::uint64_t di = 0;
    const std::uint32_t enq = v.enq[i];
    const std::uint32_t issue = v.issue[i];
    const std::uint32_t evict = v.evict[i];
    const std::uint32_t fl = v.flags[i];
    // Pre-read [enqueue, read_end) and post-read [read_end, evict)
    // residencies; a never-read incarnation's whole residency is pre.
    const bool issued = issue != cpu::noCycle32;
    const std::uint32_t read_end = issued ? issue : evict;
    if (Whole || SER_LIKELY(enq >= wlo && evict <= whi)) {
        pre = read_end - enq;
        post = evict - read_end;
    } else {
        pre = clip(enq, read_end, wlo, whi).length();
        post = clip(read_end, evict, wlo, whi).length();
    }
    if (fl & cpu::incWrongPath) {
        // Wrong-path residencies arrive in fetch bursts, so this
        // branch predicts; neither the deadness columns nor the
        // static table matter for them (all their rates are 0).
        k = sel(issued, kWrongPath, kSquashed);
    } else {
        const std::uint32_t seq = v.oracleSeq[i];
        const std::uint32_t sidx = v.staticIdx[i];
        unsigned kind = static_cast<unsigned>(DeadKind::Live);
        if (SER_LIKELY(seq < dead_limit)) {
            di = seq;
            kind = static_cast<unsigned>(dead[di]);
        }
        const unsigned idx =
            (fl & 3u) |
            (static_cast<unsigned>(stat[sidx].isNeutral) << 2) |
            (kind << 3) | (static_cast<unsigned>(issued) << 6);
        k = kTable[idx];
        live_ref = stat[sidx].liveRefinedRate;
    }
    bank.post += post;
    // Only the Live class has a per-static refined rate; every other
    // class contribution is rate[k] * preSum[k], folded in once at
    // the end (classRates[kLive].aceRefined is 0 by construction).
    bank.ref += sel(k == kLive, pre, 0) * live_ref;
    bank.preSum[k] += pre;
    if (SER_UNLIKELY(k == kFddReg)) {
        if (pre)
            exposures.push_back(
                {pre * classRates[kFddReg].unAceRead, odist[di]});
    }
}

#if defined(__x86_64__) && defined(__GNUC__)
#define SER_AVF_SIMD 1

/**
 * The fold's batch kernel: eight incarnations per step over the SoA
 * columns. Compiled for AVX2 via the target attribute (the build
 * stays baseline x86-64; computeAvf dispatches here only when the
 * host supports it), bit-identical to the scalar fold — every
 * operation is the same u32/u64 integer arithmetic, just eight lanes
 * at a time, and u64 addition is associative.
 *
 * Per step: the five u32 columns are five contiguous vector loads
 * (the SoA payoff — the AoS layout needed a strided deinterleave or
 * per-field scalar loads), flags widen from one 8-byte load, and the
 * two data-dependent lookups (deadness kind by oracle seq, static
 * info by static index) become gathers. kTable's precedence chain
 * turns into four blends. Only preSum[k] — eight read-modify-
 * writes to data-dependent slots — and the rare FDD exposure pushes
 * stay scalar, AVX2 having no scatter.
 *
 * Kind bytes are gathered as 32-bit words at a clamped base
 * (min(seq, limit - 4), so the 4-byte read never passes the end of
 * the table) and the addressed byte is shifted out per lane; the
 * caller guarantees dead_limit >= 4. Lanes with seq >= limit force
 * kind to Live, matching the scalar clamp.
 *
 * Window-straddling records need interval clipping; any step whose
 * straddle mask is non-zero falls back to the scalar fold for all
 * eight lanes (they cluster at the window edges, so the branch
 * predicts), which also keeps the exposure push order exactly the
 * record order.
 */
__attribute__((target("avx2"))) void
foldAvx2(const ColumnView &v, std::size_t total, std::uint64_t wlo,
         std::uint64_t whi, const StaticClassInfo *stat,
         const DeadKind *dead, const std::uint32_t *odist,
         std::uint64_t dead_limit, bool whole, FoldBank *banks,
         std::vector<FddExposure> &exposures)
{
    const __m256i sign = _mm256_set1_epi32(
        static_cast<int>(0x80000000u));
    const __m256i noCyc = _mm256_set1_epi32(-1);
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i two = _mm256_set1_epi32(2);
    const __m256i byteMask = _mm256_set1_epi32(0xff);
    const __m256i kLiveV = _mm256_set1_epi32(kLive);
    const __m256i kFddRegV = _mm256_set1_epi32(kFddReg);
    const __m256i kPredFalseV = _mm256_set1_epi32(kPredFalse);
    const __m256i kNeutralV = _mm256_set1_epi32(kNeutral);
    const __m256i kWrongPathV = _mm256_set1_epi32(kWrongPath);
    const __m256i limitU = _mm256_xor_si256(
        _mm256_set1_epi32(
            static_cast<int>(static_cast<std::uint32_t>(dead_limit))),
        sign);
    const __m256i clampBase = _mm256_set1_epi32(static_cast<int>(
        static_cast<std::uint32_t>(dead_limit - 4)));
    const __m256i wloU = _mm256_xor_si256(
        _mm256_set1_epi32(
            static_cast<int>(static_cast<std::uint32_t>(wlo))),
        sign);
    const __m256i whiU = _mm256_xor_si256(
        _mm256_set1_epi32(
            static_cast<int>(static_cast<std::uint32_t>(whi))),
        sign);

    __m256i accPost = _mm256_setzero_si256();
    __m256i accRef = _mm256_setzero_si256();
    alignas(32) std::uint32_t karr[8], parr[8], sarr[8];

    std::size_t i = 0;
    for (; i + 8 <= total; i += 8) {
        const __m256i enq = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v.enq + i));
        const __m256i evi = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v.evict + i));
        if (!whole) {
            // enq < wlo || evict > whi, unsigned via sign-bit flip.
            const __m256i strad = _mm256_or_si256(
                _mm256_cmpgt_epi32(wloU,
                                   _mm256_xor_si256(enq, sign)),
                _mm256_cmpgt_epi32(_mm256_xor_si256(evi, sign),
                                   whiU));
            if (SER_UNLIKELY(!_mm256_testz_si256(strad, strad))) {
                for (unsigned j = 0; j < 8; ++j)
                    foldOne<false>(v, i + j, wlo, whi, stat, dead,
                                   odist, dead_limit, banks[j & 3],
                                   exposures);
                continue;
            }
        }
        const __m256i iss = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v.issue + i));
        const __m256i seq = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v.oracleSeq + i));
        const __m256i sidx = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v.staticIdx + i));
        const __m256i fl = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(v.flags + i)));

        const __m256i notIss = _mm256_cmpeq_epi32(iss, noCyc);
        const __m256i readEnd = _mm256_blendv_epi8(iss, evi, notIss);
        const __m256i pre = _mm256_sub_epi32(readEnd, enq);
        const __m256i post = _mm256_sub_epi32(evi, readEnd);

        // Deadness kind: clamped 4-byte gather, per-lane byte select.
        const __m256i inr = _mm256_cmpgt_epi32(
            limitU, _mm256_xor_si256(seq, sign));
        const __m256i base = _mm256_min_epu32(seq, clampBase);
        const __m256i dg = _mm256_i32gather_epi32(
            reinterpret_cast<const int *>(dead), base, 1);
        const __m256i sh =
            _mm256_slli_epi32(_mm256_sub_epi32(seq, base), 3);
        const __m256i kind = _mm256_and_si256(
            _mm256_and_si256(_mm256_srlv_epi32(dg, sh), byteMask),
            inr);

        // StaticClassInfo is 4 bytes: isNeutral in the low byte,
        // liveRefinedRate in the top half-word.
        const __m256i sg = _mm256_i32gather_epi32(
            reinterpret_cast<const int *>(stat), sidx, 4);
        const __m256i neutral =
            _mm256_cmpeq_epi32(_mm256_and_si256(sg, one), one);
        const __m256i liveRef = _mm256_srli_epi32(sg, 16);

        // kTable's precedence chain as blends, low to high.
        __m256i k = _mm256_add_epi32(kLiveV, kind);
        const __m256i pf =
            _mm256_cmpeq_epi32(_mm256_and_si256(fl, two), two);
        k = _mm256_blendv_epi8(k, kPredFalseV, pf);
        k = _mm256_blendv_epi8(k, kNeutralV, neutral);
        const __m256i wp =
            _mm256_cmpeq_epi32(_mm256_and_si256(fl, one), one);
        k = _mm256_blendv_epi8(k, kWrongPathV, wp);
        k = _mm256_andnot_si256(notIss, k);  // kSquashed == 0

        // post and live-refined sums, widened to u64 lanes.
        accPost = _mm256_add_epi64(
            accPost,
            _mm256_cvtepu32_epi64(_mm256_castsi256_si128(post)));
        accPost = _mm256_add_epi64(
            accPost,
            _mm256_cvtepu32_epi64(_mm256_extracti128_si256(post, 1)));
        const __m256i liveM = _mm256_cmpeq_epi32(k, kLiveV);
        const __m256i preL = _mm256_and_si256(pre, liveM);
        accRef = _mm256_add_epi64(accRef,
                                  _mm256_mul_epu32(preL, liveRef));
        accRef = _mm256_add_epi64(
            accRef, _mm256_mul_epu32(_mm256_srli_epi64(preL, 32),
                                     _mm256_srli_epi64(liveRef, 32)));

        // The one scatter: eight class-slot accumulations, spread
        // across the banks to break the store-to-load chain.
        _mm256_store_si256(reinterpret_cast<__m256i *>(karr), k);
        _mm256_store_si256(reinterpret_cast<__m256i *>(parr), pre);
        banks[0].preSum[karr[0]] += parr[0];
        banks[1].preSum[karr[1]] += parr[1];
        banks[2].preSum[karr[2]] += parr[2];
        banks[3].preSum[karr[3]] += parr[3];
        banks[0].preSum[karr[4]] += parr[4];
        banks[1].preSum[karr[5]] += parr[5];
        banks[2].preSum[karr[6]] += parr[6];
        banks[3].preSum[karr[7]] += parr[7];

        const __m256i isExp = _mm256_cmpeq_epi32(k, kFddRegV);
        int em = _mm256_movemask_ps(_mm256_castsi256_ps(isExp));
        if (SER_UNLIKELY(em)) {
            _mm256_store_si256(reinterpret_cast<__m256i *>(sarr),
                               seq);
            do {
                const int j = __builtin_ctz(
                    static_cast<unsigned>(em));
                em &= em - 1;
                if (parr[j])
                    exposures.push_back(
                        {static_cast<std::uint64_t>(parr[j]) *
                             classRates[kFddReg].unAceRead,
                         odist[sarr[j]]});
            } while (em);
        }
    }

    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), accPost);
    banks[0].post += lanes[0] + lanes[1] + lanes[2] + lanes[3];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), accRef);
    banks[0].ref += lanes[0] + lanes[1] + lanes[2] + lanes[3];

    for (; i < total; ++i)
        foldOne<false>(v, i, wlo, whi, stat, dead, odist, dead_limit,
                       banks[0], exposures);
}

#endif // x86-64 SIMD fold

} // namespace

AvfResult
computeAvf(const cpu::SimTrace &trace, const DeadnessResult &deadness,
           std::uint64_t epoch_cycles)
{
    SER_PROF_SCOPE("avf_fold");
    static prof::Counter folded(
        "avf.incarnations_folded",
        "Instruction-queue incarnation records folded into "
        "bit-cycle classes.");
    folded.add(trace.incarnations.size());

    AvfResult r;
    const std::uint64_t wlo = trace.startCycle;
    const std::uint64_t whi = trace.endCycle;
    r.windowCycles = whi - wlo;
    r.totalBitCycles =
        static_cast<std::uint64_t>(trace.iqEntries) * payloadBits *
        r.windowCycles;

    if (epoch_cycles && r.windowCycles) {
        std::uint64_t n =
            (r.windowCycles + epoch_cycles - 1) / epoch_cycles;
        r.epochs.resize(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            r.epochs[i].startCycle = wlo + i * epoch_cycles;
            r.epochs[i].cycles =
                std::min(epoch_cycles, whi - r.epochs[i].startCycle);
        }
    }

    // Spread an interval's per-cycle bit rate across the epochs it
    // overlaps (no-op when epoch binning is off).
    auto spread = [&](const Interval &iv,
                      std::uint64_t bits_per_cycle,
                      std::uint64_t EpochAce::*field) {
        if (r.epochs.empty() || !bits_per_cycle || iv.hi <= iv.lo)
            return;
        std::size_t first =
            static_cast<std::size_t>((iv.lo - wlo) / epoch_cycles);
        for (std::size_t e = first; e < r.epochs.size(); ++e) {
            EpochAce &ep = r.epochs[e];
            if (ep.startCycle >= iv.hi)
                break;
            std::uint64_t ov =
                std::min(iv.hi, ep.startCycle + ep.cycles) -
                std::max(iv.lo, ep.startCycle);
            ep.*field += ov * bits_per_cycle;
        }
    };

    const StaticClassTable table =
        buildStaticClassTable(*trace.program);

    if (!r.epochs.empty()) {
        // Epoch-binned fold (cold path: only interval-telemetry runs
        // bin): the straightforward per-incarnation walk, unchanged.
        std::uint64_t occupied = 0;
        for (const auto &inc : trace.incarnations) {
            IncarnationClass c =
                classifyIncarnation(trace, deadness, inc, table);
            Interval pre_iv{c.preLo, c.preHi};
            Interval post_iv{c.postLo, c.postHi};
            const std::uint64_t pre = c.preCycles();
            const std::uint64_t post = c.postCycles();

            occupied += (pre + post) * payloadBits;
            spread(pre_iv, payloadBits, &EpochAce::occupied);
            spread(post_iv, payloadBits, &EpochAce::occupied);

            if (!c.issued) {
                r.squashedUnread += pre * payloadBits;
                continue;
            }

            r.exAce += post * payloadBits;
            if (pre == 0)
                continue;

            r.ace += pre * c.aceRate;
            r.aceRefined += pre * c.aceRefinedRate;
            if (c.unAceReadRate)
                r.unAceRead[static_cast<int>(c.source)] +=
                    pre * c.unAceReadRate;
            if (c.fddRegExposure)
                r.fddRegExposures.push_back(
                    {pre * c.unAceReadRate, c.overwriteDist});

            spread(pre_iv, c.aceRate, &EpochAce::ace);
            spread(pre_iv, c.unAceReadRate, &EpochAce::unAceRead);
        }
        if (occupied > r.totalBitCycles)
            SER_PANIC("avf: occupied bit-cycles {} exceed total {}",
                      occupied, r.totalBitCycles);
        r.idle = r.totalBitCycles - occupied;
        return r;
    }

    // Hot fold. Every per-cycle bit rate is a per-class constant
    // (the one exception, a Live def's refined rate, rides along as
    // its own multiply-accumulate), so instead of multiplying rates
    // into every incarnation the loop accumulates per-class resident
    // cycle sums and multiplies the rates in exactly once at the
    // end. u64 multiplication distributes over addition, so the
    // totals are bit-identical to the per-incarnation fold — the
    // avf_reference_fold property test pins this equivalence. The
    // loop is unrolled four-wide with independent accumulator banks
    // to break the store-to-load dependence through preSum[].
    const ColumnView view(trace.incarnations);
    const StaticClassInfo *stat = table.data();
    const std::size_t total = trace.incarnations.size();

    // Deadness columns with a one-entry Live fallback so the kind
    // lookup is an unconditional clamped load instead of a branch.
    static constexpr DeadKind liveKind = DeadKind::Live;
    static constexpr std::uint32_t liveDist = noOverwrite;
    const std::size_t deadSize = deadness.kind.size();
    const DeadKind *dead =
        deadSize ? deadness.kind.data() : &liveKind;
    const std::uint32_t *odist =
        deadSize ? deadness.overwriteDist.data() : &liveDist;
    const std::uint64_t deadLimit = deadSize ? deadSize : 1;

    // FDD-register exposures are pushed from the hot loop; on real
    // traces a few percent of incarnations qualify, so reserving a
    // slice of the total up front keeps the loop free of reallocation
    // copies (the vector still grows if a trace is exposure-heavy).
    r.fddRegExposures.reserve(total / 16 + 64);

    FoldBank banks[4];

    // A warmup-free trace (wlo == 0) cannot contain a window-
    // straddling record — every residency starts at or after cycle 0
    // and evicts by the drain cycle — so the whole-window
    // instantiation drops the per-record clip guard.
    const bool whole = (wlo == 0);

    // The scalar fold, four-wide with independent accumulator banks
    // to break the store-to-load dependence through preSum[].
    auto foldScalar = [&](auto whole_tag) {
        constexpr bool W = decltype(whole_tag)::value;
        std::size_t i = 0;
        const std::size_t quad_end = total & ~std::size_t{3};
        for (; i != quad_end; i += 4) {
            foldOne<W>(view, i + 0, wlo, whi, stat, dead, odist,
                       deadLimit, banks[0], r.fddRegExposures);
            foldOne<W>(view, i + 1, wlo, whi, stat, dead, odist,
                       deadLimit, banks[1], r.fddRegExposures);
            foldOne<W>(view, i + 2, wlo, whi, stat, dead, odist,
                       deadLimit, banks[2], r.fddRegExposures);
            foldOne<W>(view, i + 3, wlo, whi, stat, dead, odist,
                       deadLimit, banks[3], r.fddRegExposures);
        }
        for (; i != total; ++i)
            foldOne<W>(view, i, wlo, whi, stat, dead, odist,
                       deadLimit, banks[0], r.fddRegExposures);
    };

#if SER_AVF_SIMD
    // The batch kernel needs: AVX2, a deadness table wide enough for
    // the clamped kind gather, and window bounds that fit the u32
    // lane compares (cycle columns are u32, so any in-range record
    // does; a wider bound only occurs in synthetic traces).
    if (__builtin_cpu_supports("avx2") && deadLimit >= 4 &&
        wlo <= 0xffffffffull && whi <= 0xffffffffull) {
        foldAvx2(view, total, wlo, whi, stat, dead, odist, deadLimit,
                 whole, banks, r.fddRegExposures);
    } else
#endif
    if (whole)
        foldScalar(std::true_type{});
    else
        foldScalar(std::false_type{});

    // Multiply the per-class rates back in, once per class. Every
    // incarnation lands its pre in exactly one preSum slot, so the
    // occupancy integral is the class total plus the post sum, and
    // the rate products distribute over the class sums — bit-exact
    // against the per-incarnation fold (u64 arithmetic throughout).
    std::uint64_t preTotal = 0;
    for (unsigned k = 0; k < kNumClassCodes; ++k) {
        banks[0].preSum[k] += banks[1].preSum[k] +
                              banks[2].preSum[k] +
                              banks[3].preSum[k];
        preTotal += banks[0].preSum[k];
    }
    const std::uint64_t postTotal = banks[0].post + banks[1].post +
                                    banks[2].post + banks[3].post;
    const std::uint64_t occupied =
        (preTotal + postTotal) * payloadBits;
    r.squashedUnread = banks[0].preSum[kSquashed] * payloadBits;
    r.exAce = postTotal * payloadBits;
    r.aceRefined = banks[0].ref + banks[1].ref + banks[2].ref +
                   banks[3].ref;
    for (unsigned k = kWrongPath; k < kNumClassCodes; ++k) {
        const std::uint64_t pre_k = banks[0].preSum[k];
        r.ace += classRates[k].ace * pre_k;
        r.aceRefined += classRates[k].aceRefined * pre_k;
        r.unAceRead[classRates[k].source] +=
            classRates[k].unAceRead * pre_k;
    }

    if (occupied > r.totalBitCycles)
        SER_PANIC("avf: occupied bit-cycles {} exceed total {}",
                  occupied, r.totalBitCycles);
    r.idle = r.totalBitCycles - occupied;
    return r;
}

} // namespace avf
} // namespace ser
