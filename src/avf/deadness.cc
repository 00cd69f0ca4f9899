#include "deadness.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "avf/range_min.hh"
#include "sim/flat_hash.hh"
#include "sim/logging.hh"
#include "sim/prof.hh"

namespace ser
{
namespace avf
{

const char *
deadKindName(DeadKind kind)
{
    switch (kind) {
      case DeadKind::Live: return "live";
      case DeadKind::FddReg: return "fdd_reg";
      case DeadKind::TddReg: return "tdd_reg";
      case DeadKind::FddMem: return "fdd_mem";
      case DeadKind::TddMem: return "tdd_mem";
    }
    return "?";
}

namespace
{

/** Backward-pass accumulator for one register or memory word: what
 * the *future* (already processed) does with the value defined by
 * the next write we encounter walking backward. */
struct FutureUse
{
    std::uint32_t nextWrite = noOverwrite;
    bool hasReader = false;
    bool allReadersDead = true;
    /** Some dead reader funnels the value toward memory, so the
     * deadness is only establishable with memory tracking. */
    bool viaMemory = false;
};

bool
hardwiredInt(std::uint8_t reg)
{
    return reg == 0;
}

bool
hardwiredFp(std::uint8_t reg)
{
    return reg <= 1;
}

bool
hardwiredPred(std::uint8_t reg)
{
    return reg == 0;
}

} // namespace

DeadnessResult
analyzeDeadness(const cpu::SimTrace &trace)
{
    SER_PROF_SCOPE("deadness_scan");
    static prof::Counter scanned(
        "deadness.commits_scanned",
        "Committed instructions classified by the deadness "
        "backward pass.");

    const isa::Program &program = *trace.program;
    const auto &commits = trace.commits;
    const std::size_t n = commits.size();
    scanned.add(n);

    DeadnessResult result;
    std::vector<DeadKind> kinds(n, DeadKind::Live);
    std::vector<std::uint32_t> overwrite_dist(n, noOverwrite);
    std::vector<std::uint64_t> return_fdd((n + 63) / 64, 0);
    result.numInsts = n;

    // Forward pass: call depth after each committed instruction.
    std::vector<std::int32_t> depth(n, 0);
    {
        std::int32_t d = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const auto &rec = commits[i];
            const isa::StaticInst &inst = program.inst(rec.staticIdx);
            if (rec.qpTrue) {
                if (inst.isCall())
                    ++d;
                else if (inst.isReturn())
                    --d;
            }
            depth[i] = d;
        }
    }
    RangeMin depth_min(depth);

    std::vector<FutureUse> int_state(isa::numIntRegs);
    std::vector<FutureUse> fp_state(isa::numFpRegs);
    std::vector<FutureUse> pred_state(isa::numPredRegs);
    // Word address -> FutureUse. Every key is a multiple of 8
    // (misaligned accesses split onto their two covering words), so
    // it never meets the map's all-ones sentinel, and the map is only
    // probed point-wise, so its layout cannot reach the result. One
    // word per four commits is generous for the suite surrogates (the
    // map grows past it); the clamp keeps a huge maxInsts hint from
    // ballooning the table.
    sim::FlatHashMap<FutureUse> mem_state(std::min<std::size_t>(
        n / 4 + 16, std::size_t{1} << 22));

    const bool complete = trace.programHalted;

    // Decide deadness of the def described by 'st', defined at index
    // i; returns Live when conservatism demands it.
    auto decide = [&](const FutureUse &st, std::size_t i, bool is_mem,
                      std::uint32_t &dist) -> DeadKind {
        bool bounded = st.nextWrite != noOverwrite || complete;
        if (!st.hasReader) {
            if (!bounded)
                return DeadKind::Live;  // a reader may follow the trace
            dist = st.nextWrite == noOverwrite
                       ? noOverwrite
                       : st.nextWrite - static_cast<std::uint32_t>(i);
            return is_mem ? DeadKind::FddMem : DeadKind::FddReg;
        }
        if (st.allReadersDead && bounded) {
            dist = st.nextWrite == noOverwrite
                       ? noOverwrite
                       : st.nextWrite - static_cast<std::uint32_t>(i);
            // A register def whose dead chain passes through memory
            // is "tracked via memory": only the pi-on-memory level
            // can prove it dead (Section 4.3.3).
            if (is_mem || st.viaMemory)
                return DeadKind::TddMem;
            return DeadKind::TddReg;
        }
        return DeadKind::Live;
    };

    // Does the defining frame exit between def i and overwrite j?
    auto crosses_return = [&](std::size_t i,
                              std::uint32_t next_write) -> bool {
        std::size_t j = next_write == noOverwrite
                            ? n - 1
                            : static_cast<std::size_t>(next_write);
        if (i + 1 > j)
            return false;
        return depth_min.min(i + 1, j) < depth[i];
    };

    for (std::size_t idx = n; idx-- > 0;) {
        const auto &rec = commits[idx];
        const isa::StaticInst &inst = program.inst(rec.staticIdx);
        const isa::OpInfo &oi = inst.info();

        DeadKind kind = DeadKind::Live;

        if (rec.qpTrue) {
            // --- the def (register destination or stored word) ---
            bool always_live = oi.isOutput || inst.isBranch() ||
                               inst.isHalt() || oi.isNeutral;
            if (inst.hasDst()) {
                FutureUse *st = nullptr;
                bool hardwired = false;
                switch (inst.dstClass()) {
                  case isa::RegClass::Int:
                    st = &int_state[inst.dst()];
                    hardwired = hardwiredInt(inst.dst());
                    break;
                  case isa::RegClass::Fp:
                    st = &fp_state[inst.dst()];
                    hardwired = hardwiredFp(inst.dst());
                    break;
                  case isa::RegClass::Pred:
                    st = &pred_state[inst.dst()];
                    hardwired = hardwiredPred(inst.dst());
                    break;
                  case isa::RegClass::None:
                    break;
                }
                ++result.numDefs;
                std::uint32_t dist = noOverwrite;
                if (hardwired) {
                    // Writes to hardwired registers are discarded by
                    // the hardware: trivially first-level dead.
                    if (!always_live) {
                        kind = DeadKind::FddReg;
                        dist = 1;
                    }
                } else if (!always_live) {
                    kind = decide(*st, idx, false, dist);
                    if (kind == DeadKind::FddReg &&
                        crosses_return(idx, st->nextWrite)) {
                        return_fdd[idx / 64] |= 1ull << (idx % 64);
                        ++result.numReturnFdd;
                    }
                }
                if (!hardwired) {
                    st->nextWrite = static_cast<std::uint32_t>(idx);
                    st->hasReader = false;
                    st->allReadersDead = true;
                    st->viaMemory = false;
                }
                overwrite_dist[idx] = dist;
            } else if (inst.isStore()) {
                ++result.numDefs;
                std::uint32_t dist = noOverwrite;
                if (rec.memAddr % 8 != 0) {
                    // Misaligned: partial overwrite; stay
                    // conservative on both touched words.
                    for (std::uint64_t w : {rec.memAddr / 8 * 8,
                                            rec.memAddr / 8 * 8 + 8}) {
                        FutureUse &ms = mem_state[w];
                        ms.hasReader = true;
                        ms.allReadersDead = false;
                    }
                } else {
                    FutureUse &ms = mem_state[rec.memAddr];
                    kind = decide(ms, idx, true, dist);
                    ms.nextWrite = static_cast<std::uint32_t>(idx);
                    ms.hasReader = false;
                    ms.allReadersDead = true;
                    ms.viaMemory = false;
                    overwrite_dist[idx] = dist;
                }
            }
        }

        kinds[idx] = kind;
        switch (kind) {
          case DeadKind::FddReg: ++result.numFddReg; break;
          case DeadKind::TddReg: ++result.numTddReg; break;
          case DeadKind::FddMem: ++result.numFddMem; break;
          case DeadKind::TddMem: ++result.numTddMem; break;
          case DeadKind::Live: break;
        }
        const bool dead_now = kind != DeadKind::Live;

        // --- the reads (attributed to older defs) ---
        // The qualifying predicate is read even by nullified
        // instructions, and qp reads are conservatively live uses.
        if (inst.qp() != 0 && !hardwiredPred(inst.qp())) {
            FutureUse &st = pred_state[inst.qp()];
            st.hasReader = true;
            st.allReadersDead = false;
        }
        if (rec.qpTrue) {
            // A use is "dead" (propagates transitivity) when the
            // reading instruction is itself dead or neutral. Two
            // exceptions: the address register of a store is always
            // a live use — corrupting it would clobber live memory —
            // and branch/output readers are live by construction
            // (dead_now is false for them).
            const bool dead_use = dead_now || oi.isNeutral;
            // A read by a dead store (or by anything itself dead via
            // memory) taints the producing def as via-memory.
            const bool mem_taint =
                dead_use && (kind == DeadKind::FddMem ||
                             kind == DeadKind::TddMem);
            auto record_read = [&](isa::RegClass rc, std::uint8_t reg,
                                   bool is_dead_use) {
                switch (rc) {
                  case isa::RegClass::Int:
                    if (!hardwiredInt(reg)) {
                        int_state[reg].hasReader = true;
                        int_state[reg].allReadersDead &= is_dead_use;
                        int_state[reg].viaMemory |= mem_taint;
                    }
                    break;
                  case isa::RegClass::Fp:
                    if (!hardwiredFp(reg)) {
                        fp_state[reg].hasReader = true;
                        fp_state[reg].allReadersDead &= is_dead_use;
                        fp_state[reg].viaMemory |= mem_taint;
                    }
                    break;
                  case isa::RegClass::Pred:
                    if (!hardwiredPred(reg)) {
                        pred_state[reg].hasReader = true;
                        pred_state[reg].allReadersDead &= is_dead_use;
                        pred_state[reg].viaMemory |= mem_taint;
                    }
                    break;
                  case isa::RegClass::None:
                    break;
                }
            };
            record_read(oi.src1Class, inst.src1(),
                        dead_use && !inst.isStore());
            record_read(oi.src2Class, inst.src2(), dead_use);

            if (inst.isLoad()) {
                if (rec.memAddr % 8 != 0) {
                    for (std::uint64_t w :
                         {rec.memAddr / 8 * 8,
                          rec.memAddr / 8 * 8 + 8}) {
                        FutureUse &ms = mem_state[w];
                        ms.hasReader = true;
                        ms.allReadersDead = false;
                    }
                } else {
                    FutureUse &ms = mem_state[rec.memAddr];
                    ms.hasReader = true;
                    ms.allReadersDead &= dead_now;
                }
            }
        }
    }

    result.kind = std::move(kinds);
    result.overwriteDist = std::move(overwrite_dist);
    result.returnFddWords = std::move(return_fdd);
    return result;
}

} // namespace avf
} // namespace ser
