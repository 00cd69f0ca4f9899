#include "injector.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ser
{
namespace faults
{

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::BenignNoBit: return "benign-no-bit";
      case Outcome::BenignNotRead: return "benign-not-read";
      case Outcome::Corrected: return "corrected";
      case Outcome::BenignNoError: return "benign-no-error";
      case Outcome::Sdc: return "sdc";
      case Outcome::FalseDue: return "false-due";
      case Outcome::TrueDue: return "true-due";
      case Outcome::NumOutcomes: break;
    }
    return "?";
}

const char *
structureName(Structure structure)
{
    switch (structure) {
      case Structure::Iq: return "iq";
      case Structure::IntRegFile: return "int-regfile";
      case Structure::FpRegFile: return "fp-regfile";
      case Structure::PredRegFile: return "pred-regfile";
    }
    return "?";
}

const char *
protectionName(Protection protection)
{
    switch (protection) {
      case Protection::None: return "none";
      case Protection::Parity: return "parity";
      case Protection::Ecc: return "ecc";
    }
    return "?";
}

Protection
parseProtection(const std::string &name)
{
    for (Protection protection :
         {Protection::None, Protection::Parity, Protection::Ecc})
        if (name == protectionName(protection))
            return protection;
    SER_FATAL("unknown protection '{}' (want none, parity or ecc)",
              name);
}

ResidencyIndex::ResidencyIndex(const cpu::SimTrace &trace)
    : _trace(trace), _byEntry(trace.iqEntries)
{
    const auto &incs = trace.incarnations;
    for (std::size_t i = 0; i < incs.size(); ++i) {
        const std::uint16_t entry = incs.iqEntry[i];
        if (entry < _byEntry.size())
            _byEntry[entry].push_back(
                static_cast<std::uint32_t>(i));
    }
    const std::uint32_t *enq = incs.enqueueCycle.data();
    for (auto &vec : _byEntry) {
        std::sort(vec.begin(), vec.end(),
                  [enq](std::uint32_t a, std::uint32_t b) {
                      return enq[a] < enq[b];
                  });
    }
}

std::int64_t
ResidencyIndex::find(std::uint16_t entry, std::uint64_t cycle) const
{
    if (entry >= _byEntry.size())
        return noIncarnation;
    const auto &vec = _byEntry[entry];
    const std::uint32_t *enq = _trace.incarnations.enqueueCycle.data();
    // Last residency with enqueueCycle <= cycle.
    auto it = std::upper_bound(
        vec.begin(), vec.end(), cycle,
        [enq](std::uint64_t c, std::uint32_t i) {
            return c < enq[i];
        });
    if (it == vec.begin())
        return noIncarnation;
    const std::uint32_t idx = *(it - 1);
    return cycle < _trace.incarnations.evictCycle[idx]
               ? static_cast<std::int64_t>(idx)
               : noIncarnation;
}

Outcome
label(const Verdict &verdict, Protection protection)
{
    if (verdict.residency < 0)
        return Outcome::BenignNoBit;  // nothing held there: outcome 1
    if (protection == Protection::Ecc) {
        // SECDED corrects any single-bit upset in the protected
        // block on read (the check bits included): outcome 2.
        return verdict.readAfter ? Outcome::Corrected
                                 : Outcome::BenignNotRead;
    }
    const bool parity = protection == Protection::Parity;
    switch (verdict.role) {
      case BitRole::Pi:
        // A spuriously set pi bit is examined only if the
        // instruction reaches the retire unit on the correct path;
        // there it signals a false error (Section 4.2).
        return verdict.committed ? Outcome::FalseDue
                                 : Outcome::BenignNotRead;
      case BitRole::Parity:
        if (!parity)
            return Outcome::BenignNoBit;
        // Detected on read; the payload is actually fine.
        return verdict.readAfter ? Outcome::FalseDue
                                 : Outcome::BenignNotRead;
      case BitRole::Valid:
        // Losing the valid bit of a correct-path instruction that
        // had yet to issue drops it from the program: SDC. Any
        // other case just frees (or resurrects-to-garbage) an entry
        // whose content no longer matters for the committed stream.
        return verdict.readAfter && verdict.committed &&
                       !verdict.wrongPath
                   ? Outcome::Sdc
                   : Outcome::BenignNotRead;
      case BitRole::Payload:
        break;
    }
    if (!verdict.readAfter) {
        // Struck after the last read (Ex-ACE) or in a residency
        // that was squashed before issue: the refetch or eviction
        // wipes the strike. Outcome 2.
        return Outcome::BenignNotRead;
    }
    if (verdict.wrongPath) {
        // The corrupted instruction issues but its results never
        // commit.
        return parity ? Outcome::FalseDue : Outcome::BenignNoError;
    }
    if (!verdict.reRan)
        SER_PANIC("label: a read payload strike needs its re-run to "
                  "be labelled under {}", protectionName(protection));
    if (parity)
        return verdict.outputChanged ? Outcome::TrueDue
                                     : Outcome::FalseDue;
    return verdict.outputChanged ? Outcome::Sdc
                                 : Outcome::BenignNoError;
}

namespace
{

BitRole
roleOf(int bit)
{
    switch (bit) {
      case validBit: return BitRole::Valid;
      case parityBit: return BitRole::Parity;
      case piBit: return BitRole::Pi;
    }
    return BitRole::Payload;
}

isa::RegClass
regClassOf(Structure structure)
{
    switch (structure) {
      case Structure::IntRegFile: return isa::RegClass::Int;
      case Structure::FpRegFile: return isa::RegClass::Fp;
      case Structure::PredRegFile: return isa::RegClass::Pred;
      case Structure::Iq: break;
    }
    SER_PANIC("regClassOf: not a register file structure");
}

void
recordRerun(Verdict &verdict, const ForkServer::Verdict &rerun)
{
    verdict.reRan = true;
    verdict.outputChanged = rerun.changed;
    verdict.rerunSteps = rerun.steps;
}

} // namespace

FaultInjector::FaultInjector(const isa::Program &program,
                             const cpu::SimTrace &trace,
                             std::vector<std::uint64_t> golden_output,
                             std::uint64_t rerun_budget)
    : _program(program), _trace(trace),
      _golden(std::move(golden_output)),
      _rerunBudget(rerun_budget
                       ? rerun_budget
                       : trace.commits.size() * 2 + 10000),
      _index(trace)
{
}

ForkServer::Verdict
FaultInjector::rerunWithCorruption(std::uint64_t oracle_seq,
                                   int bit) const
{
    if (_fork)
        return _fork->corruptEncoding(oracle_seq, 1ULL << bit);
    isa::Executor executor(_program);
    executor.setCorruption(oracle_seq, 1ULL << bit);
    isa::Termination term = executor.run(_rerunBudget);
    if (term == isa::Termination::Trap ||
        term == isa::Termination::MaxSteps)
        return {true, executor.steps()};  // trapped or ran away
    return {executor.state().output() != _golden, executor.steps()};
}

Verdict
FaultInjector::classify(const FaultSite &site,
                        bool counterfactual) const
{
    return site.structure == Structure::Iq
               ? classifyIq(site, counterfactual)
               : classifyRegister(site, counterfactual);
}

Verdict
FaultInjector::classifyIq(const FaultSite &site,
                          bool counterfactual) const
{
    Verdict verdict;
    const std::int64_t idx = _index.find(site.entry, site.cycle);
    if (idx == ResidencyIndex::noIncarnation)
        return verdict;

    const cpu::IncarnationRecord rec =
        _trace.incarnations[static_cast<std::size_t>(idx)];
    verdict.residency = idx;
    verdict.inst = rec.staticIdx;
    verdict.role = roleOf(site.bit);
    verdict.readAfter = rec.issueCycle != cpu::noCycle32 &&
                        site.cycle < rec.issueCycle;
    verdict.wrongPath = rec.flags & cpu::incWrongPath;
    verdict.committed = rec.flags & cpu::incCommitted;
    if (counterfactual && verdict.needsRerun())
        recordRerun(verdict,
                    rerunWithCorruption(rec.oracleSeq, site.bit));
    return verdict;
}

Verdict
FaultInjector::classifyRegister(const FaultSite &site,
                                bool counterfactual) const
{
    if (!_regs)
        SER_PANIC("FaultInjector: a {} strike needs register windows",
                  structureName(site.structure));
    const isa::RegClass file = regClassOf(site.structure);
    Verdict verdict;
    const std::int64_t idx = _regs->find(file, site.entry, site.cycle);
    if (idx == avf::RegFileWindows::noWindow)
        return verdict;  // unwritten / between value windows

    const avf::RegWindow &w = _regs->windows(
        file, site.entry)[static_cast<std::size_t>(idx)];
    verdict.residency = idx;
    verdict.inst = _trace.commits[w.defCommit].staticIdx;
    verdict.committed = true;  // the committed stream defines it
    // A strike at the last-read cycle lands after that read (the
    // analytical fold charges ACE over [def, lastRead)), so
    // read-after is strict.
    verdict.readAfter = w.read && site.cycle < w.lastReadCycle;
    if (counterfactual && verdict.needsRerun()) {
        if (!_fork)
            SER_PANIC("FaultInjector: register re-runs need a fork "
                      "server");
        recordRerun(verdict,
                    _fork->corruptRegister(_regs->stepFor(site.cycle),
                                           file, site.entry,
                                           site.bit));
    }
    return verdict;
}

} // namespace faults
} // namespace ser
