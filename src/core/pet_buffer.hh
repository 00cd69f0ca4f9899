/**
 * @file
 * The Post-commit Error Tracking (PET) buffer (Section 4.3.3, (1)).
 *
 * A FIFO log of retired instructions. When the oldest entry is
 * evicted with its pi bit set, the buffer is scanned: if the entry's
 * destination was overwritten by a later retired instruction before
 * any read, the instruction was first-level dynamically dead and the
 * error was false — no machine check is raised. Otherwise the error
 * must be signalled (and, unlike the pi-bit-everywhere schemes, the
 * offending instruction is known precisely).
 *
 * Two interfaces are provided:
 *  - an operational PetBuffer the tests and fault-injection demos
 *    drive with a retired-instruction stream, and
 *  - an analytical petCoverage() that computes, from the deadness
 *    labels, what fraction of FDD instructions a given buffer size
 *    proves dead — the data behind the paper's Figure 3.
 */

#ifndef SER_CORE_PET_BUFFER_HH
#define SER_CORE_PET_BUFFER_HH

#include <cstdint>
#include <deque>
#include <optional>

#include "avf/deadness.hh"
#include "isa/static_inst.hh"
#include "sim/stats.hh"

namespace ser
{

namespace trace
{
class TraceWriter;
}

namespace core
{

/** One retired instruction as logged by the PET buffer. */
struct PetEntry
{
    std::uint64_t seq = 0;  ///< retire order
    isa::StaticInst inst;
    bool qpTrue = true;
    std::uint64_t memAddr = 0;  ///< stores/loads (memory mode)
    bool pi = false;            ///< possibly-incorrect bit
};

/** What happened when an entry with pi set was evicted. */
struct PetEviction
{
    std::uint64_t seq;     ///< the evicted instruction
    bool provenDead;       ///< overwrite-before-read found in buffer
    bool signalled;        ///< machine check raised
};

/** Operational FIFO PET buffer. */
class PetBuffer : public statistics::StatGroup
{
  public:
    /**
     * @param size buffer capacity in retired instructions
     * @param track_memory also prove dead stores (Figure 3's
     *        FDD-via-memory series); base design covers registers
     */
    explicit PetBuffer(std::size_t size, bool track_memory = false,
                       statistics::StatGroup *parent = nullptr);

    /**
     * Log a retired instruction. If the buffer was full, the oldest
     * entry is evicted; if its pi bit was set, the scan runs and the
     * eviction outcome is returned.
     */
    std::optional<PetEviction> retire(const PetEntry &entry);

    /** Drain remaining entries (end of run); pi-set entries that
     * cannot be proven dead are signalled. */
    std::vector<PetEviction> drain();

    std::size_t size() const { return _entries.size(); }
    std::size_t capacity() const { return _capacity; }

    /**
     * Attach a trace-event writer (may be null). Pi-bit sets (at log
     * time) and pi evictions (proven dead and deallocated, or
     * signalled as a machine check) are emitted as instants on the
     * PET track, timestamped by retire index — the buffer's natural
     * timebase, distinct from the pipeline's cycle timebase.
     */
    void setTraceWriter(trace::TraceWriter *tw);

  private:
    PetEviction evict();
    bool scanProvesDead(const PetEntry &victim) const;
    static bool readsReg(const PetEntry &entry, isa::RegClass rc,
                         std::uint8_t reg);
    static bool writesReg(const PetEntry &entry, isa::RegClass rc,
                          std::uint8_t reg);

    std::size_t _capacity;
    bool _trackMemory;
    std::deque<PetEntry> _entries;
    trace::TraceWriter *_tw = nullptr;
    std::uint64_t _retireTicks = 0;  ///< trace timebase

    statistics::Scalar statRetired;
    statistics::Scalar statPiEvictions;
    statistics::Scalar statProvenDead;
    statistics::Scalar statSignalled;
};

/** Analytical PET coverage of dead defs at one buffer size. */
struct PetCoverage
{
    // Population sizes (first-level dead defs by category).
    std::uint64_t fddRegNonReturn = 0;
    std::uint64_t fddRegReturn = 0;
    std::uint64_t fddMem = 0;
    // Of those, how many a size-S buffer proves dead.
    std::uint64_t coveredNonReturn = 0;
    std::uint64_t coveredReturn = 0;
    std::uint64_t coveredMem = 0;

    double fracNonReturn() const
    {
        return fddRegNonReturn ? double(coveredNonReturn) /
                                     double(fddRegNonReturn)
                               : 0.0;
    }
    /** Coverage of all FDD-via-register including return-FDDs. */
    double fracRegWithReturns() const
    {
        std::uint64_t total = fddRegNonReturn + fddRegReturn;
        return total ? double(coveredNonReturn + coveredReturn) /
                           double(total)
                     : 0.0;
    }
    /** Coverage of all FDD (registers + memory). */
    double fracAll() const
    {
        std::uint64_t total =
            fddRegNonReturn + fddRegReturn + fddMem;
        return total ? double(coveredNonReturn + coveredReturn +
                              coveredMem) /
                           double(total)
                     : 0.0;
    }
};

/** Coverage of a size-'size' PET buffer, from the deadness labels. */
PetCoverage petCoverage(const avf::DeadnessResult &deadness,
                        std::uint32_t size);

} // namespace core
} // namespace ser

#endif // SER_CORE_PET_BUFFER_HH
