/**
 * @file
 * Register-file AVF analysis — the extension the paper's conclusion
 * points at: "Once these mechanisms are in place, they can also
 * reduce the AVF of other structures, such as the register file."
 *
 * Applies the same ACE methodology to the architectural register
 * files: a register's bits are ACE from a (live) def's writeback to
 * its last read, Ex-ACE from that last read until the overwrite, and
 * un-ACE for the whole lifetime of a dynamically dead value. The
 * un-ACE (dead-value) windows are exactly what the pi-bit-per-
 * register mechanism of Section 4.3.3 proves false on a parity-
 * protected register file, so the analysis also reports the false
 * DUE AVF that mechanism would remove.
 *
 * Timing comes from the committed stream: a value is charged from
 * its producer's commit cycle to its consumers' commit cycles (a
 * writeback-to-read approximation of register-file residency). One
 * forward walk materializes every value window (RegFileWindows); the
 * fold clips each to the measurement window [startCycle, endCycle),
 * like the IQ fold, so warm-up residency charges nothing, and the
 * fault injector classifies register strikes against the same
 * windows.
 */

#ifndef SER_AVF_REGFILE_AVF_HH
#define SER_AVF_REGFILE_AVF_HH

#include <array>
#include <cstdint>
#include <vector>

#include "avf/deadness.hh"
#include "cpu/trace.hh"
#include "isa/isa.hh"

namespace ser
{
namespace avf
{

/**
 * One value of one register: written at defCycle by commit
 * defCommit, held until closeCycle (the next def of the register, or
 * the end of the run), last read at lastReadCycle.
 */
struct RegWindow
{
    std::uint64_t defCycle = 0;
    std::uint64_t closeCycle = 0;
    std::uint64_t lastReadCycle = 0;  ///< defCycle if never read
    std::uint32_t defCommit = 0;
    bool read = false;
    bool dead = false;  ///< the def is dynamically dead
};

/** The value windows of the three architectural register files. */
class RegFileWindows
{
  public:
    /** No window holds the probed (file, reg, cycle). */
    static constexpr std::int64_t noWindow = -1;

    RegFileWindows(const cpu::SimTrace &trace,
                   const DeadnessResult &deadness);

    /** The windows of one register, in def order. */
    const std::vector<RegWindow> &windows(isa::RegClass file,
                                          std::size_t reg) const;

    /** Index into windows(file, reg) of the window holding the
     * register at 'cycle', or noWindow (unwritten so far). */
    std::int64_t find(isa::RegClass file, std::size_t reg,
                      std::uint64_t cycle) const;

    /** Dynamic step count after which a strike at 'cycle' lands:
     * every commit with commit cycle <= cycle has executed. */
    std::uint64_t stepFor(std::uint64_t cycle) const;

    std::uint64_t startCycle() const { return _startCycle; }
    std::uint64_t endCycle() const { return _endCycle; }

  private:
    /** Indexed [file - Int][reg]. */
    std::array<std::vector<std::vector<RegWindow>>, 3> _files;
    std::vector<std::uint64_t> _commitCycle;  ///< by commit index
    std::uint64_t _startCycle = 0;
    std::uint64_t _endCycle = 0;
};

/** AVF accounting for one register file. */
struct RegFileAvf
{
    std::uint64_t regs = 0;
    std::uint64_t bitsPerReg = 64;
    std::uint64_t totalBitCycles = 0;

    std::uint64_t ace = 0;        ///< live value, before last read
    std::uint64_t exAce = 0;      ///< after the last read
    std::uint64_t deadValue = 0;  ///< value of a dead def (un-ACE)
    std::uint64_t unwritten = 0;  ///< never defined in the window
    /** Any read value, dead or not, before its last read: the
     * bit-cycles whose strike a later read would see. Overlaps the
     * classes above (ACE plus part of deadValue). */
    std::uint64_t preRead = 0;

    double frac(std::uint64_t x) const
    {
        return totalBitCycles ? static_cast<double>(x) /
                                    static_cast<double>(
                                        totalBitCycles)
                              : 0.0;
    }

    /** SDC AVF of the unprotected file. */
    double sdcAvf() const { return frac(ace); }

    /** False DUE AVF of a parity-protected file: the whole dead
     * window, the conservative bound the pi-per-register bit
     * removes. */
    double falseDueAvf() const { return frac(deadValue); }

    /** DUE AVF of a parity-protected file that signals on read:
     * exactly the strikes a read detects. */
    double dueAvf() const { return frac(preRead); }
};

/** The three architectural files. */
struct RegFileAvfResult
{
    RegFileAvf intFile;
    RegFileAvf fpFile;
    RegFileAvf predFile;
};

/** Fold the value windows into register-file AVFs. */
RegFileAvfResult computeRegFileAvf(const RegFileWindows &windows);

/** Walk the committed stream and fold it into register-file AVFs. */
RegFileAvfResult computeRegFileAvf(const cpu::SimTrace &trace,
                                   const DeadnessResult &deadness);

} // namespace avf
} // namespace ser

#endif // SER_AVF_REGFILE_AVF_HH
