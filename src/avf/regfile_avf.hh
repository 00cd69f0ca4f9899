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
 * writeback-to-read approximation of register-file residency). Like
 * the IQ fold, every window is clipped to the measurement window
 * [startCycle, endCycle), so warm-up residency charges nothing.
 */

#ifndef SER_AVF_REGFILE_AVF_HH
#define SER_AVF_REGFILE_AVF_HH

#include <cstdint>
#include <string>

#include "avf/deadness.hh"
#include "cpu/trace.hh"

namespace ser
{
namespace avf
{

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

    double frac(std::uint64_t x) const
    {
        return totalBitCycles ? static_cast<double>(x) /
                                    static_cast<double>(
                                        totalBitCycles)
                              : 0.0;
    }

    /** SDC AVF of the unprotected file. */
    double sdcAvf() const { return frac(ace); }

    /** False DUE AVF of a parity-protected file that signals on
     * every read of a bad-parity register: dead values that do get
     * read... dead-by-definition values are read only by dead
     * consumers or not at all — with signal-on-read parity the
     * read ones signal. We charge the whole dead window, the
     * conservative bound the pi-per-register bit removes. */
    double falseDueAvf() const { return frac(deadValue); }
};

/** The three architectural files. */
struct RegFileAvfResult
{
    RegFileAvf intFile;
    RegFileAvf fpFile;
    RegFileAvf predFile;

    std::string summary() const;
};

/** Fold the committed stream into register-file AVFs. */
RegFileAvfResult computeRegFileAvf(const cpu::SimTrace &trace,
                                   const DeadnessResult &deadness);

} // namespace avf
} // namespace ser

#endif // SER_AVF_REGFILE_AVF_HH
