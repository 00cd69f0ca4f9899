/**
 * @file
 * ArchState: the full architectural state of a TIA64 machine.
 *
 * Registers (with the hardwired r0/f0/f1/p0 conventions), a sparse
 * paged 64-bit byte-addressable memory, and the program output stream
 * (the ACE sink — the only state an observer of the program can see).
 */

#ifndef SER_ISA_ARCH_STATE_HH
#define SER_ISA_ARCH_STATE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "isa/isa.hh"
#include "isa/program.hh"
#include "sim/flat_hash.hh"

namespace ser
{
namespace isa
{

/**
 * Sparse byte-addressable memory backed by 4 KiB pages.
 *
 * The page table is a flat open-addressing map from page index to a
 * slot in the page store (sim/flat_hash.hh), not a node-based
 * unordered_map: the oracle does one table probe per load/store,
 * making this the hottest map in the simulator. A one-entry memo of
 * the last page touched short-circuits the probe entirely for the
 * common run of consecutive accesses to the same stack or heap page.
 *
 * Pages are shared copy-on-write: copying a SparseMemory copies the
 * page table and one pointer per page, and a write clones its page
 * first only while another copy still holds it. Every run starts as
 * such a copy of its program's data image (Program::dataImage, built
 * once per program and shared by the program's copies), so even the
 * timing model's oracle clones each data page on its first store to
 * it; a page the run materializes itself is owned outright, and a
 * store to an owned page pays one reference-count load. Copies that
 * share pages may live on different threads: a shared page is only
 * ever read, since every writer clones it first.
 */
class SparseMemory
{
  public:
    static constexpr std::uint64_t pageBytes = 4096;

    std::uint8_t readByte(std::uint64_t addr) const;
    void writeByte(std::uint64_t addr, std::uint8_t value);

    /** Little-endian 8-byte accesses; unaligned accesses allowed. */
    std::uint64_t readWord(std::uint64_t addr) const;
    void writeWord(std::uint64_t addr, std::uint64_t value);

    /** Number of pages ever touched (for footprint statistics). */
    std::size_t numPages() const { return _pageStore.size(); }

    /**
     * Content equality. A page present on one side only counts as
     * equal when it is all zeroes, since untouched memory reads as
     * zero — two states that merely differ in which zero pages were
     * materialized are architecturally identical. Pages the two
     * sides still share are equal without being read.
     */
    bool equals(const SparseMemory &other) const;

  private:
    using Page = std::array<std::uint8_t, pageBytes>;

    static constexpr std::uint64_t noPage = ~std::uint64_t{0};

    const Page *findPage(std::uint64_t addr) const;
    /** The page holding 'addr', materialized and exclusively owned. */
    Page &getPage(std::uint64_t addr);

    /** Page index -> slot in _pageStore. Page indices are addresses
     * shifted down by 12 bits, so the flat map's ~0 sentinel is
     * unreachable. */
    sim::FlatHashMap<std::uint32_t> _pageTable;
    std::vector<std::shared_ptr<Page>> _pageStore;

    // Last-page memo (mutable: reads warm it too).
    mutable std::uint64_t _lastPage = noPage;
    mutable std::uint32_t _lastSlot = 0;
};

/** Registers + memory + output stream. */
class ArchState
{
  public:
    ArchState();

    /** Reset registers and output, and start memory as a copy of
     * the program's data image: a page table plus one pointer per
     * page, shared until written. */
    void reset(const Program &program);

    // Register accessors enforce the hardwired conventions.
    std::uint64_t readInt(int reg) const;
    void writeInt(int reg, std::uint64_t value);
    double readFp(int reg) const;
    void writeFp(int reg, double value);
    bool readPred(int reg) const;
    void writePred(int reg, bool value);

    /** Raw fp bits (for fst/fout and state comparison). */
    std::uint64_t readFpBits(int reg) const;
    void writeFpBits(int reg, std::uint64_t bits);

    SparseMemory &memory() { return _mem; }
    const SparseMemory &memory() const { return _mem; }

    void appendOutput(std::uint64_t value)
    {
        _output.push_back(value);
    }
    const std::vector<std::uint64_t> &output() const { return _output; }

    /** Full architectural equality: registers, memory, and output. */
    bool equals(const ArchState &other) const;

  private:
    std::array<std::uint64_t, numIntRegs> _intRegs{};
    std::array<std::uint64_t, numFpRegs> _fpRegs{};
    std::array<bool, numPredRegs> _predRegs{};
    SparseMemory _mem;
    std::vector<std::uint64_t> _output;
};

} // namespace isa
} // namespace ser

#endif // SER_ISA_ARCH_STATE_HH
