/**
 * @file
 * Program: a TIA64 executable image.
 *
 * Holds the static instruction sequence (instruction i lives at
 * address codeBase + i * instBytes), named labels, and the initial
 * contents of the data segment. Programs are produced either by the
 * assembler (from text) or directly by the workload builder.
 */

#ifndef SER_ISA_PROGRAM_HH
#define SER_ISA_PROGRAM_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/static_inst.hh"

namespace ser
{
namespace isa
{

class SparseMemory;

/** One 8-byte initialised data word. */
struct DataInit
{
    std::uint64_t addr;
    std::uint64_t value;
};

/** An executable TIA64 image. */
class Program
{
  public:
    Program() = default;

    /** Append an instruction; returns its instruction index. */
    std::size_t append(const StaticInst &inst);

    /** Define a label at the given instruction index. */
    void defineLabel(const std::string &name, std::size_t index);

    /** Look up a label; fatal error if undefined. */
    std::size_t labelIndex(const std::string &name) const;
    bool hasLabel(const std::string &name) const;

    /** Add an initial data word. */
    void addData(std::uint64_t addr, std::uint64_t value);

    std::size_t size() const { return _insts.size(); }
    bool empty() const { return _insts.empty(); }

    /** Instruction at an index; panics when out of range. Inline:
     * wrong-path fetch decodes through this accessor every cycle it
     * runs ahead, so it must be a bounds check and a load, not a
     * call (the panic itself stays out of line). */
    const StaticInst &
    inst(std::size_t index) const
    {
        if (index >= _insts.size())
            instOutOfRange(index);
        return _insts[index];
    }
    /** Writable access (the assembler's label fixups); drops the
     * contentHash() memo, since the caller may rewrite it. */
    StaticInst &
    inst(std::size_t index)
    {
        if (index >= _insts.size())
            instOutOfRange(index);
        _hash.clear();
        return _insts[index];
    }

    const std::vector<StaticInst> &instructions() const
    {
        return _insts;
    }
    const std::vector<DataInit> &dataInits() const { return _data; }
    const std::map<std::string, std::size_t> &labels() const
    {
        return _labels;
    }

    /** Entry point (instruction index); defaults to 0. */
    std::size_t entry() const { return _entry; }
    void
    setEntry(std::size_t index)
    {
        _entry = index;
        _hash.clear();
    }

    /**
     * FNV-1a over the canonical encoding of every instruction, the
     * data initialisers and the entry point: equal-content programs
     * hash equal regardless of object identity (the run cache's
     * content address). The walk reads every data word — millions on
     * the large-working-set surrogates — so the result is memoized:
     * every mutator drops the memo, a copy starts without one, and
     * concurrent first callers on one shared program are race-free
     * (they at worst compute it twice).
     */
    std::uint64_t contentHash() const;

    /**
     * The initial data segment as a memory image: every dataInits()
     * word written in order, so a repeated address holds its last
     * value. ArchState::reset copies it, sharing its pages
     * copy-on-write, instead of replaying millions of words per run.
     * Memoized like contentHash(): addData drops the memo, a copy
     * starts without one, and concurrent first callers on one shared
     * program are race-free (they at worst build it twice). Read it
     * through a copy: an in-place read warms the image's page memo,
     * which no two threads may do at once.
     */
    const SparseMemory &dataImage() const;

    /** Address <-> instruction-index mapping. */
    static std::uint64_t indexToAddr(std::size_t index)
    {
        return codeBase + index * instBytes;
    }
    static bool addrInCode(std::uint64_t addr, std::size_t num_insts);
    static std::size_t addrToIndex(std::uint64_t addr);

    /** Full text disassembly (with labels). */
    std::string disassemble() const;

  private:
    /** The contentHash() memo; 0 means not computed, so a program
     * whose hash is 0 recomputes it on every call. Copies and moves
     * never carry it over, and a move drops the source's too. */
    struct HashMemo
    {
        HashMemo() = default;
        HashMemo(const HashMemo &) {}
        HashMemo(HashMemo &&other) noexcept { other.clear(); }
        HashMemo &
        operator=(const HashMemo &)
        {
            clear();
            return *this;
        }
        HashMemo &
        operator=(HashMemo &&other) noexcept
        {
            clear();
            other.clear();
            return *this;
        }
        void clear() { value.store(0, std::memory_order_relaxed); }

        std::atomic<std::uint64_t> value{0};
    };

    /** The dataImage() memo, owned; null means not built. Copies
     * and moves never carry it over, as with HashMemo. clear() takes
     * no lock and no atomic read-modify-write, keeping addData's
     * per-word cost a plain load: a program being mutated is never
     * shared. */
    struct ImageMemo
    {
        ImageMemo() = default;
        ImageMemo(const ImageMemo &) {}
        ImageMemo(ImageMemo &&other) noexcept { other.clear(); }
        ImageMemo &
        operator=(const ImageMemo &)
        {
            clear();
            return *this;
        }
        ImageMemo &
        operator=(ImageMemo &&other) noexcept
        {
            clear();
            other.clear();
            return *this;
        }
        ~ImageMemo() { clear(); }
        /** Inline: addData runs it once per data word, millions of
         * times per surrogate, and almost never finds an image. */
        void
        clear()
        {
            if (const SparseMemory *image =
                    value.load(std::memory_order_relaxed)) {
                value.store(nullptr, std::memory_order_relaxed);
                destroy(image);
            }
        }
        /** Out of line: SparseMemory is incomplete here. */
        static void destroy(const SparseMemory *image);

        std::atomic<const SparseMemory *> value{nullptr};
    };

    [[noreturn]] void instOutOfRange(std::size_t index) const;

    std::vector<StaticInst> _insts;
    std::map<std::string, std::size_t> _labels;
    std::vector<DataInit> _data;
    std::size_t _entry = 0;
    mutable HashMemo _hash;
    mutable ImageMemo _image;
};

} // namespace isa
} // namespace ser

#endif // SER_ISA_PROGRAM_HH
