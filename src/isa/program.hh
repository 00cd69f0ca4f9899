/**
 * @file
 * Program: a TIA64 executable image.
 *
 * Holds the static instruction sequence (instruction i lives at
 * address codeBase + i * instBytes), named labels, the entry point
 * and the initial contents of the data segment. Programs are
 * produced either by the assembler (from text) or directly by the
 * workload builder, and nothing changes one after its constructor:
 * a built program is a value that every run, the run cache and the
 * disk tier share read-only.
 */

#ifndef SER_ISA_PROGRAM_HH
#define SER_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "isa/static_inst.hh"
#include "sim/column.hh"

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
    /** The empty program. */
    Program();

    /** A program from all of its parts. 'entry' is an instruction
     * index; 'data' is written in order, so a repeated address holds
     * its last value. A moved-from program may only be assigned to
     * or destroyed. */
    Program(std::vector<StaticInst> insts,
            std::map<std::string, std::size_t> labels,
            std::size_t entry, sim::Column<DataInit> data);

    /** Look up a label; fatal error if undefined. */
    std::size_t labelIndex(const std::string &name) const;
    bool hasLabel(const std::string &name) const;

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

    const std::vector<StaticInst> &instructions() const
    {
        return _insts;
    }
    const sim::Column<DataInit> &dataInits() const { return _data; }
    const std::map<std::string, std::size_t> &labels() const
    {
        return _labels;
    }

    /** Entry point (instruction index); 0 for the empty program. */
    std::size_t entry() const { return _entry; }

    /**
     * A multiply-xorshift hash, one 64-bit word per step, over the
     * canonical encoding of every instruction, the data initialisers
     * and the entry point: equal-content programs hash equal
     * regardless of object identity (the run cache's content
     * address). The walk reads every data word — millions on
     * the large-working-set surrogates — so it runs at most once per
     * program, on first call, and a program's copies share the
     * result. Concurrent first callers on one shared program are
     * race-free.
     */
    std::uint64_t contentHash() const;

    /**
     * The initial data segment as a memory image: every dataInits()
     * word written in order. ArchState::reset copies it, sharing its
     * pages copy-on-write, instead of replaying millions of words per
     * run. Built at most once and shared like contentHash(); the
     * build is the `data_image` profiling scope. Read it
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
    /** contentHash() and dataImage(), each computed at most once.
     * Copies are equal by construction, so they share one. */
    struct Memo;

    [[noreturn]] void instOutOfRange(std::size_t index) const;

    std::vector<StaticInst> _insts;
    std::map<std::string, std::size_t> _labels;
    std::size_t _entry = 0;
    sim::Column<DataInit> _data;
    std::shared_ptr<Memo> _memo;
};

} // namespace isa
} // namespace ser

#endif // SER_ISA_PROGRAM_HH
