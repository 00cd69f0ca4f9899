#include "program.hh"

#include <mutex>
#include <sstream>
#include <utility>

#include "isa/arch_state.hh"
#include "sim/logging.hh"
#include "sim/prof.hh"

namespace ser
{
namespace isa
{

struct Program::Memo
{
    std::once_flag hashOnce;
    std::uint64_t hash = 0;
    std::once_flag imageOnce;
    SparseMemory image;
};

Program::Program() : Program({}, {}, 0, {}) {}

Program::Program(std::vector<StaticInst> insts,
                 std::map<std::string, std::size_t> labels,
                 std::size_t entry, sim::Column<DataInit> data)
    : _insts(std::move(insts)), _labels(std::move(labels)),
      _entry(entry), _data(std::move(data)),
      _memo(std::make_shared<Memo>())
{
}

std::size_t
Program::labelIndex(const std::string &name) const
{
    auto it = _labels.find(name);
    if (it == _labels.end())
        SER_FATAL("program: undefined label '{}'", name);
    return it->second;
}

bool
Program::hasLabel(const std::string &name) const
{
    return _labels.count(name) > 0;
}

std::uint64_t
Program::contentHash() const
{
    std::call_once(_memo->hashOnce, [this] {
        // One 64-bit word per step: xor it in, multiply by an odd
        // constant, fold the high half down. Each step is a
        // bijection of the state for a fixed word, so changing any
        // one word always changes the hash.
        std::uint64_t h = 14695981039346656037ull;
        auto mix = [&h](std::uint64_t v) {
            h ^= v;
            h *= 0x9e3779b97f4a7c15ull;
            h ^= h >> 32;
        };
        mix(_insts.size());
        for (const StaticInst &inst : _insts)
            mix(inst.encode());
        mix(_data.size());
        for (const DataInit &init : _data) {
            mix(init.addr);
            mix(init.value);
        }
        mix(_entry);
        _memo->hash = h;
    });
    return _memo->hash;
}

const SparseMemory &
Program::dataImage() const
{
    std::call_once(_memo->imageOnce, [this] {
        // Once per program, under whichever scope asked first (a
        // run's pipeline construction, as a rule).
        SER_PROF_SCOPE("data_image");
        for (const DataInit &init : _data)
            _memo->image.writeWord(init.addr, init.value);
    });
    return _memo->image;
}

void
Program::instOutOfRange(std::size_t index) const
{
    SER_PANIC("program: instruction index {} out of range ({})",
              index, _insts.size());
}

bool
Program::addrInCode(std::uint64_t addr, std::size_t num_insts)
{
    return addr >= codeBase && addr % instBytes == 0 &&
           (addr - codeBase) / instBytes < num_insts;
}

std::size_t
Program::addrToIndex(std::uint64_t addr)
{
    return (addr - codeBase) / instBytes;
}

std::string
Program::disassemble() const
{
    // Invert the label map for printing.
    std::map<std::size_t, std::vector<std::string>> by_index;
    for (const auto &[name, index] : _labels)
        by_index[index].push_back(name);

    std::ostringstream os;
    for (std::size_t i = 0; i < _insts.size(); ++i) {
        auto it = by_index.find(i);
        if (it != by_index.end()) {
            for (const auto &name : it->second)
                os << name << ":\n";
        }
        os << "    " << _insts[i].toString() << "\n";
    }
    return os.str();
}

} // namespace isa
} // namespace ser
