#include "program.hh"

#include <memory>
#include <sstream>

#include "isa/arch_state.hh"
#include "sim/logging.hh"

namespace ser
{
namespace isa
{

std::size_t
Program::append(const StaticInst &inst)
{
    _insts.push_back(inst);
    _hash.clear();
    return _insts.size() - 1;
}

void
Program::defineLabel(const std::string &name, std::size_t index)
{
    auto [it, inserted] = _labels.emplace(name, index);
    if (!inserted)
        SER_FATAL("program: duplicate label '{}'", name);
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

void
Program::addData(std::uint64_t addr, std::uint64_t value)
{
    _data.push_back({addr, value});
    _hash.clear();
    _image.clear();
}

std::uint64_t
Program::contentHash() const
{
    std::uint64_t h = _hash.value.load(std::memory_order_relaxed);
    if (h)
        return h;
    h = 14695981039346656037ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
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
    _hash.value.store(h, std::memory_order_relaxed);
    return h;
}

const SparseMemory &
Program::dataImage() const
{
    if (const SparseMemory *image =
            _image.value.load(std::memory_order_acquire))
        return *image;
    auto built = std::make_unique<SparseMemory>();
    for (const DataInit &init : _data)
        built->writeWord(init.addr, init.value);
    // Publish with release so a thread that loads the pointer sees
    // the finished pages; a racing builder that lost keeps the
    // winner's image and frees its own.
    const SparseMemory *expected = nullptr;
    if (_image.value.compare_exchange_strong(
            expected, built.get(), std::memory_order_acq_rel,
            std::memory_order_acquire))
        return *built.release();
    return *expected;
}

void
Program::ImageMemo::destroy(const SparseMemory *image)
{
    delete image;
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
