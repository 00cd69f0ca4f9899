#include "arch_state.hh"

#include <bit>
#include <cstring>

#include "sim/compiler.hh"
#include "sim/logging.hh"

namespace ser
{
namespace isa
{

const SparseMemory::Page *
SparseMemory::findPage(std::uint64_t addr) const
{
    const std::uint64_t page = addr / pageBytes;
    if (page == _lastPage)
        return _pageStore[_lastSlot].get();
    const std::uint32_t *slot = _pageTable.find(page);
    if (!slot)
        return nullptr;
    _lastPage = page;
    _lastSlot = *slot;
    return _pageStore[*slot].get();
}

SparseMemory::Page &
SparseMemory::getPage(std::uint64_t addr)
{
    const std::uint64_t page = addr / pageBytes;
    if (page != _lastPage) {
        std::uint32_t *slot = _pageTable.find(page);
        if (!slot) {
            slot = &_pageTable[page];
            *slot = static_cast<std::uint32_t>(_pageStore.size());
            _pageStore.push_back(std::make_shared<Page>());
        }
        _lastPage = page;
        _lastSlot = *slot;
    }
    // The ownership check runs on memo hits too: a copy taken since
    // the memo was set shares the page.
    std::shared_ptr<Page> &held = _pageStore[_lastSlot];
    if (SER_UNLIKELY(held.use_count() > 1))
        held = std::make_shared<Page>(*held);
    return *held;
}

std::uint8_t
SparseMemory::readByte(std::uint64_t addr) const
{
    const Page *page = findPage(addr);
    return page ? (*page)[addr % pageBytes] : 0;
}

void
SparseMemory::writeByte(std::uint64_t addr, std::uint8_t value)
{
    getPage(addr)[addr % pageBytes] = value;
}

std::uint64_t
SparseMemory::readWord(std::uint64_t addr) const
{
    // Fast path: the whole word lives in one page. Words are
    // little-endian by specification, so on a little-endian host the
    // assembly loop collapses to one unaligned 8-byte load.
    if (addr % pageBytes <= pageBytes - 8) {
        const Page *page = findPage(addr);
        if (!page)
            return 0;
        std::uint64_t off = addr % pageBytes;
        if constexpr (std::endian::native == std::endian::little) {
            std::uint64_t v;
            std::memcpy(&v, page->data() + off, 8);
            return v;
        } else {
            std::uint64_t v = 0;
            for (int i = 7; i >= 0; --i)
                v = (v << 8) |
                    (*page)[off + static_cast<std::uint64_t>(i)];
            return v;
        }
    }
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | readByte(addr + static_cast<std::uint64_t>(i));
    return v;
}

void
SparseMemory::writeWord(std::uint64_t addr, std::uint64_t value)
{
    if (addr % pageBytes <= pageBytes - 8) {
        Page &page = getPage(addr);
        std::uint64_t off = addr % pageBytes;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(page.data() + off, &value, 8);
        } else {
            for (int i = 0; i < 8; ++i) {
                page[off + static_cast<std::uint64_t>(i)] =
                    static_cast<std::uint8_t>(value >> (8 * i));
            }
        }
        return;
    }
    for (int i = 0; i < 8; ++i) {
        writeByte(addr + static_cast<std::uint64_t>(i),
                  static_cast<std::uint8_t>(value >> (8 * i)));
    }
}

bool
SparseMemory::equals(const SparseMemory &other) const
{
    auto zero = [](const Page &page) {
        for (std::uint8_t byte : page) {
            if (byte != 0)
                return false;
        }
        return true;
    };
    bool equal = true;
    _pageTable.forEach([&](std::uint64_t index, std::uint32_t slot) {
        if (!equal)
            return;
        const Page &page = *_pageStore[slot];
        const std::uint32_t *theirs = other._pageTable.find(index);
        if (!theirs) {
            if (!zero(page))
                equal = false;
            return;
        }
        const Page &their_page = *other._pageStore[*theirs];
        if (&page != &their_page && page != their_page)
            equal = false;
    });
    if (!equal)
        return false;
    other._pageTable.forEach(
        [&](std::uint64_t index, std::uint32_t slot) {
            if (!equal)
                return;
            if (!_pageTable.contains(index) &&
                !zero(*other._pageStore[slot]))
                equal = false;
        });
    return equal;
}

ArchState::ArchState()
{
    _fpRegs[1] = std::bit_cast<std::uint64_t>(1.0);
    _predRegs[0] = true;
}

void
ArchState::reset(const Program &program)
{
    _intRegs.fill(0);
    _fpRegs.fill(0);
    _fpRegs[1] = std::bit_cast<std::uint64_t>(1.0);
    _predRegs.fill(false);
    _predRegs[0] = true;
    _mem = program.dataImage();
    _output.clear();
}

std::uint64_t
ArchState::readInt(int reg) const
{
    return reg == 0 ? 0 : _intRegs[static_cast<std::size_t>(reg)];
}

void
ArchState::writeInt(int reg, std::uint64_t value)
{
    if (reg != 0)
        _intRegs[static_cast<std::size_t>(reg)] = value;
}

double
ArchState::readFp(int reg) const
{
    return std::bit_cast<double>(readFpBits(reg));
}

void
ArchState::writeFp(int reg, double value)
{
    writeFpBits(reg, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t
ArchState::readFpBits(int reg) const
{
    if (reg == 0)
        return 0;
    if (reg == 1)
        return std::bit_cast<std::uint64_t>(1.0);
    return _fpRegs[static_cast<std::size_t>(reg)];
}

void
ArchState::writeFpBits(int reg, std::uint64_t bits)
{
    if (reg > 1)
        _fpRegs[static_cast<std::size_t>(reg)] = bits;
}

bool
ArchState::readPred(int reg) const
{
    return reg == 0 ? true : _predRegs[static_cast<std::size_t>(reg)];
}

void
ArchState::writePred(int reg, bool value)
{
    if (reg != 0)
        _predRegs[static_cast<std::size_t>(reg)] = value;
}

bool
ArchState::equals(const ArchState &other) const
{
    return _intRegs == other._intRegs && _fpRegs == other._fpRegs &&
           _predRegs == other._predRegs && _output == other._output &&
           _mem.equals(other._mem);
}

} // namespace isa
} // namespace ser
