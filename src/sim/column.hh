/**
 * @file
 * An immutable, shareable array: the storage of the bulk trace and
 * deadness columns (cpu::SimTrace, avf::DeadnessResult).
 *
 * A Column is a (data pointer, size, owner) triple. The owner is a
 * type-erased shared_ptr that keeps the elements alive, and is one
 * of two things:
 *
 *  - a std::vector the Column adopted: the pipeline, the deadness
 *    pass and tests build plain vectors and move them in;
 *  - a read-only mapping of a disk-tier blob: the cache codec hands
 *    out views of the verified bytes where they lie instead of
 *    copying them (harness/cache_codec.hh).
 *
 * Readers see the same const array either way. Copies share the
 * owner, and nothing can write through a Column, so copies are cheap
 * and safe to read from any thread.
 */

#ifndef SER_SIM_COLUMN_HH
#define SER_SIM_COLUMN_HH

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace ser
{
namespace sim
{

template <typename T>
class Column
{
  public:
    using value_type = T;
    using const_iterator = const T *;

    Column() = default;

    /** Adopt a finished vector. Implicit, so `col = std::move(vec)`
     * reads as the hand-over it is. */
    Column(std::vector<T> &&values)
    {
        auto owned = std::make_shared<std::vector<T>>(std::move(values));
        _data = owned->data();
        _size = owned->size();
        _owner = std::move(owned);
    }

    /** View 'size' elements at 'data', alive while 'owner' is. */
    Column(const T *data, std::size_t size,
           std::shared_ptr<const void> owner)
        : _data(data), _size(size), _owner(std::move(owner))
    {
    }

    const T *data() const { return _data; }
    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }
    const T &operator[](std::size_t i) const { return _data[i]; }
    const T *begin() const { return _data; }
    const T *end() const { return _data + _size; }

  private:
    const T *_data = nullptr;
    std::size_t _size = 0;
    std::shared_ptr<const void> _owner;
};

} // namespace sim
} // namespace ser

#endif // SER_SIM_COLUMN_HH
