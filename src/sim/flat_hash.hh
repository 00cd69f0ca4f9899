/**
 * @file
 * A small open-addressing hash map for the simulator's hot paths:
 * the deadness pass's per-word state (avf/deadness.cc), the
 * architectural page table and the hierarchy's in-flight miss index.
 *
 * Parallel key/value arrays, a murmur-finalizer bit mix, linear
 * probing, and growth at 0.7 load. Keys are 64-bit integers and the
 * all-ones value is reserved as the empty sentinel, which every
 * current user can guarantee by construction (page indices, cache
 * line addresses and word addresses never reach 2^64-1).
 *
 * Unlike the node-based std::unordered_map this replaces, a probe
 * touches one or two contiguous cache lines and a miss costs no
 * allocation. Deletion uses the standard backward-shift fixup for
 * linear probing, so no tombstones accumulate and lookup cost stays
 * proportional to the live load factor.
 *
 * Iteration (forEach) visits slots in table order, which depends on
 * the hash layout — callers that need deterministic output must sort
 * or otherwise canonicalize what they extract, exactly as they had
 * to with unordered_map.
 */

#ifndef SER_SIM_FLAT_HASH_HH
#define SER_SIM_FLAT_HASH_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ser
{
namespace sim
{

/** Open-addressing map from uint64 keys to trivially-copyable,
 * default-constructible values. The key ~0 is reserved. */
template <typename Value>
class FlatHashMap
{
  public:
    static constexpr std::uint64_t emptyKey = ~std::uint64_t{0};

    FlatHashMap() = default;

    /** Pre-size the table for about n live entries (it still grows on
     * demand past that). */
    explicit FlatHashMap(std::size_t n) { reserve(n); }

    void
    reserve(std::size_t n)
    {
        std::size_t cap = 64;
        while (cap * 7 < n * 10)
            cap <<= 1;
        if (cap > capacity())
            rehash(cap);
    }

    Value *
    find(std::uint64_t key)
    {
        if (_keys.empty())
            return nullptr;
        std::size_t i = probe(key);
        return _keys[i] == key ? &_vals[i] : nullptr;
    }

    const Value *
    find(std::uint64_t key) const
    {
        if (_keys.empty())
            return nullptr;
        std::size_t i = probe(key);
        return _keys[i] == key ? &_vals[i] : nullptr;
    }

    bool contains(std::uint64_t key) const { return find(key); }

    /** The value for 'key', default-inserting it when absent. */
    Value &
    operator[](std::uint64_t key)
    {
        if (_keys.empty())
            rehash(64);
        std::size_t i = probe(key);
        if (_keys[i] != key) {
            if ((_size + 1) * 10 > capacity() * 7) {
                rehash(capacity() * 2);
                i = probe(key);
            }
            _keys[i] = key;
            ++_size;
        }
        return _vals[i];
    }

    /** Remove 'key' if present; backward-shifts the probe run so no
     * tombstone is left behind. */
    bool
    erase(std::uint64_t key)
    {
        if (_keys.empty())
            return false;
        std::size_t i = probe(key);
        if (_keys[i] != key)
            return false;
        std::size_t j = i;
        while (true) {
            j = (j + 1) & _mask;
            if (_keys[j] == emptyKey)
                break;
            // An element probing from home slot h may slide back into
            // the hole at i only if i lies on its probe path, i.e. h
            // is cyclically no later than i.
            std::size_t h = home(_keys[j]);
            if (((j - h) & _mask) >= ((j - i) & _mask)) {
                _keys[i] = _keys[j];
                _vals[i] = _vals[j];
                i = j;
            }
        }
        _keys[i] = emptyKey;
        _vals[i] = Value{};
        --_size;
        return true;
    }

    /** Drop every entry for which pred(key, value) holds. Rebuilds
     * the table in one pass — meant for periodic sweeps, not the
     * per-access path. */
    template <typename Pred>
    void
    eraseIf(Pred pred)
    {
        if (!_size)
            return;
        std::vector<std::uint64_t> keep_keys;
        std::vector<Value> keep_vals;
        keep_keys.reserve(_size);
        keep_vals.reserve(_size);
        for (std::size_t i = 0; i < _keys.size(); ++i) {
            if (_keys[i] == emptyKey || pred(_keys[i], _vals[i]))
                continue;
            keep_keys.push_back(_keys[i]);
            keep_vals.push_back(_vals[i]);
        }
        std::fill(_keys.begin(), _keys.end(), emptyKey);
        std::fill(_vals.begin(), _vals.end(), Value{});
        _size = 0;
        for (std::size_t i = 0; i < keep_keys.size(); ++i)
            (*this)[keep_keys[i]] = keep_vals[i];
    }

    /** Visit every (key, value) pair in table order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t i = 0; i < _keys.size(); ++i) {
            if (_keys[i] != emptyKey)
                f(_keys[i], _vals[i]);
        }
    }

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    void
    clear()
    {
        std::fill(_keys.begin(), _keys.end(), emptyKey);
        std::fill(_vals.begin(), _vals.end(), Value{});
        _size = 0;
    }

  private:
    std::size_t capacity() const { return _mask ? _mask + 1 : 0; }

    static std::size_t
    mix(std::uint64_t key)
    {
        // Murmur3 finalizer: keys on the hot paths (page indices,
        // line addresses) share low zero bits and cluster by region,
        // so a plain mask would probe long runs.
        std::uint64_t h = key;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        return static_cast<std::size_t>(h);
    }

    std::size_t home(std::uint64_t key) const { return mix(key) & _mask; }

    /** Slot holding 'key', or the empty slot where it belongs. */
    std::size_t
    probe(std::uint64_t key) const
    {
        std::size_t i = home(key);
        while (_keys[i] != key && _keys[i] != emptyKey)
            i = (i + 1) & _mask;
        return i;
    }

    void
    rehash(std::size_t cap)
    {
        std::vector<std::uint64_t> old_keys = std::move(_keys);
        std::vector<Value> old_vals = std::move(_vals);
        _keys.assign(cap, emptyKey);
        _vals.assign(cap, Value{});
        _mask = cap - 1;
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] == emptyKey)
                continue;
            std::size_t j = probe(old_keys[i]);
            _keys[j] = old_keys[i];
            _vals[j] = old_vals[i];
        }
    }

    std::vector<std::uint64_t> _keys;
    std::vector<Value> _vals;
    std::size_t _mask = 0;
    std::size_t _size = 0;
};

} // namespace sim
} // namespace ser

#endif // SER_SIM_FLAT_HASH_HH
