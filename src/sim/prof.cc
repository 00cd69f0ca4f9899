#include "prof.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "sim/logging.hh"

namespace ser
{
namespace prof
{

namespace detail
{
std::atomic<bool> enabledFlag{false};
} // namespace detail

namespace
{

/** One thread's counter slots. Fixed-size so the owning thread's
 * relaxed stores never race a reallocation; the registry below
 * tracks live buffers and folds a buffer into the retired totals
 * when its thread exits. */
struct ThreadBuffer
{
    std::atomic<std::uint64_t> slots[maxCounters] = {};
};

struct ScopeAcc
{
    std::uint64_t calls = 0;
    double seconds = 0.0;
};

/** Global interning table, live-thread list and retired totals.
 * All cold-path state: the mutex is taken on interning, thread
 * birth/death, scope exit and snapshot — never on Counter::add. */
struct Registry
{
    std::mutex lock;
    std::vector<std::string> names;      // by counter id
    std::vector<std::string> descs;      // by counter id
    std::map<std::string, std::size_t> ids;
    std::uint64_t retired[maxCounters] = {};
    std::vector<ThreadBuffer *> live;
    std::map<std::string, ScopeAcc> scopes;
};

Registry &
registry()
{
    static Registry *r = new Registry;  // leaked: outlives TLS dtors
    return *r;
}

/** Registers with the registry at first touch and retires (merges
 * and unregisters) at thread exit. */
struct ThreadBufferHolder
{
    ThreadBuffer buffer;

    ThreadBufferHolder()
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> guard(r.lock);
        r.live.push_back(&buffer);
    }

    ~ThreadBufferHolder()
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> guard(r.lock);
        for (std::size_t i = 0; i < maxCounters; ++i)
            r.retired[i] +=
                buffer.slots[i].load(std::memory_order_relaxed);
        r.live.erase(std::find(r.live.begin(), r.live.end(),
                               &buffer));
    }
};

ThreadBuffer &
threadBuffer()
{
    thread_local ThreadBufferHolder holder;
    return holder.buffer;
}

thread_local std::string openScopePath;

} // namespace

void
setEnabled(bool on)
{
    detail::enabledFlag.store(on, std::memory_order_relaxed);
}

Counter::Counter(std::string_view name, std::string_view desc)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> guard(r.lock);
    auto it = r.ids.find(std::string(name));
    if (it != r.ids.end()) {
        _id = it->second;
        return;
    }
    if (r.names.size() >= maxCounters)
        SER_PANIC("prof: more than {} counters interned (adding "
                  "'{}')", maxCounters, std::string(name));
    _id = r.names.size();
    r.names.emplace_back(name);
    r.descs.emplace_back(desc);
    r.ids.emplace(r.names.back(), _id);
}

void
Counter::add(std::uint64_t v)
{
    if (!enabled())
        return;
    // Single-writer slot: a plain load/store pair is cheaper than a
    // locked RMW and still gives snapshot() untorn reads.
    std::atomic<std::uint64_t> &slot = threadBuffer().slots[_id];
    slot.store(slot.load(std::memory_order_relaxed) + v,
               std::memory_order_relaxed);
}

ScopedTimer::ScopedTimer(std::string_view name, Phases *sink)
    : _name(name), _sink(sink), _inTree(enabled())
{
    if (_inTree) {
        _parentLen = openScopePath.size();
        if (_parentLen)
            openScopePath += '/';
        openScopePath += name;
    }
    if (_inTree || _sink)
        _start = std::chrono::steady_clock::now();
}

ScopedTimer::~ScopedTimer()
{
    if (!_inTree && !_sink)
        return;
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - _start;
    if (_sink)
        _sink->emplace_back(_name, elapsed.count());
    if (!_inTree)
        return;
    Registry &r = registry();
    {
        std::lock_guard<std::mutex> guard(r.lock);
        ScopeAcc &acc = r.scopes[openScopePath];
        acc.calls += 1;
        acc.seconds += elapsed.count();
    }
    openScopePath.resize(_parentLen);
}

Snapshot
snapshot()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> guard(r.lock);

    Snapshot snap;
    snap.counters.reserve(r.names.size());
    for (std::size_t i = 0; i < r.names.size(); ++i) {
        CounterSample s;
        s.name = r.names[i];
        s.desc = r.descs[i];
        s.value = r.retired[i];
        for (ThreadBuffer *buffer : r.live)
            s.value +=
                buffer->slots[i].load(std::memory_order_relaxed);
        snap.counters.push_back(std::move(s));
    }
    std::sort(snap.counters.begin(), snap.counters.end(),
              [](const CounterSample &a, const CounterSample &b) {
                  return a.name < b.name;
              });

    snap.scopes.reserve(r.scopes.size());
    for (const auto &entry : r.scopes)
        snap.scopes.push_back(
            {entry.first, entry.second.calls, entry.second.seconds});
    // std::map iterates sorted already; keep it explicit anyway.
    return snap;
}

void
reset()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> guard(r.lock);
    for (std::size_t i = 0; i < maxCounters; ++i)
        r.retired[i] = 0;
    for (ThreadBuffer *buffer : r.live)
        for (std::size_t i = 0; i < maxCounters; ++i)
            buffer->slots[i].store(0, std::memory_order_relaxed);
    r.scopes.clear();
}

} // namespace prof
} // namespace ser
