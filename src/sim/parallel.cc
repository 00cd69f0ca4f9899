#include "parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ser
{

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    std::size_t workers = std::min<std::size_t>(jobs ? jobs : 1, n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex errorLock;

    auto work = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> guard(errorLock);
                if (!error)
                    error = std::current_exception();
            }
        }
    };

    {
        // jthread joins on scope exit, so the workers never outlive
        // the counter and error slot they share, even if spawning a
        // later worker throws.
        std::vector<std::jthread> pool;
        pool.reserve(workers - 1);
        for (std::size_t w = 1; w < workers; ++w)
            pool.emplace_back(work);
        work();  // the calling thread is worker 0
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace ser
