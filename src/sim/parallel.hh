/**
 * @file
 * The one work-dispatch primitive: parallelFor.
 *
 * parallelFor: run fn(i) for every i in [0, n) on up to 'jobs'
 * threads (the calling thread is one of them). It lives in sim/ so
 * layers below the harness (the fault-injection campaign engine
 * shards its Monte-Carlo batches with it) can fan out without a
 * dependency cycle; the harness re-exports it as
 * harness::parallelFor.
 *
 * The workers are a fixed thread set for the call; each claims its
 * next index from one shared atomic counter until the range is
 * exhausted. Callers index results by i, so which worker ran an
 * index never affects aggregation order.
 *
 * fn must be safe to call concurrently for distinct indices. Every
 * index runs exactly once even if fn throws; the first exception is
 * re-thrown on the calling thread after all workers drain.
 * jobs == 0 or 1 runs serially inline, where an exception
 * propagates at once.
 */

#ifndef SER_SIM_PARALLEL_HH
#define SER_SIM_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace ser
{

void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &fn);

} // namespace ser

#endif // SER_SIM_PARALLEL_HH
