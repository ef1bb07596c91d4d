#pragma once

#include <cstddef>
#include <functional>

namespace beesim::util {

/// Runs fn(0) ... fn(n-1) across worker threads and blocks until all
/// complete. Used for the embarrassingly parallel loops of the
/// workbench — Monte-Carlo placement samples, per-resolution classifier
/// training, fleet sweeps, columnar advances — where each index owns its
/// data and RNG stream, so results are bitwise identical to the serial
/// order.
///
/// Dispatch goes through the process-wide persistent util::TaskPool
/// (task_pool.hpp): no threads are spawned per call, and a parallel_for
/// issued from inside another parallel_for composes as a task tree —
/// nested regions run wide on the same bounded worker set instead of
/// serializing (docs/ARCHITECTURE.md "Threading model").
///
/// Exceptions thrown by fn are captured; the first one (lowest index) is
/// rethrown on the calling thread after every index has run.
///
/// `threads` = 0 picks the hardware concurrency (at least 1) and
/// otherwise caps how many threads work the region at once. With
/// threads == 1 or n <= 1 the loop runs inline — no task is dispatched,
/// which keeps small cases cheap and debuggable.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  unsigned threads = 0);

/// The worker count parallel_for(…, 0) would use. Probes
/// std::thread::hardware_concurrency() once and caches the answer.
unsigned default_thread_count();

}  // namespace beesim::util
