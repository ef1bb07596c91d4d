#include "util/parallel.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "util/task_pool.hpp"

namespace beesim::util {

unsigned default_thread_count() {
  // hardware_concurrency() can be an expensive syscall on some
  // platforms and its answer never changes: probe once, cache forever.
  static const unsigned cached = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1u : hw;
  }();
  return cached;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  unsigned threads) {
  if (!fn) throw std::invalid_argument("parallel_for: null function");
  if (threads == 0) threads = default_thread_count();
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(n, 1)));

  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  TaskPool::instance().run(n, fn, threads);
}

}  // namespace beesim::util
