#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace beesim::util {

/// Epoch-guarded sleep for idle consumers (the task pool's workers and the
/// serving layer's event loops). The classic eventcount shape: a sleeper
/// reads the epoch (`prepare`), re-checks its queues, and only then sleeps
/// (`wait`) — the wait refuses to block if the epoch moved in between. A
/// producer makes its work visible first and bumps the epoch second
/// (`notify_all`), so every interleaving either lets the sleeper see the
/// work during its re-check or see the epoch change; a wakeup can never
/// fall between the cracks, and no sleeper needs a timed poll.
class EventCount {
 public:
  std::uint64_t prepare() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  void wait(std::uint64_t key) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] {
      return epoch_.load(std::memory_order_relaxed) != key;
    });
  }

  void notify_all() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      epoch_.fetch_add(1, std::memory_order_release);
    }
    cv_.notify_all();
  }

 private:
  std::atomic<std::uint64_t> epoch_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace beesim::util
