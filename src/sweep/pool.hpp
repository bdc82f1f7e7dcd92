// A small work-stealing thread pool for embarrassingly parallel sweeps.
//
// Each worker owns a queue and runs its tasks oldest first (FIFO), and
// steals the oldest task of a victim's queue when its own is empty.
// Submissions are dealt round-robin across workers, so tasks run in
// roughly submission order — the order the sweep engine folds in, which
// keeps its reorder window moving.
//
// Determinism note: the pool schedules nondeterministically, but the
// sweep engine (engine.hpp) feeds it lazily from a gi-ordered cursor and
// folds every result in enumeration order through a reorder window, so
// sweep digests are independent of the interleaving and of the thread
// count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rlt::sweep {

class WorkStealingPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit WorkStealingPool(int threads);

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Drains remaining work, then joins the workers.
  ~WorkStealingPool();

  /// Enqueues a task.  Thread-safe; tasks may submit further tasks.
  /// A task that throws does not kill the worker: the first exception is
  /// captured and rethrown from the next wait_idle() call.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing, then
  /// rethrows the first exception any task threw since the last call
  /// (if one did).
  void wait_idle();

  /// Number of times a worker took a task from another worker's deque
  /// (observability; tests assert the pool actually steals).
  [[nodiscard]] std::uint64_t steals() const noexcept;

 private:
  struct Worker {
    std::deque<std::function<void()>> queue;
    std::mutex mutex;
  };

  void worker_loop(std::size_t self);
  bool try_pop(std::size_t self, std::function<void()>& task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;   ///< Signals workers: work or stop.
  std::condition_variable idle_cv_;   ///< Signals waiters: all done.
  std::size_t unfinished_ = 0;        ///< Queued + executing tasks.
  std::size_t next_worker_ = 0;       ///< Round-robin submission cursor.
  std::exception_ptr first_exception_;  ///< First task throw, if any.
  std::atomic<std::uint64_t> steals_{0};
  bool stop_ = false;
};

}  // namespace rlt::sweep
