#include "sweep/pool.hpp"

#include <exception>
#include <utility>

#include "util/assert.hpp"

namespace rlt::sweep {

WorkStealingPool::WorkStealingPool(int threads) {
  const std::size_t n = static_cast<std::size_t>(threads < 1 ? 1 : threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(n);
  try {
    for (std::size_t i = 0; i < n; ++i) {
      threads_.emplace_back([this, i] { worker_loop(i); });
    }
  } catch (...) {
    // Thread creation failed partway (e.g. a cgroup thread limit).
    // Join what was spawned before rethrowing: unwinding over joinable
    // std::threads would call std::terminate.
    {
      std::lock_guard<std::mutex> lock(wake_mutex_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
    throw;
  }
}

WorkStealingPool::~WorkStealingPool() {
  {
    // Drain without rethrowing (a throwing destructor would terminate);
    // an unobserved task exception is dropped here.
    std::unique_lock<std::mutex> lock(wake_mutex_);
    idle_cv_.wait(lock, [this] { return unfinished_ == 0; });
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkStealingPool::submit(std::function<void()> task) {
  RLT_CHECK(task != nullptr);
  {
    // Push while holding wake_mutex_ (lock order: wake_mutex_ -> queue
    // mutex, same as the idle re-check in worker_loop) so a parking
    // worker either sees the queued task or is already waiting when the
    // notify fires — no lost-wakeup window.
    std::lock_guard<std::mutex> lock(wake_mutex_);
    RLT_CHECK_MSG(!stop_, "submit on a stopping pool");
    const std::size_t target = next_worker_;
    next_worker_ = (next_worker_ + 1) % workers_.size();
    ++unfinished_;
    std::lock_guard<std::mutex> qlock(workers_[target]->mutex);
    workers_[target]->queue.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

void WorkStealingPool::wait_idle() {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  idle_cv_.wait(lock, [this] { return unfinished_ == 0; });
  if (first_exception_) {
    std::exception_ptr e = std::exchange(first_exception_, nullptr);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

std::uint64_t WorkStealingPool::steals() const noexcept {
  return steals_.load(std::memory_order_relaxed);
}

bool WorkStealingPool::try_pop(std::size_t self,
                               std::function<void()>& task) {
  // Own queue first, oldest task (FIFO)...
  {
    Worker& w = *workers_[self];
    std::lock_guard<std::mutex> lock(w.mutex);
    if (!w.queue.empty()) {
      task = std::move(w.queue.front());
      w.queue.pop_front();
      return true;
    }
  }
  // ...then steal the oldest task from the first victim that has one.
  const std::size_t n = workers_.size();
  for (std::size_t d = 1; d < n; ++d) {
    Worker& victim = *workers_[(self + d) % n];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.queue.empty()) {
      task = std::move(victim.queue.front());
      victim.queue.pop_front();
      steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void WorkStealingPool::worker_loop(std::size_t self) {
  for (;;) {
    std::function<void()> task;
    if (try_pop(self, task)) {
      try {
        task();
      } catch (...) {
        // Contain the exception (a bare throw on a std::thread would
        // terminate the process); the first one is rethrown to the next
        // wait_idle() caller.
        std::lock_guard<std::mutex> lock(wake_mutex_);
        if (!first_exception_) first_exception_ = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(wake_mutex_);
      if (--unfinished_ == 0) idle_cv_.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    if (stop_) return;
    // Re-check under the lock: a task may have been submitted between the
    // failed pop and acquiring the lock (missed notify otherwise).
    bool have_work = false;
    for (const auto& w : workers_) {
      std::lock_guard<std::mutex> wl(w->mutex);
      if (!w->queue.empty()) {
        have_work = true;
        break;
      }
    }
    if (have_work) continue;
    wake_cv_.wait(lock);
  }
}

}  // namespace rlt::sweep
