// Shared work-stealing thread pool for campaign job execution.
//
// Each worker owns a deque: it pops its own work LIFO (cache-warm) and
// steals FIFO from the busiest victim when empty, so a long chain of
// jobs enqueued onto one worker spreads across the pool instead of
// serializing. Tasks may submit further tasks; wait_idle() blocks
// until every task — including ones spawned mid-flight — has finished.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dq::campaign {

class WorkStealingPool {
 public:
  /// Spawns `threads` workers (>= 1; 0 means hardware concurrency).
  explicit WorkStealingPool(std::size_t threads);

  /// Joins all workers. Pending tasks are still executed first —
  /// destruction is an implicit wait_idle().
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Enqueues a task. Callable from any thread, including workers.
  void submit(std::function<void()> task);

  /// Blocks until all submitted tasks (and tasks they submitted) have
  /// completed.
  void wait_idle();

  std::size_t num_threads() const noexcept { return workers_.size(); }

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t self);
  bool try_pop_own(std::size_t self, std::function<void()>& task);
  bool try_steal(std::size_t self, std::function<void()>& task);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex idle_mu_;
  std::condition_variable work_cv_;   ///< workers sleep here
  std::condition_variable idle_cv_;   ///< wait_idle sleeps here
  std::size_t outstanding_ = 0;       ///< submitted, not yet finished
  std::size_t next_queue_ = 0;        ///< round-robin submission cursor
  bool shutdown_ = false;
};

}  // namespace dq::campaign
