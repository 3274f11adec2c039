#ifndef HPCMIXP_SUPPORT_THREAD_POOL_H_
#define HPCMIXP_SUPPORT_THREAD_POOL_H_

/**
 * @file
 * Fixed-size thread pool over one shared FIFO queue.
 *
 * Substitutes for the paper's SLURM cluster scheduling: the harness
 * offloads each application/algorithm analysis job to a pool worker,
 * and SearchContext::evaluateBatch offloads in-search configuration
 * evaluations (DESIGN.md, Sections 2, 9 and 15).
 *
 * One mutex and one condition variable guard one queue. An idle
 * worker takes the oldest queued job, so load balances by itself: a
 * worker stuck on a long job never holds back the jobs behind it.
 *
 * Result order never depends on which worker ran what: submit()
 * returns a future per job, and callers that need deterministic
 * aggregation (e.g. evaluateBatch's commit-in-submission-order rule)
 * impose it when they harvest the futures.
 */

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace hpcmixp::support {

/** A fixed-size pool of worker threads executing queued jobs. */
class ThreadPool {
  public:
    /** Start @p workers threads (0 means hardware concurrency). */
    explicit ThreadPool(std::size_t workers);

    /** Run every queued job to completion, then join the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Enqueue a job; the future resolves when it completes. */
    std::future<void> submit(std::function<void()> job);

    /** Number of worker threads. */
    std::size_t workerCount() const { return threads_.size(); }

  private:
    void workerLoop();

    std::vector<std::thread> threads_;
    std::mutex mutex_; ///< guards jobs_ and stop_
    std::condition_variable cv_;
    std::deque<std::packaged_task<void()>> jobs_;
    bool stop_ = false;
};

} // namespace hpcmixp::support

#endif // HPCMIXP_SUPPORT_THREAD_POOL_H_
