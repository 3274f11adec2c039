#include "support/thread_pool.h"

#include "support/logging.h"

namespace hpcmixp::support {

ThreadPool::ThreadPool(std::size_t workers)
{
    if (workers == 0) {
        workers = std::thread::hardware_concurrency();
        if (workers == 0)
            workers = 1;
    }
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_)
        t.join();
}

std::future<void>
ThreadPool::submit(std::function<void()> job)
{
    std::packaged_task<void()> task(std::move(job));
    auto fut = task.get_future();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        HPCMIXP_ASSERT(!stop_, "submit() on a stopped ThreadPool");
        jobs_.push_back(std::move(task));
    }
    cv_.notify_one();
    return fut;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
            // Stopping still drains: a worker exits only once the
            // queue is empty.
            if (jobs_.empty())
                return;
            task = std::move(jobs_.front());
            jobs_.pop_front();
        }
        task();
    }
}

} // namespace hpcmixp::support
