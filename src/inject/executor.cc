#include "inject/executor.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "common/logging.hh"

namespace dfi::inject
{

std::uint32_t
resolveJobs(std::uint32_t requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::vector<TaskResult>
runTasks(const std::vector<RunTask> &tasks, std::uint32_t jobs,
         const TaskRunner &runner,
         const InjectionCampaign::Progress &progress, const CommitSink &commit)
{
    const std::size_t n = tasks.size();
    std::vector<TaskResult> results(n);
    const std::size_t workers =
        std::min<std::size_t>(resolveJobs(jobs), n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            results[i] = runner(tasks[i]);
            if (progress)
                progress(i + 1, n);
            if (commit)
                commit(tasks[i], results[i]);
        }
        return results;
    }

    // `ready`, `frontier`, `done` and `errors` are guarded by `mutex`.
    // A finished task is marked ready, and the worker holding the
    // lock replays the ready prefix at the frontier to the sink.  The
    // result slots are stable storage, so the sink may read a slot
    // another worker filled.
    std::mutex mutex;
    std::vector<char> ready(n, 0);
    std::size_t frontier = 0;
    std::uint64_t done = 0;
    // One error slot per task: after the join, the lowest-index error
    // is rethrown, so failures are as deterministic as the runs.
    std::vector<std::exception_ptr> errors(n);
    // Set under the lock, so no lock holder reports after a failure
    // and no task reaches the sink twice.
    std::atomic<bool> aborted{false};
    std::atomic<std::size_t> next{0};

    auto work = [&] {
        while (!aborted.load(std::memory_order_relaxed)) {
            const std::size_t index =
                next.fetch_add(1, std::memory_order_relaxed);
            if (index >= n)
                return;
            std::size_t failed = index;
            std::unique_lock<std::mutex> lock(mutex, std::defer_lock);
            try {
                results[index] = runner(tasks[index]);
                lock.lock();
                if (aborted.load(std::memory_order_relaxed))
                    return;
                ++done;
                if (progress)
                    progress(done, n);
                ready[index] = 1;
                for (; frontier < n && ready[frontier]; ++frontier) {
                    failed = frontier;
                    if (commit)
                        commit(tasks[frontier], results[frontier]);
                }
            } catch (...) {
                if (!lock.owns_lock())
                    lock.lock();
                errors[failed] = std::current_exception();
                aborted.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    try {
        for (std::size_t i = 0; i < workers; ++i)
            pool.emplace_back(work);
    } catch (const std::exception &error) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            aborted.store(true, std::memory_order_relaxed);
        }
        for (std::thread &worker : pool)
            worker.join();
        fatal("runTasks: cannot start worker thread %s of %s: %s",
              pool.size() + 1, workers, error.what());
    }
    for (std::thread &worker : pool)
        worker.join();

    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return results;
}

} // namespace dfi::inject
