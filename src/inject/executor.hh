/**
 * @file
 * Campaign execution: runTasks() runs the independent RunTasks of a
 * CampaignPlan on the caller's thread or on a pool of workers, and
 * hands each finished task to a commit sink **in task-list order**,
 * regardless of the order in which tasks actually completed.  That
 * ordering guarantee, plus the immutability of the plan and of the
 * shared simulator checkpoints, is the determinism contract: for a
 * fixed (config, program, seed) every job count produces
 * byte-identical records, masks, and classification counts.
 */

#ifndef DFI_INJECT_EXECUTOR_HH
#define DFI_INJECT_EXECUTOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "inject/plan.hh"

namespace dfi::inject
{

/**
 * Executes one task.  Must be safe to call concurrently from several
 * threads (InjectionCampaign::runTask is, once prepared).
 */
using TaskRunner = std::function<TaskResult(const RunTask &)>;

/**
 * Ordered-commit consumer: called once per task, strictly in
 * task-list order.  The references are valid for the call only.
 */
using CommitSink =
    std::function<void(const RunTask &task, const TaskResult &result)>;

/**
 * Resolve a requested job count: 0 becomes the hardware concurrency
 * (at least 1).
 */
std::uint32_t resolveJobs(std::uint32_t requested);

/**
 * Run every task through `runner` on `jobs` workers (0 = hardware
 * concurrency).  With one effective worker the tasks run in order on
 * the calling thread and no thread is started.  Otherwise a pool of
 * min(jobs, tasks) threads claims tasks in list order.
 *
 * `progress` (optional) fires once per finished task with `done`
 * advancing 1..n; `commit` (optional) sees each task in list order.
 * Calls to both are serialized, never concurrent.  A failing task
 * stops the pool from claiming more; after the join the error of the
 * lowest failing index is rethrown.  A worker thread that cannot be
 * started is a FatalError, raised after the started ones are joined.
 *
 * @return one TaskResult per task, in task-list order.
 */
std::vector<TaskResult> runTasks(const std::vector<RunTask> &tasks,
                                 std::uint32_t jobs, const TaskRunner &runner,
                                 const InjectionCampaign::Progress &progress,
                                 const CommitSink &commit);

} // namespace dfi::inject

#endif // DFI_INJECT_EXECUTOR_HH
