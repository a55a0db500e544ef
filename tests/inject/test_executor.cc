/**
 * @file
 * Tests for the layered campaign execution engine: the planning
 * layer's task grouping, runTasks()' ordered commit and error
 * propagation, and the end-to-end determinism contract — a campaign's
 * records, masks, counts, and aggregate statistics are byte-identical
 * for one job and for a pool of four on every simulator setup, and
 * reproducible across re-runs with the same seed.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "inject/campaign.hh"
#include "inject/executor.hh"
#include "inject/parser.hh"
#include "inject/plan.hh"

namespace
{

using namespace dfi;
using namespace dfi::inject;

/** Serialize everything a RunRecord carries, byte for byte. */
std::string
serializeRecord(const syskit::RunRecord &record)
{
    std::ostringstream os;
    os << static_cast<int>(record.term) << '|' << record.exitCode
       << '|' << record.cycles << '|' << record.instructions << '|'
       << record.earlyStopMasked << '|' << record.earlyStopReason
       << '|' << record.detail << '|';
    for (std::uint8_t byte : record.output)
        os << static_cast<int>(byte) << ',';
    os << '|';
    for (const syskit::DueEvent &event : record.dueEvents)
        os << event.kind << '@' << event.pc << ',';
    os << '|' << record.stats.dump();
    return os.str();
}

std::string
serializeRecords(const std::vector<syskit::RunRecord> &records)
{
    std::string all;
    for (const syskit::RunRecord &record : records) {
        all += serializeRecord(record);
        all += '\n';
    }
    return all;
}

std::string
serializeMasks(const std::vector<FaultMask> &masks)
{
    std::string all;
    for (const FaultMask &mask : masks) {
        all += mask.toLine();
        all += '\n';
    }
    return all;
}

CampaignConfig
microConfig(const std::string &core, std::uint32_t jobs)
{
    CampaignConfig cfg;
    cfg.benchmark = "micro";
    cfg.coreName = core;
    cfg.component = "l1d";
    cfg.numInjections = 32;
    cfg.seed = 7;
    cfg.jobs = jobs;
    return cfg;
}

TEST(Plan, GroupsMasksByRunId)
{
    std::vector<FaultMask> masks(6);
    const std::uint64_t run_ids[] = {0, 0, 1, 2, 2, 2};
    const std::uint64_t cycles[] = {30, 10, 5, 9, 2, 40};
    for (std::size_t i = 0; i < masks.size(); ++i) {
        masks[i].runId = run_ids[i];
        masks[i].cycle = cycles[i];
    }

    const CampaignPlan plan(CampaignConfig{}, syskit::RunRecord{},
                            masks, 4);
    ASSERT_EQ(plan.numRuns(), 4u);
    EXPECT_EQ(plan.tasks()[0].masks.size(), 2u);
    EXPECT_EQ(plan.tasks()[0].firstCycle, 10u);
    EXPECT_EQ(plan.tasks()[1].masks.size(), 1u);
    EXPECT_EQ(plan.tasks()[1].firstCycle, 5u);
    EXPECT_EQ(plan.tasks()[2].masks.size(), 3u);
    EXPECT_EQ(plan.tasks()[2].firstCycle, 2u);
    EXPECT_EQ(plan.tasks()[3].masks.size(), 0u);
    EXPECT_EQ(plan.masks().size(), 6u);
    for (std::uint64_t run_id = 0; run_id < 4; ++run_id)
        EXPECT_EQ(plan.tasks()[run_id].runId, run_id);
}

/** Tasks of a synthetic `runs`-run plan, one mask per runId. */
CampaignPlan
syntheticPlan(std::uint64_t runs)
{
    std::vector<FaultMask> masks(runs);
    for (std::uint64_t i = 0; i < runs; ++i)
        masks[i].runId = i;
    return CampaignPlan(CampaignConfig{}, syskit::RunRecord{}, masks,
                        runs);
}

TEST(Executor, ResolveJobs)
{
    EXPECT_GE(resolveJobs(0), 1u);
    EXPECT_EQ(resolveJobs(1), 1u);
    EXPECT_EQ(resolveJobs(7), 7u);
}

TEST(Executor, SingleJobRunsOnCallersThread)
{
    const CampaignPlan plan = syntheticPlan(5);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::string> events;
    const auto results = runTasks(
        plan.tasks(), 1,
        [caller](const RunTask &task) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            TaskResult result;
            result.record.cycles = task.runId;
            return result;
        },
        [&events](std::uint64_t done, std::uint64_t total) {
            events.push_back("p" + std::to_string(done) + "/" +
                             std::to_string(total));
        },
        [&events](const RunTask &task, const TaskResult &result) {
            EXPECT_EQ(result.record.cycles, task.runId);
            events.push_back("c" + std::to_string(task.runId));
        });
    ASSERT_EQ(results.size(), 5u);
    // Progress then commit, task by task.
    EXPECT_EQ(events, (std::vector<std::string>{
                          "p1/5", "c0", "p2/5", "c1", "p3/5", "c2",
                          "p4/5", "c3", "p5/5", "c4"}));
}

TEST(Executor, ThreadPoolCommitsResultsInRunIdOrder)
{
    // The tasks of a shard view: runIds 1, 4, 7, ... are not
    // contiguous, and they finish in roughly reverse order.  The
    // sink must still see them in list (ascending runId) order.
    constexpr std::uint64_t kRuns = 24;
    const CampaignPlan view = syntheticPlan(kRuns).shardView({1, 3});
    const std::vector<RunTask> &tasks = view.tasks();
    ASSERT_EQ(tasks.size(), kRuns / 3);

    const TaskRunner runner = [](const RunTask &task) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            200 * (kRuns - task.runId)));
        TaskResult result;
        result.record.cycles = 1000 + task.runId;
        result.record.stats.inc("runs");
        return result;
    };

    std::vector<std::pair<std::uint64_t, std::uint64_t>> progress;
    std::vector<std::uint64_t> committed;
    const auto results = runTasks(
        tasks, 4, runner,
        [&progress](std::uint64_t done, std::uint64_t total) {
            progress.emplace_back(done, total);
        },
        [&committed](const RunTask &task, const TaskResult &result) {
            EXPECT_EQ(result.record.cycles, 1000 + task.runId);
            committed.push_back(task.runId);
        });

    ASSERT_EQ(results.size(), tasks.size());
    std::vector<std::uint64_t> expected;
    StatSet aggregate;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_EQ(tasks[i].runId, 3 * i + 1);
        EXPECT_EQ(results[i].record.cycles, 1000 + tasks[i].runId);
        expected.push_back(tasks[i].runId);
        aggregate.merge(results[i].record.stats);
    }
    EXPECT_EQ(committed, expected);
    // Progress callbacks are serialised and strictly increasing even
    // though completions raced.
    ASSERT_EQ(progress.size(), tasks.size());
    for (std::uint64_t i = 0; i < tasks.size(); ++i) {
        EXPECT_EQ(progress[i].first, i + 1);
        EXPECT_EQ(progress[i].second, tasks.size());
    }
    EXPECT_EQ(aggregate.get("runs"), tasks.size());
}

TEST(Executor, ThreadPoolPropagatesTaskErrors)
{
    const CampaignPlan plan = syntheticPlan(8);
    const TaskRunner runner = [](const RunTask &task) -> TaskResult {
        if (task.runId == 3 || task.runId == 5)
            fatal("task %s failed", task.runId);
        return {};
    };
    std::vector<std::uint64_t> committed;
    try {
        runTasks(plan.tasks(), 4, runner, {},
                 [&committed](const RunTask &task, const TaskResult &) {
                     committed.push_back(task.runId);
                 });
        ADD_FAILURE() << "runTasks did not rethrow";
    } catch (const FatalError &error) {
        // The lowest failing index wins, however the workers raced.
        EXPECT_NE(std::string(error.what()).find("task 3 failed"),
                  std::string::npos)
            << error.what();
    }
    // Only an in-order prefix ahead of the failure was committed.
    for (std::size_t i = 0; i < committed.size(); ++i)
        EXPECT_EQ(committed[i], i);
    EXPECT_LE(committed.size(), 3u);
}

TEST(Executor, CommitErrorStopsTheStream)
{
    // A failing sink (say, a full disk under the telemetry stream)
    // fails the run, and no task reaches the sink twice.
    const CampaignPlan plan = syntheticPlan(16);
    for (const std::uint32_t jobs : {1u, 4u}) {
        std::vector<std::uint64_t> committed;
        EXPECT_THROW(
            runTasks(plan.tasks(), jobs,
                     [](const RunTask &) { return TaskResult{}; }, {},
                     [&committed](const RunTask &task,
                                  const TaskResult &) {
                         committed.push_back(task.runId);
                         if (task.runId == 2)
                             fatal("sink failed");
                     }),
            FatalError);
        EXPECT_EQ(committed, (std::vector<std::uint64_t>{0, 1, 2}))
            << "jobs " << jobs;
    }
}

/**
 * The acceptance contract: on every simulator setup, a >=32-run
 * campaign yields byte-identical RunRecord sequences, masks, and
 * ClassCounts for one job vs a pool of four, and
 * re-running with the same seed reproduces both.
 */
class ExecutorDeterminism
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(ExecutorDeterminism, ParallelBitIdenticalToSerial)
{
    const std::string core = GetParam();
    Parser parser;

    auto run_with_jobs = [&core](std::uint32_t jobs) {
        InjectionCampaign campaign(microConfig(core, jobs));
        return campaign.run();
    };

    const CampaignResult serial = run_with_jobs(1);
    const CampaignResult parallel = run_with_jobs(4);
    const CampaignResult parallel_again = run_with_jobs(4);

    // With pruning, executed records plus pruned outcomes cover the
    // whole campaign; the split itself must also be deterministic.
    ASSERT_EQ(serial.records.size() + serial.pruned.size(), 32u);
    ASSERT_EQ(parallel.records.size() + parallel.pruned.size(), 32u);
    ASSERT_EQ(serial.records.size(), parallel.records.size());

    // Byte-identical record sequences and mask repositories.
    EXPECT_EQ(serializeRecords(serial.records),
              serializeRecords(parallel.records));
    EXPECT_EQ(serializeMasks(serial.masks),
              serializeMasks(parallel.masks));

    // Identical classification, cycle accounting, and aggregates.
    EXPECT_EQ(serial.classify(parser).counts,
              parallel.classify(parser).counts);
    EXPECT_EQ(serial.simulatedFaultyCycles,
              parallel.simulatedFaultyCycles);
    EXPECT_EQ(serial.fullRunEquivalentCycles,
              parallel.fullRunEquivalentCycles);
    EXPECT_EQ(serial.aggregateStats.dump(),
              parallel.aggregateStats.dump());

    // Same seed, same everything on a re-run.
    EXPECT_EQ(serializeRecords(parallel.records),
              serializeRecords(parallel_again.records));
    EXPECT_EQ(serializeMasks(parallel.masks),
              serializeMasks(parallel_again.masks));
    EXPECT_EQ(parallel.classify(parser).counts,
              parallel_again.classify(parser).counts);
}

INSTANTIATE_TEST_SUITE_P(AllSetups, ExecutorDeterminism,
                         ::testing::Values("marss-x86", "gem5-x86",
                                           "gem5-arm"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return name;
                         });

} // namespace
