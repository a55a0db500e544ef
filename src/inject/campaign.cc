#include "inject/campaign.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.hh"
#include "common/logging.hh"
#include "inject/config_fields.hh"
#include "inject/executor.hh"
#include "inject/plan.hh"
#include "inject/target.hh"
#include "inject/telemetry.hh"
#include "isa/codegen.hh"
#include "prog/benchmark.hh"
#include "uarch/core_config.hh"

namespace dfi::inject
{

using dfi::FaultMask;
using dfi::FaultType;

namespace
{

/** Hard upper bound on any single simulated run. */
constexpr std::uint64_t kAbsoluteCycleCap = 200'000'000;

/**
 * Upper bound on CampaignConfig::jobs.  Each job is one worker
 * thread, and a served request's config is untrusted wire input.
 */
constexpr std::uint32_t kMaxJobs = 1024;

bool
knownName(const std::vector<std::string> &names,
          const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string joined;
    for (const std::string &name : names) {
        if (!joined.empty())
            joined += ", ";
        joined += name;
    }
    return joined;
}

/**
 * Resolve one pruned run's outcome; this is the one place it is
 * decided.  A statically classified run gets exactly the early-stop
 * (or golden) record the dispatcher would have produced.  An
 * equivalence-class member gets its representative's record when
 * this process simulated it (`executed`), or only the classified
 * outcome when the representative came from the resume stream
 * (`resumed`).  A representative has the lowest runId of its class,
 * so the ordered stream always reaches it before its members.
 */
PrunedRunOutcome
resolvePruned(
    const PrunedRun &pruned, const syskit::RunRecord &golden,
    const std::unordered_map<std::uint64_t, syskit::RunRecord> &executed,
    const std::unordered_map<std::uint64_t, const TelemetryRecord *>
        &resumed)
{
    PrunedRunOutcome outcome;
    outcome.runId = pruned.runId;
    outcome.verdict = pruned.verdict;
    outcome.repRunId = pruned.repRunId;
    outcome.pruneClass = pruned.pruneClass;
    outcome.haveRecord = true;
    switch (pruned.verdict) {
      case SiteVerdict::InvalidEntry:
      case SiteVerdict::DeadOverwrite:
        outcome.record.earlyStopMasked = true;
        outcome.record.earlyStopReason =
            pruned.verdict == SiteVerdict::InvalidEntry
                ? "invalid-entry"
                : "overwritten-before-read";
        outcome.record.cycles = pruned.cycles;
        outcome.record.instructions = pruned.instructions;
        return outcome;
      case SiteVerdict::GoldenRun:
        // The fault is never observed: the run completes as golden.
        outcome.record = golden;
        return outcome;
      case SiteVerdict::EquivMember: {
        if (const auto rep = executed.find(pruned.repRunId);
            rep != executed.end()) {
            outcome.record = rep->second;
            return outcome;
        }
        const auto rep = resumed.find(pruned.repRunId);
        if (rep == resumed.end())
            panic("campaign: pruned run %s has no representative %s "
                  "in this view",
                  pruned.runId, pruned.repRunId);
        if (!outcomeClassFromName(rep->second->outcome, outcome.cls))
            fatal("campaign: resume record %s has unknown outcome "
                  "class '%s'",
                  rep->second->runId, rep->second->outcome);
        outcome.haveRecord = false;
        outcome.subclass = rep->second->subclass;
        outcome.record.cycles = rep->second->cycles;
        outcome.record.instructions = rep->second->instructions;
        return outcome;
      }
      case SiteVerdict::Simulate:
        break;
    }
    panic("campaign: Simulate verdict among pruned runs (run %s)",
          pruned.runId);
}

Classification
classifyPruned(const Parser &parser, const syskit::RunRecord &golden,
               const PrunedRunOutcome &outcome)
{
    if (outcome.haveRecord)
        return parser.classify(golden, outcome.record);
    return Classification{outcome.cls, outcome.subclass};
}

/**
 * The one place a run becomes its telemetry line.  `measured` is the
 * executed task's result, or nullptr for a pruned run: nothing was
 * simulated, so its volatile measurements stay zero.
 */
TelemetryRecord
telemetryLine(const CampaignConfig &cfg, std::uint32_t jobs,
              const RunTask &task, const Classification &cls,
              const syskit::RunRecord &record,
              const TaskResult *measured)
{
    TelemetryRecord line;
    line.runId = task.runId;
    line.seed = cfg.seed;
    line.component = cfg.component;
    if (!task.masks.empty()) {
        line.structure = structureName(task.masks[0].structure);
        line.entry = task.masks[0].entry;
        line.bit = task.masks[0].bit;
        line.faultType = faultTypeName(task.masks[0].type);
        line.injectionCycle = task.firstCycle;
    }
    line.maskCount = task.masks.size();
    line.pruneClass = task.pruneClass;
    line.outcome = outcomeClassName(cls.cls);
    line.subclass = cls.subclass;
    line.instructions = record.instructions;
    line.cycles = record.cycles;
    if (measured != nullptr && cfg.telemetryTiming) {
        // Execution-strategy measurements: which cycles were really
        // simulated (and how long the restore took) depends on the
        // checkpoint layout, so they are volatile like wall-clock.
        line.simCycles = measured->simulatedCycles;
        line.restoreMicros = measured->restoreMicros;
        line.wallMicros = measured->wallMicros;
        line.jobs = jobs;
    }
    return line;
}

} // namespace

std::vector<ConfigError>
CampaignConfig::validate() const
{
    std::vector<ConfigError> errors;
    auto bad = [&errors](std::string field, std::string message) {
        errors.push_back(
            ConfigError{std::move(field), std::move(message)});
    };

    if (!knownName(componentNames(), component))
        bad("component", "unknown component '" + component +
                             "' (known: " +
                             joinNames(componentNames()) + ")");
    if (benchmark != "micro" &&
        !knownName(prog::benchmarkNames(), benchmark))
        bad("benchmark",
            "unknown benchmark '" + benchmark + "' (known: " +
                joinNames(prog::benchmarkNames()) + ", micro)");
    if (scale == 0)
        bad("scale", "must be >= 1");
    if (!knownName(uarch::coreConfigNames(), coreName))
        bad("core", "unknown core '" + coreName + "' (known: " +
                        joinNames(uarch::coreConfigNames()) + ")");
    if (confidence <= 0.0 || confidence >= 1.0)
        bad("confidence", "must be in (0, 1)");
    if (margin <= 0.0 || margin >= 1.0)
        bad("margin", "must be in (0, 1)");
    if (exhaustive && numInjections != 0)
        bad("injections",
            "--exhaustive enumerates the whole fault space; drop "
            "--injections");
    if (exhaustive && (faultType != dfi::FaultType::Transient ||
                       population != Population::SingleBit))
        bad("exhaustive",
            "exhaustive campaigns enumerate single-bit transients "
            "only");
    if (intermittentMin > intermittentMax)
        bad("intermittent_min",
            "must not exceed intermittent_max (" +
                std::to_string(intermittentMin) + " > " +
                std::to_string(intermittentMax) + ")");
    if (faultType == dfi::FaultType::Intermittent &&
        intermittentMin == 0)
        bad("intermittent_min",
            "must be >= 1 for intermittent faults");
    if (cacheScale <= 0.0 || cacheScale > 1.0)
        bad("cache_scale", "must be in (0, 1]");
    if (timeoutFactor < 1.0)
        bad("timeout_factor", "must be >= 1");
    if (useCheckpoints && checkpointCount == 0)
        bad("checkpoints", "checkpoint count must be >= 1 when "
                           "checkpointing is enabled");
    if (jobs > kMaxJobs)
        bad("jobs", "must be <= " + std::to_string(kMaxJobs));
    if (shard.count == 0)
        bad("shard", "shard count must be >= 1");
    else if (shard.index >= shard.count)
        bad("shard", "shard index " + std::to_string(shard.index) +
                         " out of range for count " +
                         std::to_string(shard.count));
    if (!resumeFrom.empty() && telemetryOut.empty())
        bad("resume",
            "resuming requires a telemetry output path to append "
            "the finished campaign to");
    return errors;
}

std::string
CampaignConfig::cacheKey() const
{
    // The deterministic identity of a campaign is exactly its
    // telemetry config echo (every outcome-relevant field, no
    // execution-strategy knobs).  The checkpoint shape fields are
    // appended because the cached artifact includes the
    // CheckpointStore, whose capture schedule they shape.  A format
    // tag leads so a future key-derivation change re-keys every
    // entry cleanly.
    hash::Fnv1a hasher;
    hasher.update(std::string_view("dfi-cache-key-v1"));
    hasher.update(telemetryConfigEcho(*this).dump());
    forEachConfigField(*this, [&hasher](const char *, const auto &value,
                                        ConfigFieldRole role) {
        if constexpr (std::is_integral_v<std::decay_t<decltype(value)>>) {
            if (role == ConfigFieldRole::Shape)
                hasher.update(static_cast<std::uint64_t>(value));
        }
    });
    return hasher.hexDigest();
}

std::uint64_t
PreparedCampaign::approxBytes() const
{
    std::uint64_t bytes = sizeof(PreparedCampaign);
    bytes += image.code.size() + image.data.size();
    bytes += expectedOutput.size() + golden.output.size();
    bytes += checkpoints.count() * checkpoints.snapshotBoundBytes();
    return bytes;
}

InjectionCampaign::InjectionCampaign(CampaignConfig config)
    : cfg_(std::move(config))
{
}

InjectionCampaign::~InjectionCampaign() = default;

void
InjectionCampaign::prepare()
{
    if (prep_ != nullptr)
        return;

    const std::vector<ConfigError> errors = cfg_.validate();
    if (!errors.empty())
        fatal("invalid campaign config: %s: %s", errors[0].field,
              errors[0].message);

    auto prep = std::make_shared<PreparedCampaign>();
    uarch::CoreConfig core_cfg =
        uarch::coreConfigByName(cfg_.coreName);
    uarch::scaleCaches(core_cfg, cfg_.cacheScale);
    if (cfg_.configTweak)
        cfg_.configTweak(core_cfg);
    const prog::Benchmark bench =
        prog::buildBenchmark(cfg_.benchmark, cfg_.scale);
    prep->expectedOutput = bench.expectedOutput;
    prep->image = ir::compileModule(bench.module, core_cfg.isa,
                                    0x200000);

    // Single full-program pass: the golden reference and the restore
    // checkpoints are captured together.  Snapshots are COW-backed
    // core copies, so each capture copies page tables, not pages.
    CheckpointPolicy checkpoint_policy;
    checkpoint_policy.enabled = cfg_.useCheckpoints;
    checkpoint_policy.targetCount = cfg_.checkpointCount;
    checkpoint_policy.budgetBytes =
        cfg_.checkpointMemBudgetMB * 1024 * 1024;
    prep->checkpoints = CheckpointStore(checkpoint_policy);

    uarch::OooCore core(core_cfg, prep->image);
    prep->checkpoints.captureBase(core);
    while (core.tick()) {
        if (core.cycle() > kAbsoluteCycleCap)
            fatal("golden run of '%s' on '%s' exceeded the cycle cap",
                  cfg_.benchmark, cfg_.coreName);
        prep->checkpoints.observe(core);
    }
    prep->golden = core.record();
    if (prep->golden.term != syskit::Termination::Exited)
        fatal("golden run of '%s' on '%s' did not exit cleanly: %s",
              cfg_.benchmark, cfg_.coreName, prep->golden.detail);
    if (prep->golden.output != prep->expectedOutput)
        fatal("golden run of '%s' on '%s' produced wrong output",
              cfg_.benchmark, cfg_.coreName);
    prep_ = std::move(prep);
}

const syskit::RunRecord &
InjectionCampaign::golden()
{
    prepare();
    return prep_->golden;
}

std::shared_ptr<const PreparedCampaign>
InjectionCampaign::prepared()
{
    prepare();
    return prep_;
}

void
InjectionCampaign::adoptPrepared(
    std::shared_ptr<const PreparedCampaign> prep)
{
    if (prep_ != nullptr)
        panic("adoptPrepared after prepare(): adopt before first "
              "use");
    if (prep == nullptr)
        panic("adoptPrepared: null preparation");

    // Adoption skips the golden pass but never validation: a config
    // the campaign would refuse cold must be refused warm too.
    const std::vector<ConfigError> errors = cfg_.validate();
    if (!errors.empty())
        fatal("invalid campaign config: %s: %s", errors[0].field,
              errors[0].message);
    prep_ = std::move(prep);
}

syskit::RunRecord
InjectionCampaign::runOne(const std::vector<FaultMask> &masks,
                          std::uint64_t *simulated_cycles)
{
    prepare();
    if (masks.empty())
        fatal("runOne: empty mask group");

    RunTask task;
    task.masks = masks;
    task.firstCycle = ~0ull;
    for (const FaultMask &mask : masks)
        task.firstCycle = std::min(task.firstCycle, mask.cycle);

    const TaskResult result = runTask(task);
    if (simulated_cycles != nullptr)
        *simulated_cycles = result.simulatedCycles;
    return result.record;
}

TaskResult
InjectionCampaign::runTask(const RunTask &task) const
{
    if (prep_ == nullptr)
        panic("runTask before prepare(): run golden() first");
    const std::vector<FaultMask> &masks = task.masks;
    if (masks.empty())
        fatal("runTask: empty mask group");
    const std::uint64_t first_cycle = task.firstCycle;

    // Dispatch: copy the nearest read-only checkpoint before the
    // injection into this worker's private core.  The copy shares
    // the snapshot's COW pages, so its cost tracks the state the run
    // goes on to touch, not the core size.
    const auto restore_started = std::chrono::steady_clock::now();
    uarch::OooCore core = prep_->checkpoints.sourceFor(first_cycle);
    const std::uint64_t restore_micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - restore_started)
            .count());
    const std::uint64_t restored_cycle = core.cycle();

    dfi::FaultDomain domain;
    domain.setResolver([&core](dfi::StructureId id) {
        return core.arrayFor(id);
    });
    for (const FaultMask &mask : masks)
        domain.arm(mask);

    const bool single_transient =
        masks.size() == 1 && masks[0].type == FaultType::Transient;
    const std::uint64_t limit = std::min<std::uint64_t>(
        kAbsoluteCycleCap,
        static_cast<std::uint64_t>(
            static_cast<double>(prep_->golden.cycles) * cfg_.timeoutFactor));

    bool injected = false;
    bool watch_armed = false;
    bool early_masked = false;
    std::string early_reason;
    dfi::FaultableArray *watch_array = nullptr;

    // Arm the overwrite watch the moment the flip lands.
    auto arm_watch_if_injected = [&]() {
        if (single_transient && !injected &&
            domain.allTransientsApplied()) {
            injected = true;
            if (cfg_.earlyStopOverwrite) {
                watch_array = core.arrayFor(masks[0].structure);
                watch_array->armWatch(masks[0].entry, masks[0].bit);
                watch_armed = true;
            }
        }
    };

    // A transient due at the restored cycle (only cycle 0 qualifies:
    // later injections restore a strictly-earlier snapshot) is
    // applied by the pre-loop tick below, so both early-stop rules
    // must run for it here, before the loop.
    if (single_transient && cfg_.earlyStopInvalidEntry &&
        masks[0].cycle <= core.cycle() &&
        !core.entryLive(masks[0].structure, masks[0].entry)) {
        early_masked = true;
        early_reason = "invalid-entry";
    }

    if (!early_masked) {
        // Permanent/intermittent faults (and cycle-0 transients)
        // active from cycle 0.
        domain.tick(core.cycle());
        arm_watch_if_injected();
    }

    while (!early_masked && !core.finished()) {
        const std::uint64_t next_cycle = core.cycle() + 1;

        // Early-stop rule (i): the fault lands in an invalid entry.
        if (single_transient && !injected &&
            next_cycle >= masks[0].cycle) {
            if (cfg_.earlyStopInvalidEntry &&
                !core.entryLive(masks[0].structure, masks[0].entry)) {
                early_masked = true;
                early_reason = "invalid-entry";
                break;
            }
        }

        domain.tick(next_cycle);
        arm_watch_if_injected();

        if (!core.tick())
            break;

        // Early-stop rule (ii): overwritten before ever read.
        if (watch_armed) {
            const dfi::WatchState state = watch_array->watchState();
            if (state == dfi::WatchState::WrittenFirst) {
                early_masked = true;
                early_reason = "overwritten-before-read";
                break;
            }
            if (state == dfi::WatchState::ReadFirst) {
                watch_array->clearWatch();
                watch_armed = false;
            }
        }

        if (core.cycle() >= limit) {
            core.forceTimeout();
            break;
        }
    }

    if (watch_armed && watch_array != nullptr)
        watch_array->clearWatch();

    TaskResult result;
    if (early_masked) {
        result.record.earlyStopMasked = true;
        result.record.earlyStopReason = early_reason;
        result.record.cycles = core.cycle();
        result.record.instructions = core.committedInstructions();
    } else {
        if (!core.finished())
            core.forceTimeout();
        result.record = core.record();
    }
    result.simulatedCycles = core.cycle() - restored_cycle;
    result.restoreMicros = restore_micros;
    return result;
}

InjectionCampaign::PlanSummary
InjectionCampaign::planSummary()
{
    prepare();

    uarch::CoreConfig core_cfg = uarch::coreConfigByName(cfg_.coreName);
    uarch::scaleCaches(core_cfg, cfg_.cacheScale);
    if (cfg_.configTweak)
        cfg_.configTweak(core_cfg);
    uarch::OooCore probe(core_cfg, prep_->image);
    CampaignPlan plan = planCampaign(cfg_, prep_->golden, probe);

    PlanSummary summary;
    summary.totalRuns = plan.totalRuns();
    summary.stats = plan.pruneStats();
    summary.maskCount = plan.masks().size();
    if (cfg_.shard.count > 1)
        plan = plan.shardView(cfg_.shard);
    summary.executed = plan.numRuns();
    for (const RunTask &task : plan.tasks()) {
        summary.estimatedSimulatedCycles +=
            prep_->golden.cycles >= task.firstCycle
                ? prep_->golden.cycles - task.firstCycle + 1
                : 1;
    }
    return summary;
}

CampaignResult
InjectionCampaign::run(const Progress &progress)
{
    prepare();

    // Plan: resolve sampling size and the mask repository, then run
    // the classification pipeline (the probe core supplies the
    // structure geometries and, when pruning is on, is ticked through
    // one instrumented golden re-run).
    uarch::CoreConfig core_cfg = uarch::coreConfigByName(cfg_.coreName);
    uarch::scaleCaches(core_cfg, cfg_.cacheScale);
    if (cfg_.configTweak)
        cfg_.configTweak(core_cfg);
    uarch::OooCore probe(core_cfg, prep_->image);
    CampaignPlan plan = planCampaign(cfg_, prep_->golden, probe);
    const std::uint64_t total_runs = plan.totalRuns();

    // Shard first, then subtract resumed runs: `--resume` within a
    // shard continues that shard, and a resume stream naming runs
    // outside this shard view is rejected by withoutRuns().
    if (cfg_.shard.count > 1)
        plan = plan.shardView(cfg_.shard);

    // Resume: load the partial stream up front (fully buffered, so
    // streaming the new artifact over the same path is safe), prove
    // it belongs to this exact campaign by byte-comparing its header
    // against the one we are about to write, and drop its runs from
    // the plan.
    std::vector<TelemetryRecord> resumed;
    if (!cfg_.resumeFrom.empty()) {
        TelemetryFile partial;
        std::string error;
        if (!readTelemetryFile(cfg_.resumeFrom, partial, error))
            fatal("resume: %s", error);
        if (partial.kind != kTelemetryRunsKind)
            fatal("resume: '%s' is not a telemetry run stream",
                  cfg_.resumeFrom);
        if (!partial.warning.empty())
            warn("resume: %s: %s", cfg_.resumeFrom, partial.warning);
        const std::string expected =
            telemetryRunsHeader(cfg_, prep_->golden, total_runs,
                                plan.pruneStats())
                .dump();
        if (partial.header.dump() != expected)
            fatal("resume: '%s' came from a different campaign "
                  "(header mismatch; check config and seed)",
                  cfg_.resumeFrom);
        resumed = std::move(partial.records);
        std::unordered_set<std::uint64_t> completed;
        for (const TelemetryRecord &record : resumed)
            completed.insert(record.runId);
        plan = plan.withoutRuns(completed);
    }

    // Telemetry streams to disk line-by-line: a killed campaign
    // leaves a resumable partial instead of nothing.  Capture-only
    // telemetry (the campaign service) stays in memory.
    const std::uint32_t jobs = resolveJobs(cfg_.jobs);
    const syskit::RunRecord &golden = prep_->golden;
    std::unique_ptr<TelemetryWriter> telemetry;
    if (!cfg_.telemetryOut.empty() || cfg_.telemetryCapture) {
        telemetry = std::make_unique<TelemetryWriter>(
            cfg_, golden, total_runs, jobs, plan.pruneStats());
        if (!cfg_.telemetryOut.empty())
            telemetry->streamTo(cfg_.telemetryOut);
    }

    // The campaign's one ordered stream.  Completed runs from the
    // resume stream come first, verbatim: they precede the remainder,
    // because the partial stream was itself written in ascending
    // runId order.  This view's executed tasks and pruned runs follow,
    // merged by runId as runTasks() commits the tasks in list order.
    std::unordered_map<std::uint64_t, const TelemetryRecord *> resumed_by_id;
    for (const TelemetryRecord &record : resumed) {
        resumed_by_id.emplace(record.runId, &record);
        if (telemetry != nullptr)
            telemetry->append(record);
    }

    CampaignResult result;
    const Parser parser;
    const std::vector<PrunedRun> &pruned = plan.pruned();
    std::size_t next_pruned = 0;
    // Executed class representatives' records, for their members.
    std::unordered_map<std::uint64_t, syskit::RunRecord> executed_reps;
    result.pruned.reserve(pruned.size());
    auto emit_pruned_below = [&](std::uint64_t run_id) {
        for (; next_pruned < pruned.size() &&
               pruned[next_pruned].runId < run_id;
             ++next_pruned) {
            const PrunedRun &run = pruned[next_pruned];
            PrunedRunOutcome outcome =
                resolvePruned(run, golden, executed_reps, resumed_by_id);
            if (telemetry != nullptr) {
                const RunTask task{run.runId, {run.mask}, run.mask.cycle,
                                   run.pruneClass};
                telemetry->append(telemetryLine(
                    cfg_, jobs, task,
                    classifyPruned(parser, golden, outcome),
                    outcome.record, nullptr));
            }
            result.pruned.push_back(std::move(outcome));
        }
    };

    std::vector<TaskResult> task_results = runTasks(
        plan.tasks(), jobs,
        [this](const RunTask &task) {
            const auto started = std::chrono::steady_clock::now();
            TaskResult task_result = runTask(task);
            task_result.wallMicros = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - started)
                    .count());
            return task_result;
        },
        progress,
        [&](const RunTask &task, const TaskResult &task_result) {
            emit_pruned_below(task.runId);
            if (task.pruneClass != 0)
                executed_reps.emplace(task.runId, task_result.record);
            if (telemetry != nullptr)
                telemetry->append(telemetryLine(
                    cfg_, jobs, task,
                    parser.classify(golden, task_result.record),
                    task_result.record, &task_result));
        });
    emit_pruned_below(total_runs);

    if (telemetry != nullptr && !cfg_.telemetryOut.empty())
        telemetry->writeFiles();

    // Report: fold the ordered results into the campaign record.
    result.config = cfg_;
    if (telemetry != nullptr) {
        result.telemetryRuns = telemetry->runsJsonl();
        result.telemetrySummary = telemetry->summaryJson();
    }
    result.golden = golden;
    result.masks = plan.masks();
    result.pruneStats = plan.pruneStats();
    // Without checkpoints and early stops every run would have
    // simulated from reset to wherever it ended (or to the end of
    // the program for masked runs).
    auto full_run_cycles = [&golden](const syskit::RunRecord &rec) {
        return rec.earlyStopMasked ? golden.cycles
                                   : std::max(rec.cycles, golden.cycles);
    };
    const std::vector<RunTask> &tasks = plan.tasks();
    result.records.reserve(tasks.size());
    result.recordRunIds.reserve(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        TaskResult &task_result = task_results[i];
        result.simulatedFaultyCycles += task_result.simulatedCycles;
        result.totalWallMicros += task_result.wallMicros;
        result.totalRestoreMicros += task_result.restoreMicros;
        result.fullRunEquivalentCycles +=
            full_run_cycles(task_result.record);
        result.aggregateStats.merge(task_result.record.stats);
        result.recordRunIds.push_back(tasks[i].runId);
        result.records.push_back(std::move(task_result.record));
    }
    for (const PrunedRunOutcome &outcome : result.pruned)
        result.fullRunEquivalentCycles += full_run_cycles(outcome.record);
    return result;
}

ClassCounts
CampaignResult::classify(const Parser &parser) const
{
    ClassCounts counts;
    for (const syskit::RunRecord &record : records)
        counts.add(parser.classify(golden, record).cls);
    for (const PrunedRunOutcome &outcome : pruned)
        counts.add(classifyPruned(parser, golden, outcome).cls);
    return counts;
}

} // namespace dfi::inject
