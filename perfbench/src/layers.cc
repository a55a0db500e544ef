#include "layers.hh"

#include <algorithm>
#include <optional>

#include "inject/plan.hh"
#include "isa/codegen.hh"
#include "prog/benchmark.hh"
#include "provenance.hh"
#include "storage/faultable_array.hh"
#include "uarch/core_config.hh"
#include "uarch/ooo_core.hh"

namespace perfbench
{

using dfi::inject::CampaignPlan;
using dfi::inject::CampaignResult;
using dfi::inject::InjectionCampaign;
using dfi::inject::PreparedCampaign;
using dfi::inject::RunTask;
using dfi::inject::TaskResult;

namespace
{

/** Load address the campaign controller compiles programs for. */
constexpr std::uint32_t kImageMemSize = 0x200000;

dfi::uarch::CoreConfig
scaledCoreConfig(const dfi::inject::CampaignConfig &cfg)
{
    dfi::uarch::CoreConfig core_cfg =
        dfi::uarch::coreConfigByName(cfg.coreName);
    dfi::uarch::scaleCaches(core_cfg, cfg.cacheScale);
    return core_cfg;
}

/** Keeps the readBits loop from being optimised away. */
volatile std::uint64_t g_readSink = 0;

/** Run `fn` inside a span; returns its duration in seconds. */
template <class Fn>
double
timed(Tracer &tracer, const char *name, std::int64_t parent, Fn &&fn)
{
    const double start = now();
    fn();
    const double end = now();
    tracer.add(name, start, end, parent);
    return end - start;
}

} // namespace

CampaignResult
tracedCell(const dfi::inject::CampaignConfig &cfg, const std::string &name,
           Tracer &tracer, std::int64_t parent, LayerTotals &totals)
{
    const dfi::uarch::CoreConfig core_cfg = scaledCoreConfig(cfg);
    const std::int64_t cell_span = tracer.begin("cell", parent);

    // The program build and compile that prepared() performs
    // internally, timed on their own.
    dfi::prog::Benchmark bench;
    dfi::isa::Image image;
    timed(tracer, "prog.build", cell_span, [&] {
        bench = dfi::prog::buildBenchmark(cfg.benchmark, cfg.scale);
    });
    timed(tracer, "isa.compile", cell_span, [&] {
        image = dfi::ir::compileModule(bench.module, core_cfg.isa,
                                       kImageMemSize);
    });

    InjectionCampaign campaign(cfg);
    std::shared_ptr<const PreparedCampaign> prep;
    const double prepare_s = timed(tracer, "inject.prepare", cell_span,
                                   [&] { prep = campaign.prepared(); });
    totals.goldenCycles += prep->golden.cycles;
    totals.checkpoints += prep->checkpoints.count();

    std::optional<dfi::uarch::OooCore> probe;
    const double construct_s =
        timed(tracer, "uarch.construct", cell_span,
              [&] { probe.emplace(core_cfg, prep->image); });
    std::optional<CampaignPlan> plan;
    const double rss_before = currentRssMb();
    const double plan_s = timed(tracer, "inject.plan", cell_span, [&] {
        plan.emplace(
            dfi::inject::planCampaign(cfg, prep->golden, *probe));
    });
    totals.planRssMb =
        std::max(totals.planRssMb, currentRssMb() - rss_before);
    totals.runsTotal += plan->totalRuns();
    totals.simulated += plan->pruneStats().simulated;
    totals.prunedStatic += plan->pruneStats().prunedStatic;
    totals.prunedEquiv += plan->pruneStats().prunedEquiv;

    // Every planned task, one runTask() call at a time.  The restore
    // share of each call is the controller's own restore timer.
    const std::int64_t exec_span = tracer.begin("inject.execute", cell_span);
    for (const RunTask &task : plan->tasks()) {
        const double start = now();
        const TaskResult result = campaign.runTask(task);
        const double end = now();
        const double restore =
            std::min(static_cast<double>(result.restoreMicros) / 1e6,
                     end - start);
        const std::int64_t task_span = tracer.add(
            "inject.task", start, end, exec_span, task.runId);
        tracer.add("inject.restore", start, start + restore, task_span,
                   task.runId);
        tracer.add("inject.simulate", start + restore, end, task_span,
                   task.runId);
        totals.taskSeconds.push_back(end - start);
    }
    tracer.end(exec_span);
    timed(tracer, "inject.plan.release", cell_span, [&] {
        plan.reset();
        probe.reset();
    });

    // The whole campaign through run().  Its plan share is the
    // piecewise plan (with probe construction), its execute share is
    // run()'s own task wall total spread over its workers; the rest
    // is ordered commit and telemetry building.
    const double run_start = now();
    CampaignResult result = campaign.run();
    const double run_end = now();
    const double run_s = run_end - run_start;
    const std::int64_t run_span =
        tracer.add("inject.run", run_start, run_end, cell_span);
    const double plan_share = std::min(plan_s + construct_s, run_s);
    const double exec_share = std::min(
        static_cast<double>(result.totalWallMicros) / 1e6 /
            std::max<std::uint32_t>(1, cfg.jobs),
        run_s - plan_share);
    tracer.add("inject.run.plan", run_start, run_start + plan_share,
               run_span);
    tracer.add("inject.run.execute", run_start + plan_share,
               run_start + plan_share + exec_share, run_span);
    totals.tracedCallsS += prepare_s + run_s;
    totals.telemetryBytes += result.telemetryRuns.size() +
                             result.telemetrySummary.size();
    totals.simCycles += result.simulatedFaultyCycles;
    totals.simCyclesByCell[name] +=
        result.simulatedFaultyCycles;
    totals.fullRunCycles += result.fullRunEquivalentCycles;
    tracer.end(cell_span);
    return result;
}

ProbeResult
layerProbe(Tracer &tracer, std::int64_t parent)
{
    ProbeResult out;
    std::vector<double> construct_ms;
    std::map<std::string, std::pair<double, double>> ticked; // cycles, s
    std::vector<double> copy_us;

    for (const CellSpec &cell : sampledCells()) {
        const dfi::inject::CampaignConfig cfg = cellConfig(cell, 0);
        const dfi::uarch::CoreConfig core_cfg = scaledCoreConfig(cfg);
        const dfi::prog::Benchmark bench =
            dfi::prog::buildBenchmark(cfg.benchmark, cfg.scale);
        const dfi::isa::Image image = dfi::ir::compileModule(
            bench.module, core_cfg.isa, kImageMemSize);

        std::optional<dfi::uarch::OooCore> core;
        for (int rep = 0; rep < 5; ++rep) {
            core.reset();
            construct_ms.push_back(
                1e3 * timed(tracer, "uarch.probe.construct", parent,
                            [&] { core.emplace(core_cfg, image); }));
        }
        // Reset to exit, the cell's real program at golden length.
        const double tick_s = timed(tracer, "uarch.probe.tick", parent,
                                    [&] { while (core->tick()) {} });
        ticked[cell.core].first += static_cast<double>(core->cycle());
        ticked[cell.core].second += tick_s;

        // Copy every checkpoint of the cell's prepared state.
        InjectionCampaign campaign(cfg);
        const auto prep = campaign.prepared();
        for (const std::uint64_t cycle : prep->checkpoints.cycles()) {
            const dfi::uarch::OooCore &source =
                prep->checkpoints.sourceFor(cycle);
            constexpr int kCopies = 20;
            const double copy_s =
                timed(tracer, "uarch.probe.checkpoint_copy", parent, [&] {
                    for (int i = 0; i < kCopies; ++i) {
                        const dfi::uarch::OooCore copy = source;
                        if (copy.cycle() != source.cycle())
                            dfi::panic("checkpoint copy drifted");
                    }
                });
            copy_us.push_back(1e6 * copy_s / kCopies);
        }
    }
    out.constructMs = median(construct_ms);
    for (const auto &[core, sample] : ticked)
        out.mcyclesPerS[core] = sample.first / sample.second / 1e6;
    out.checkpointCopyUs = median(copy_us);

    // readBits with no observer or watch armed: the simulator's
    // hottest storage call.
    dfi::FaultableArray array("probe", 512, 256);
    for (std::size_t entry = 0; entry < 512; ++entry)
        array.writeBits(entry, 0, 64, entry * 0x9e3779b97f4a7c15ull);
    constexpr std::size_t kReads = 1u << 23;
    std::vector<double> read_ns;
    for (int rep = 0; rep < 3; ++rep) {
        std::uint64_t sink = 0;
        const double read_s =
            timed(tracer, "storage.probe.read_bits", parent, [&] {
                for (std::size_t i = 0; i < kReads; ++i)
                    sink ^= array.readBits(i & 511, (i * 37) & 191, 64);
            });
        g_readSink = sink;
        read_ns.push_back(1e9 * read_s / kReads);
    }
    out.readBitsNs = median(read_ns);
    return out;
}

double
overheadFrac(const LayerTotals &layers, double untracedS)
{
    return untracedS <= 0.0 ? 0.0 : layers.tracedCallsS / untracedS - 1.0;
}

void
addLayerMetrics(MetricSet &metrics, const LayerTotals &layers,
                const std::map<std::string, double> &selfTimes,
                double passes, const ProbeResult &probe,
                const ServiceTotals &service, double unaccountedFrac,
                double overheadFrac)
{
    const double n = std::max(passes, 1.0);
    auto per = [&](const char *span) {
        const auto it = selfTimes.find(span);
        return it == selfTimes.end() ? 0.0 : it->second / n;
    };
    auto count = [n](std::uint64_t value) {
        return static_cast<double>(value) / n;
    };

    metrics.add("prog.build_s", per("prog.build"), "s");
    metrics.add("isa.compile_s", per("isa.compile"), "s");
    metrics.add("inject.prepare_s", per("inject.prepare"), "s");
    metrics.add("inject.prepare.golden_cycles", count(layers.goldenCycles),
                "count");
    metrics.add("inject.prepare.checkpoints", count(layers.checkpoints),
                "count");

    metrics.add("uarch.construct_ms", probe.constructMs, "ms");
    for (const char *core : {"marss-x86", "gem5-x86", "gem5-arm"}) {
        const auto it = probe.mcyclesPerS.find(core);
        metrics.add(std::string("uarch.mcycles_per_s.") + core,
                    it == probe.mcyclesPerS.end() ? 0.0 : it->second,
                    "Mcycles/s");
    }
    metrics.add("storage.read_bits_ns", probe.readBitsNs, "ns");
    metrics.add("uarch.checkpoint_copy_us", probe.checkpointCopyUs, "us");

    metrics.add("inject.plan_s", per("inject.plan"), "s");
    metrics.add("inject.plan.runs_total", count(layers.runsTotal), "count");
    metrics.add("inject.plan.simulated", count(layers.simulated), "count");
    metrics.add("inject.plan.pruned_static", count(layers.prunedStatic),
                "count");
    metrics.add("inject.plan.pruned_equiv", count(layers.prunedEquiv),
                "count");
    metrics.add("inject.plan.simulated_frac",
                layers.runsTotal == 0
                    ? 0.0
                    : static_cast<double>(layers.simulated) /
                          static_cast<double>(layers.runsTotal),
                "ratio");
    metrics.add("inject.plan.rss_mb", layers.planRssMb, "MiB");

    metrics.add("inject.restore_s", per("inject.restore"), "s");
    metrics.add("inject.simulate_s", per("inject.simulate"), "s");
    metrics.add("inject.task_ms_p50",
                1e3 * percentile(layers.taskSeconds, 50).value, "ms");
    metrics.add("inject.task_ms_p99",
                1e3 * percentile(layers.taskSeconds, 99).value, "ms");
    metrics.add("inject.task_samples",
                static_cast<double>(layers.taskSeconds.size()), "count");
    metrics.add("inject.sim_cycles", count(layers.simCycles), "count");
    for (const CellSpec &cell : sampledCells()) {
        const auto it = layers.simCyclesByCell.find(cell.name());
        metrics.add("inject.sim_cycles." + cell.name(),
                    it == layers.simCyclesByCell.end() ? 0.0
                                                       : count(it->second),
                    "count");
    }
    metrics.add("inject.sim_cycles_frac",
                layers.fullRunCycles == 0
                    ? 0.0
                    : static_cast<double>(layers.simCycles) /
                          static_cast<double>(layers.fullRunCycles),
                "ratio");
    metrics.add("inject.us_per_sim_cycle",
                layers.simCycles == 0
                    ? 0.0
                    : 1e6 * per("inject.simulate") /
                          count(layers.simCycles),
                "us");
    metrics.add("inject.commit_s", per("inject.run"), "s");
    metrics.add("inject.telemetry_bytes", count(layers.telemetryBytes),
                "bytes");
    metrics.add("inject.telemetry_mb_per_s",
                per("inject.run") <= 0.0
                    ? 0.0
                    : count(layers.telemetryBytes) / 1e6 / per("inject.run"),
                "MB/s");

    metrics.add("service.queue_s_p50",
                percentile(service.queueS, 50).value, "s");
    metrics.add("service.execute_s_p50",
                percentile(service.executeS, 50).value, "s");
    metrics.add("service.response_s_p50",
                percentile(service.responseS, 50).value, "s");
    metrics.add("service.response_bytes",
                service.responses == 0
                    ? 0.0
                    : static_cast<double>(service.responseBytes) /
                          static_cast<double>(service.responses),
                "bytes");
    metrics.add("service.cache_hit_ratio",
                service.responses == 0
                    ? 0.0
                    : static_cast<double>(service.cacheHitResponses) /
                          static_cast<double>(service.responses),
                "ratio");
    metrics.add("service.cache.hits", count(service.hits), "count");
    metrics.add("service.cache.misses", count(service.misses), "count");
    metrics.add("service.cache.coalesced", count(service.coalesced),
                "count");
    metrics.add("service.cache.evictions", count(service.evictions),
                "count");

    metrics.add("trace.unaccounted_frac", unaccountedFrac, "ratio");
    metrics.add("trace.overhead_frac", overheadFrac, "ratio");
}

} // namespace perfbench
