/**
 * @file
 * exhaustive_lsq: `--exhaustive` gem5-x86 / micro / lsq at `jobs 2`,
 * telemetry captured in memory.  About 1.5M runs are planned and a
 * few thousand simulated, so plan, ordered commit and telemetry
 * building dominate.
 *
 * Every iteration is the same cold campaign, so the wall time is a
 * median over iterations.  The micro program's set-up is short, so
 * extra cold set-ups give setup_s a median over several samples.
 */

#include "layers.hh"
#include "provenance.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

constexpr std::uint64_t kMinIterations = 2;
constexpr std::uint64_t kSetupSamples = 52;

std::vector<double>
coldSetups(const CellSpec &cell, std::uint64_t seed, std::uint64_t count)
{
    const std::vector<int> cpus = allowedCpus();
    std::vector<double> setups;
    for (std::uint64_t i = 0; i < count; ++i) {
        const PinnedToCpu pin(cpus[i % cpus.size()]);
        dfi::inject::InjectionCampaign campaign(cellConfig(cell, seed));
        const double start = now();
        campaign.prepared();
        setups.push_back(now() - start);
    }
    return setups;
}

Batch
runIteration(RunContext &ctx)
{
    const CellResult result = runCellCold(exhaustiveCell(), ctx.seed);
    ctx.gate(result.cell, result);
    Batch batch;
    batch.add(result);
    return batch;
}

void
untraced(RunContext &ctx)
{
    // Cold set-ups first, in a fresh process, so the heap state the
    // 1.5M-run campaigns leave behind does not colour them.
    std::vector<double> setups =
        coldSetups(exhaustiveCell(), ctx.seed, kSetupSamples);
    const double start = now();
    std::vector<Batch> iterations;
    std::vector<double> walls;
    while (iterations.size() < kMinIterations ||
           now() - start + walls.back() <= ctx.seconds) {
        iterations.push_back(runIteration(ctx));
        walls.push_back(iterations.back().wall);
        setups.push_back(iterations.back().setup);
    }
    addInProcessMetrics(ctx, iterations, median(walls), setups);
}

void
traced(RunContext &ctx)
{
    LayerTotals layers;
    const std::int64_t root = ctx.tracer.begin("workload", -1);
    dfi::inject::CampaignResult cell =
        tracedCell(cellConfig(exhaustiveCell(), ctx.seed),
                   exhaustiveCell().name(), ctx.tracer, root, layers);
    ctx.tracer.end(root);
    CellResult result;
    result.cell = exhaustiveCell().name();
    summarizeCell(cell, result);
    cell = dfi::inject::CampaignResult{};
    ctx.gate(result.cell, result);

    // The same calls untraced, for the overhead.
    const CellResult plain = runCellCold(exhaustiveCell(), ctx.seed);
    ctx.gate(plain.cell, plain);

    const std::int64_t probe_root = ctx.tracer.begin("probe", -1);
    const ProbeResult probe = layerProbe(ctx.tracer, probe_root);
    ctx.tracer.end(probe_root);
    addLayerMetrics(ctx.metrics, layers, ctx.tracer.selfTimes(), 1.0, probe,
                    ServiceTotals{},
                    ctx.tracer.unaccountedFrac(root),
                    overheadFrac(layers,
                                 plain.setupSeconds + plain.campaignSeconds));
}

} // namespace

void
runExhaustiveLsq(RunContext &ctx)
{
    if (ctx.collect != nullptr)
        runIteration(ctx);
    else if (ctx.trace)
        traced(ctx);
    else
        untraced(ctx);
}

} // namespace perfbench
