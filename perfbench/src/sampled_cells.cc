/**
 * @file
 * sampled_cells: paper-style sampled single-bit transient campaigns
 * over four cells (all three cores, four structures), each a cold
 * campaign at default settings and `jobs 1`.
 *
 * A batch runs the four cells once, with campaign seeds derived from
 * the workload seed and the batch index.  Three threads run a fixed
 * number of whole batches, three per ten seconds of the run time, so
 * every run of one seed and run time times the same inputs, all of
 * them covered by the committed references at the default seed, and
 * per-seed sampling noise in the simulated work averages over the
 * batches.
 */

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "layers.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

constexpr unsigned kThreads = 3;
/**
 * Run time budgeted for one round of kThreads concurrent batches.  A
 * round takes about 8 s on a 4-vCPU x86-64 host.
 */
constexpr double kRoundSeconds = 10.0;
/** Batches the committed references cover: more than a 60 s run needs. */
constexpr std::uint64_t kReferencedBatches = 24;

/** Batches a run of `seconds` measures: at least one round. */
std::uint64_t
batchCount(double seconds)
{
    const auto rounds = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(seconds / kRoundSeconds));
    return std::min(kReferencedBatches, kThreads * rounds);
}

Batch
runBatch(RunContext &ctx, std::uint64_t index)
{
    Batch batch;
    for (const CellSpec &cell : sampledCells()) {
        const CellResult result = runCellCold(cell, subSeed(ctx.seed, index));
        std::string key = "b";
        key += std::to_string(index) + "/" + result.cell;
        ctx.gate(key, result);
        batch.add(result);
    }
    return batch;
}

void
untraced(RunContext &ctx, std::uint64_t count)
{
    std::atomic<std::uint64_t> next{0};
    std::mutex mu;
    std::vector<Batch> batches;
    auto worker = [&] {
        for (;;) {
            const std::uint64_t index = next.fetch_add(1);
            if (index >= count)
                return;
            Batch batch;
            try {
                batch = runBatch(ctx, index);
            } catch (const std::exception &err) {
                ctx.operation("batch " + std::to_string(index) + ": " +
                              err.what());
                continue;
            }
            std::lock_guard<std::mutex> lock(mu);
            batches.push_back(std::move(batch));
        }
    };
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kThreads; ++i)
        threads.emplace_back(worker);
    for (std::thread &thread : threads)
        thread.join();

    std::vector<double> walls, setups;
    for (const Batch &batch : batches) {
        walls.push_back(batch.wall);
        setups.push_back(batch.setup);
    }
    addInProcessMetrics(ctx, batches, mean(walls), setups);
}

void
traced(RunContext &ctx)
{
    const double start = now();
    LayerTotals layers;
    std::vector<double> pass_walls, unaccounted;
    // Traced passes of batch 0 while they leave room for the layer
    // probe.
    do {
        const std::int64_t root = ctx.tracer.begin("workload", -1);
        std::vector<dfi::inject::CampaignResult> cells;
        for (const CellSpec &cell : sampledCells())
            cells.push_back(
                tracedCell(cellConfig(cell, ctx.seed), cell.name(),
                           ctx.tracer, root, layers));
        ctx.tracer.end(root);
        const Span span = ctx.tracer.spans().at(root);
        pass_walls.push_back(span.end - span.start);
        unaccounted.push_back(ctx.tracer.unaccountedFrac(root));
        for (std::size_t i = 0; i < cells.size(); ++i) {
            CellResult result;
            result.cell = sampledCells()[i].name();
            summarizeCell(cells[i], result);
            ctx.gate("b0/" + result.cell, result);
        }
    } while (now() - start + pass_walls.back() < 0.6 * ctx.seconds);

    // The same calls untraced, for the overhead: batch 0 once more as
    // cold campaigns.
    double untraced_s = 0.0;
    for (const CellSpec &cell : sampledCells()) {
        const CellResult result = runCellCold(cell, ctx.seed);
        ctx.gate("b0/" + result.cell, result);
        untraced_s += result.setupSeconds + result.campaignSeconds;
    }

    const std::int64_t probe_root = ctx.tracer.begin("probe", -1);
    const ProbeResult probe = layerProbe(ctx.tracer, probe_root);
    ctx.tracer.end(probe_root);
    const double passes = static_cast<double>(pass_walls.size());
    addLayerMetrics(ctx.metrics, layers, ctx.tracer.selfTimes(), passes,
                    probe, ServiceTotals{}, median(unaccounted),
                    overheadFrac(layers, passes * untraced_s));
}

} // namespace

void
runSampledCells(RunContext &ctx)
{
    if (ctx.collect != nullptr)
        untraced(ctx, kReferencedBatches);
    else if (ctx.trace)
        traced(ctx);
    else
        untraced(ctx, batchCount(ctx.seconds));
}

} // namespace perfbench
