#include "cells.hh"

#include "common/rng.hh"
#include "digest.hh"
#include "inject/telemetry.hh"
#include "provenance.hh"
#include "workloads.hh"

namespace perfbench
{

using dfi::inject::CampaignConfig;
using dfi::inject::CampaignResult;
using dfi::inject::InjectionCampaign;
using dfi::inject::OutcomeClass;
using dfi::json::Value;

std::string
CellSpec::name() const
{
    return core + "." + benchmark + "." + component;
}

const std::vector<CellSpec> &
sampledCells()
{
    // Injection counts balance the cells' simulated time: search and
    // fft simulate most of their runs, qsort/lsq and djpeg/l1i prune
    // most of theirs.
    static const std::vector<CellSpec> cells = {
        {"marss-x86", "search", "l2", 16},
        {"gem5-x86", "fft", "l1d", 12},
        {"gem5-x86", "qsort", "lsq", 150},
        {"gem5-arm", "djpeg", "l1i", 100},
    };
    return cells;
}

CellSpec
exhaustiveCell()
{
    CellSpec cell{"gem5-x86", "micro", "lsq", 0};
    cell.exhaustive = true;
    cell.jobs = 2;
    return cell;
}

CampaignConfig
cellConfig(const CellSpec &cell, std::uint64_t seed)
{
    CampaignConfig cfg;
    cfg.coreName = cell.core;
    cfg.benchmark = cell.benchmark;
    cfg.component = cell.component;
    cfg.numInjections = cell.injections;
    cfg.exhaustive = cell.exhaustive;
    cfg.jobs = cell.jobs;
    cfg.seed = seed;
    cfg.telemetryCapture = true;
    cfg.telemetryTiming = true;
    return cfg;
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t index)
{
    if (index == 0)
        return seed;
    dfi::Rng rng(seed * 0x9e3779b97f4a7c15ull + index);
    // Keep campaign seeds readable in telemetry and CLI repro lines.
    return rng.next64() % 1000000007ull;
}

namespace
{

/** Wall time of every simulated run in a runs stream (wall_us > 0). */
void
collectRunSeconds(const std::string &runs, std::vector<double> &out)
{
    static const std::string kKey = "\"wall_us\":";
    std::size_t pos = 0;
    while ((pos = runs.find(kKey, pos)) != std::string::npos) {
        pos += kKey.size();
        std::uint64_t micros = 0;
        while (pos < runs.size() && runs[pos] >= '0' && runs[pos] <= '9')
            micros = micros * 10 + static_cast<std::uint64_t>(runs[pos++] - '0');
        if (micros > 0)
            out.push_back(static_cast<double>(micros) / 1e6);
    }
}

/** Class counts from a summary artifact; false when malformed. */
bool
summaryCounts(const std::string &summary, ClassArray &out)
{
    Value doc;
    std::string error;
    if (!dfi::json::parse(summary, doc, error))
        return false;
    const Value *classes = doc.find("classes");
    if (classes == nullptr)
        return false;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const Value *entry = classes->find(
            dfi::inject::outcomeClassName(static_cast<OutcomeClass>(i)));
        const Value *count = entry ? entry->find("count") : nullptr;
        if (count == nullptr || !count->isNumber())
            return false;
        out[i] = count->asUint();
    }
    return true;
}

} // namespace

void
summarizeCell(const CampaignResult &result, CellResult &out)
{
    out.seed = result.config.seed;
    const dfi::inject::Parser parser;
    const dfi::inject::ClassCounts counts = result.classify(parser);
    out.counts = counts.counts;
    out.runs = result.records.size() + result.pruned.size();
    out.simulated = result.records.size();
    out.goldenStatsDigest = statSetDigest(result.golden.stats);
    collectRunSeconds(result.telemetryRuns, out.runSeconds);

    const std::string runs_digest = telemetryDigest(result.telemetryRuns);
    const std::string summary_digest =
        telemetryDigest(result.telemetrySummary);
    if (runs_digest.empty() || summary_digest.empty()) {
        out.problem = out.cell + ": telemetry does not parse";
        return;
    }
    out.telemetryDigest = runs_digest + summary_digest;

    ClassArray summary{};
    if (!summaryCounts(result.telemetrySummary, summary)) {
        out.problem = out.cell + ": telemetry summary lacks class counts";
        return;
    }
    if (summary != out.counts)
        out.problem = out.cell + ": telemetry summary disagrees with "
                                 "the classified runs";
    const std::uint64_t expected =
        result.config.exhaustive ? counts.total()
                                 : result.config.numInjections;
    if (counts.total() != out.runs || out.runs != expected)
        out.problem = out.cell + ": " + std::to_string(out.runs) +
                      " runs classified, " + std::to_string(expected) +
                      " planned";
}

CellResult
runCellCold(const CellSpec &cell, std::uint64_t seed)
{
    CellResult out;
    out.cell = cell.name();
    InjectionCampaign campaign(cellConfig(cell, seed));
    const double t0 = now();
    campaign.prepared();
    const double t1 = now();
    const CampaignResult result = campaign.run();
    const double t2 = now();
    out.setupSeconds = t1 - t0;
    out.campaignSeconds = t2 - t1;
    summarizeCell(result, out);
    return out;
}

Value
cellReference(const CellResult &result)
{
    Value ref = Value::object();
    Value counts = Value::array();
    for (const std::uint64_t count : result.counts)
        counts.push(Value::unsignedInt(count));
    ref.set("seed", Value::unsignedInt(result.seed));
    ref.set("counts", std::move(counts));
    ref.set("telemetry", Value::string(result.telemetryDigest));
    ref.set("golden_stats", Value::string(result.goldenStatsDigest));
    return ref;
}

std::string
checkCellReference(const CellResult &result, const Value &reference)
{
    const Value expected = cellReference(result);
    for (const char *key : {"seed", "counts", "telemetry", "golden_stats"}) {
        const Value *want = reference.find(key);
        if (want == nullptr || want->dump() != expected.get(key).dump())
            return result.cell + ": " + key + " " +
                   expected.get(key).dump() + " != reference " +
                   (want ? want->dump() : std::string("(missing)"));
    }
    return "";
}

void
RunContext::operation(const std::string &problem)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted;
    if (!problem.empty()) {
        ++failed;
        failures.push_back(problem);
    }
}

void
RunContext::gate(const std::string &key, const CellResult &result)
{
    std::string problem = result.problem;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (collect != nullptr) {
            collect->set(key, cellReference(result));
        } else if (reference != nullptr && problem.empty()) {
            const Value *expected = reference->find(key);
            problem = expected == nullptr
                          ? "no committed reference for this result"
                          : checkCellReference(result, *expected);
        }
    }
    if (!problem.empty())
        problem = key + ": " + problem;
    operation(problem);
}

void
Batch::add(const CellResult &cell)
{
    wall += cell.setupSeconds + cell.campaignSeconds;
    setup += cell.setupSeconds;
    runs += cell.runs;
    simulated += cell.simulated;
    runSeconds.insert(runSeconds.end(), cell.runSeconds.begin(),
                      cell.runSeconds.end());
}

void
addInProcessMetrics(RunContext &ctx, const std::vector<Batch> &batches,
                    double wall, const std::vector<double> &setups)
{
    double busy = 0.0;
    std::uint64_t runs = 0, simulated = 0;
    std::vector<double> latencies;
    for (const Batch &batch : batches) {
        busy += batch.wall - batch.setup;
        runs += batch.runs;
        simulated += batch.simulated;
        latencies.insert(latencies.end(), batch.runSeconds.begin(),
                         batch.runSeconds.end());
    }
    const Percentile p50 = percentile(latencies, 50);
    const Percentile p90 = percentile(latencies, 90);
    if (!p90.reportable())
        ctx.notes.push_back("request_p90_s has only " +
                            std::to_string(p90.beyond) +
                            " samples beyond it");
    ctx.notes.push_back("batches " + std::to_string(batches.size()) +
                        ", request samples " +
                        std::to_string(latencies.size()) + ", beyond p90 " +
                        std::to_string(p90.beyond));
    ctx.metrics.add("wall_s", wall, "s");
    ctx.metrics.add("setup_s", median(setups), "s");
    ctx.metrics.add("runs_per_s", static_cast<double>(runs) / busy, "1/s");
    ctx.metrics.add("peak_rss_mb", peakRssMb(), "MiB");
    ctx.metrics.add("requests_per_s", static_cast<double>(simulated) / busy,
                    "1/s");
    ctx.metrics.add("request_p50_s", p50.value, "s");
    ctx.metrics.add("request_p90_s", p90.value, "s");
}

} // namespace perfbench
