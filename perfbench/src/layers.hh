/**
 * @file
 * The traced run's layer attribution.
 *
 * tracedCell() calls the public pieces of a campaign one at a time —
 * program build, compile, prepared(), probe-core construction,
 * planCampaign(), every runTask() — each inside its own span, and
 * then run() on the same campaign.  run() is timed as one span whose
 * plan and execute shares are taken from the piecewise calls (plan)
 * and from run()'s own per-task wall totals (execute); what is left
 * is the ordered commit and telemetry building.
 *
 * layerProbe() measures raw simulator speed below the campaign:
 * core construction, ticking each sampled cell's program from reset
 * to exit, FaultableArray::readBits with no observer armed, and
 * copying a checkpoint.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cells.hh"
#include "trace.hh"

namespace perfbench
{

/**
 * Work counts of the traced cell passes of one run.  Layer times come
 * from the spans themselves (Tracer::selfTimes).
 */
struct LayerTotals
{
    std::uint64_t goldenCycles = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t runsTotal = 0;
    std::uint64_t simulated = 0;
    std::uint64_t prunedStatic = 0;
    std::uint64_t prunedEquiv = 0;
    double planRssMb = 0.0; //!< largest resident growth over a plan
    std::vector<double> taskSeconds;
    std::uint64_t simCycles = 0;
    std::map<std::string, std::uint64_t> simCyclesByCell;
    std::uint64_t fullRunCycles = 0;
    std::uint64_t telemetryBytes = 0;
    /**
     * Time of the calls an untraced cold campaign makes, prepared()
     * and run(), as made inside the traced passes.
     */
    double tracedCallsS = 0.0;
};

/** Client-side service measurements of served_sweep. */
struct ServiceTotals
{
    std::vector<double> queueS;
    std::vector<double> executeS;
    std::vector<double> responseS;
    std::uint64_t responseBytes = 0;
    std::uint64_t responses = 0;
    std::uint64_t cacheHitResponses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t evictions = 0;
};

/**
 * Traced pass of one cell under `parent`.  The run() result it
 * returns is checked by the gate like an untraced one, after the
 * caller has closed its spans.
 */
dfi::inject::CampaignResult tracedCell(const dfi::inject::CampaignConfig &cfg,
                      const std::string &name, Tracer &tracer,
                      std::int64_t parent, LayerTotals &totals);

struct ProbeResult
{
    double constructMs = 0.0;
    std::map<std::string, double> mcyclesPerS; //!< by core name
    double readBitsNs = 0.0;
    double checkpointCopyUs = 0.0;
};

ProbeResult layerProbe(Tracer &tracer, std::int64_t parent);

/**
 * Tracing overhead: prepared() and run() as timed inside the traced
 * passes, against `untracedS`, the same calls of separate untraced
 * cold campaigns of the same cells in the same process, minus one.
 * The piecewise calls a traced pass makes first are not counted: they
 * are the trace's own work, not a cost it adds to the calls it
 * observes.
 */
double overheadFrac(const LayerTotals &layers, double untracedS);

/**
 * Add every per-layer metric.  Layer times are span self times summed
 * over the traced passes (inject.run's self time is the commit
 * share).  Layers a workload does not exercise report zero.  `passes`
 * divides the summed times and counts into per-pass values.
 */
void addLayerMetrics(MetricSet &metrics, const LayerTotals &layers,
                     const std::map<std::string, double> &selfTimes,
                     double passes, const ProbeResult &probe,
                     const ServiceTotals &service,
                     double unaccountedFrac, double overheadFrac);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
