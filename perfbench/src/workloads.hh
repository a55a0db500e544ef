/**
 * @file
 * The three workloads and the end-to-end metrics they share.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cells.hh"

namespace perfbench
{

/** One repetition of an in-process workload. */
struct Batch
{
    double wall = 0.0;  //!< set-up plus campaigns
    double setup = 0.0; //!< prepared() of every cell
    std::uint64_t runs = 0;
    std::uint64_t simulated = 0;
    std::vector<double> runSeconds;

    void add(const CellResult &cell);
};

/**
 * End-to-end metrics of an in-process workload.  A "request" is one
 * simulated faulty run, timed by the campaign's own telemetry.
 * `wall` is the batch wall statistic (mean over batches with
 * different inputs, median over repeats of the same inputs);
 * set-up samples may include extra cold set-ups.
 */
void addInProcessMetrics(RunContext &ctx, const std::vector<Batch> &batches,
                         double wall, const std::vector<double> &setups);

void runSampledCells(RunContext &ctx);
void runExhaustiveLsq(RunContext &ctx);
void runServedSweep(RunContext &ctx);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
