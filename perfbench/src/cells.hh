/**
 * @file
 * Campaign cells, the shared run context of the workloads, and the
 * correctness gate.
 *
 * A cell is one (core, program, component) campaign.  Every workload
 * builds its campaigns from cells, runs them through the public
 * InjectionCampaign API, and turns each finished campaign into a
 * CellResult: class counts, canonical telemetry digest and golden
 * StatSet digest for the gate, and the counts the metrics need.
 */

#ifndef PERFBENCH_CELLS_HH
#define PERFBENCH_CELLS_HH

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"
#include "inject/campaign.hh"
#include "inject/parser.hh"
#include "metrics.hh"
#include "trace.hh"

namespace perfbench
{

/** The seed every workload uses when --seed is not given. */
inline constexpr std::uint64_t kDefaultSeed = 11;

struct CellSpec
{
    std::string core;
    std::string benchmark;
    std::string component;
    std::uint64_t injections = 0; //!< 0 with exhaustive
    bool exhaustive = false;
    std::uint32_t jobs = 1;

    /** "core.benchmark.component", usable in a metric name. */
    std::string name() const;
};

/** The four sampled cells: all three cores, four structures. */
const std::vector<CellSpec> &sampledCells();

/** --exhaustive gem5-x86 / micro / lsq at jobs 2. */
CellSpec exhaustiveCell();

/**
 * Campaign config of a cell at default settings (prune, checkpoints
 * and both early stops on), telemetry captured in memory with timing
 * so each simulated run reports its wall time.
 */
dfi::inject::CampaignConfig cellConfig(const CellSpec &cell,
                                       std::uint64_t seed);

/** Derive the campaign seed of batch `index` from the workload seed. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t index);

using ClassArray = std::array<std::uint64_t, dfi::inject::kNumOutcomeClasses>;

struct CellResult
{
    std::string cell;
    std::uint64_t seed = 0;
    ClassArray counts{};
    std::string telemetryDigest;
    std::string goldenStatsDigest;
    std::uint64_t runs = 0;      //!< classified: executed + pruned
    std::uint64_t simulated = 0; //!< executed faulty runs
    /** Wall time of each simulated run (s), from the telemetry. */
    std::vector<double> runSeconds;
    double setupSeconds = 0.0;    //!< prepared(): build+compile+golden
    double campaignSeconds = 0.0; //!< run()
    std::string problem;          //!< non-empty: self-check failed
};

/**
 * Gate inputs and counts of a finished campaign.  Self-checks that
 * the telemetry parses and its summary agrees with the classified
 * result; a failure lands in `problem`.
 */
void summarizeCell(const dfi::inject::CampaignResult &result,
                   CellResult &out);

/**
 * A cold campaign exactly as `dfi-campaign` runs it: prepared(), then
 * run().  Only those two calls are timed.
 */
CellResult runCellCold(const CellSpec &cell, std::uint64_t seed);

/** Gate reference of one cell result. */
dfi::json::Value cellReference(const CellResult &result);

/** Compare a result against its reference; "" when they agree. */
std::string checkCellReference(const CellResult &result,
                               const dfi::json::Value &reference);

/** Per-run options and the outcome every workload accumulates. */
struct RunContext
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string serveBinary; //!< path of dfi-serve
    std::string runDir;      //!< scratch dir for sockets, logs, spans
    /** Committed references of this workload at this seed, or null. */
    const dfi::json::Value *reference = nullptr;
    /** When set, collect references instead of checking them. */
    dfi::json::Value *collect = nullptr;

    MetricSet metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<std::string> notes;
    Tracer tracer;

    /** Count one operation; `problem` non-empty marks it failed. */
    void operation(const std::string &problem);

    /**
     * Gate one cell result: its self-check, then the committed
     * reference in slot `key`, which must exist (or, when collecting,
     * record it there).  Counts as one operation.
     */
    void gate(const std::string &key, const CellResult &result);

  private:
    std::mutex mu_;
};

} // namespace perfbench

#endif // PERFBENCH_CELLS_HH
