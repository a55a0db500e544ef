/**
 * @file
 * Metric bookkeeping for the benchmark: name validation, the
 * percentile rule, and the one-line JSON result every run prints.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/**
 * A metric name starts with a letter or digit and holds at most 64
 * letters, digits, `_`, `.` and `-`.
 */
bool validMetricName(std::string_view name);

/** A unit holds 1-16 letters, digits, `_`, `/`, `%`, `.` and `-`. */
bool validUnit(std::string_view unit);

/** Median of the samples (mean of the middle pair); 0 when empty. */
double median(std::vector<double> samples);

/** Arithmetic mean; 0 when empty. */
double mean(const std::vector<double> &samples);

/**
 * A nearest-rank percentile: `value` is the sample at rank
 * ceil(percent * n / 100), and `beyond` counts the samples ranked
 * above it.  A percentile is reportable only when at least
 * kMinBeyond samples lie beyond it.
 */
struct Percentile
{
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0;

    static constexpr std::size_t kMinBeyond = 10;
    bool reportable() const { return beyond >= kMinBeyond; }
};

Percentile percentile(std::vector<double> samples, unsigned percent);

/** Fewest samples for which `percent` leaves kMinBeyond beyond it. */
std::size_t samplesForPercentile(unsigned percent);

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** An ordered set of uniquely named metrics. */
class MetricSet
{
  public:
    /** Add a metric; panics on a bad name/unit or a duplicate. */
    void add(const std::string &name, double value,
             const std::string &unit);

    const std::vector<Metric> &all() const { return metrics_; }
    const Metric *find(std::string_view name) const;

  private:
    std::vector<Metric> metrics_;
};

/** Shortest round-trip decimal form of a double (all its digits). */
std::string formatValue(double value);

/**
 * The result object: exactly the keys correct, attempted, failed and
 * metrics, each metric as {"value": v, "unit": u}.
 */
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const MetricSet &metrics);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
