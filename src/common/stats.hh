/**
 * @file
 * Lightweight runtime-statistics package.
 *
 * Each simulator instance owns a StatSet; microarchitectural components
 * register named counters into it.  The per-benchmark statistics the
 * paper uses to explain divergences between the tools (issued vs.
 * committed loads, cache hit/miss/replacement counts, branch
 * mispredictions, ...) are all plain counters in this set, dumped by
 * the `bench_runtime_stats` harness.
 *
 * StatSet is value-semantic (copyable) so it participates in simulator
 * checkpointing for free.
 */

#ifndef DFI_COMMON_STATS_HH
#define DFI_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"

namespace dfi
{

/** A named bag of 64-bit counters with formatted dumping. */
class StatSet
{
  public:
    /** Add delta (default 1) to counter `name`, creating it at zero. */
    void
    inc(const std::string &name, std::uint64_t delta = 1)
    {
        counters_[name] += delta;
    }

    /** Set counter `name` to an absolute value. */
    void
    set(const std::string &name, std::uint64_t value)
    {
        counters_[name] = value;
    }

    /** Value of counter `name`; zero if never touched. */
    std::uint64_t get(const std::string &name) const;

    /**
     * Add every counter of `other` into this set (campaign-wide
     * aggregation across runs).  Addition is commutative, so merging
     * per-run sets in any order yields the same aggregate.
     */
    void merge(const StatSet &other);

    /** True if the counter was ever touched. */
    bool has(const std::string &name) const;

    /** Ratio get(num)/get(den); zero when the denominator is zero. */
    double ratio(const std::string &num, const std::string &den) const;

    /** All counters, sorted by name. */
    const std::map<std::string, std::uint64_t> &all() const
    {
        return counters_;
    }

    /** Reset every counter to zero (keeps names). */
    void clear();

    /** Multi-line "name = value" dump, sorted by name. */
    std::string dump(const std::string &prefix = "") const;

  private:
    std::map<std::string, std::uint64_t> counters_;
};

/**
 * Fixed-width text table builder used by the bench harnesses to print
 * paper-style tables and stacked-bar figures on the terminal.
 */
class TextTable
{
  public:
    /** Set the header row. */
    void header(std::vector<std::string> cells);

    /** Append a data row. */
    void row(std::vector<std::string> cells);

    /** Render with aligned columns. */
    std::string render() const;

    /**
     * The table as JSON ({"header": [...], "rows": [[...], ...]}),
     * the machine-readable twin every table bench writes next to its
     * text output.
     */
    json::Value toJson() const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed decimals (helper for reports). */
std::string formatFixed(double value, int decimals);

} // namespace dfi

#endif // DFI_COMMON_STATS_HH
