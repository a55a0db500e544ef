/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Spans are recorded around each call into a layer (name, start, end,
 * parent, request id), kept in memory, and written out as JSON when
 * the run ends.  A span's self time is its duration minus the part of
 * it that its children cover; a traced pass is accounted for by the
 * union of its layer spans' self times.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Seconds on the steady clock since process start. */
double now();

struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1; //!< index into the span list, -1 = root
    std::uint64_t request = 0;
};

class Tracer
{
  public:
    /** Open a span now; returns its id. */
    std::int64_t begin(const std::string &name, std::int64_t parent,
                       std::uint64_t request = 0);
    void end(std::int64_t id);

    /** Record a finished span with known bounds. */
    std::int64_t add(const std::string &name, double start, double end,
                     std::int64_t parent, std::uint64_t request = 0);

    std::vector<Span> spans() const;

    /** Sum of self times per span name, over every span. */
    std::map<std::string, double> selfTimes() const;

    /**
     * Share of `root`'s duration that no layer span's self time covers
     * (union of intervals, so concurrent spans count once).  Time a
     * container span ("workload", "cell", ...) spends outside its
     * children is unaccounted.
     */
    double unaccountedFrac(std::int64_t root) const;

    /** {"spans": [...]} with every span. */
    std::string toJson() const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/**
 * True for a span that times a call into a layer: a name that starts
 * with a module name and a dot ("inject.plan", "service.queue").
 */
bool isLayerSpan(const std::string &name);

/** Length of the union of [start, end) intervals. */
double unionLength(std::vector<std::pair<double, double>> intervals);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
