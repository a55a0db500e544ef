/**
 * @file
 * Client-side phase split of one served request.
 *
 * The client records when it wrote the request, when each NDJSON line
 * of the reply arrived, and when it finished decoding the terminal
 * response.  From that stream alone it splits the request latency
 * into three phases that add up to the whole:
 *
 *  - queue:    request written until the first progress line (the
 *              daemon's admission wait, prepare, plan and first run);
 *  - execute:  first progress line until the last one;
 *  - response: last progress line until the response is decoded
 *              (transport and decoding of the artifacts).
 *
 * A campaign whose runs were all pruned streams no progress: its
 * queue phase lasts until the response line arrived, and execute is
 * zero.
 */

#ifndef PERFBENCH_NDJSON_PHASES_HH
#define PERFBENCH_NDJSON_PHASES_HH

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench
{

/** One reply line and the client time (seconds) it arrived. */
struct StreamLine
{
    double at = 0.0;
    std::string text;
};

struct PhaseSplit
{
    bool ok = false;          //!< a dfi-response line was seen
    std::size_t progressLines = 0;
    std::size_t responseBytes = 0; //!< size of the response line
    double queue = 0.0;
    double execute = 0.0;
    double response = 0.0;
    double total = 0.0;       //!< decoded - written
};

/**
 * Split a recorded stream.  `written` is when the request was
 * written, `decoded` when the response was decoded; lines are in
 * arrival order.  Lines that are neither progress nor response make
 * the split fail (ok = false).
 */
PhaseSplit splitPhases(double written,
                       const std::vector<StreamLine> &lines,
                       double decoded);

} // namespace perfbench

#endif // PERFBENCH_NDJSON_PHASES_HH
