/**
 * @file
 * Provenance block printed with every result: what was measured, on
 * what, and what the numbers do not claim.
 */

#ifndef PERFBENCH_PROVENANCE_HH
#define PERFBENCH_PROVENANCE_HH

#include <sched.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"

namespace perfbench
{

struct ProvenanceInput
{
    std::string workload;
    std::uint64_t seed = 0;
    bool trace = false;
    std::string commit;       //!< git commit, or "unknown"
    std::string sourceDigest; //!< digest of the measured sources
};

dfi::json::Value provenance(const ProvenanceInput &input);

/** CPUs this process may run on. */
std::vector<int> allowedCpus();

/**
 * Pins the calling thread (and any process it forks) to one CPU while
 * in scope.  The virtual CPUs of a shared host can differ in speed by
 * half or more, so short set-up samples are taken round robin over
 * every CPU instead of on whichever one the scheduler picked.
 */
class PinnedToCpu
{
  public:
    explicit PinnedToCpu(int cpu);
    ~PinnedToCpu();
    PinnedToCpu(const PinnedToCpu &) = delete;
    PinnedToCpu &operator=(const PinnedToCpu &) = delete;

  private:
    cpu_set_t saved_;
};

/** Peak resident set of this process, in MiB (getrusage). */
double peakRssMb();

/** Current resident set of this process, in MiB (/proc/self/statm). */
double currentRssMb();

/** Peak resident set (VmHWM) of another process, in MiB; -1 if gone. */
double peakRssMbOf(int pid);

} // namespace perfbench

#endif // PERFBENCH_PROVENANCE_HH
