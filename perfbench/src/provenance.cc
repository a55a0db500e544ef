#include "provenance.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include "common/version.hh"

namespace perfbench
{

dfi::json::Value
provenance(const ProvenanceInput &input)
{
    using dfi::json::Value;
    Value doc = Value::object();
    doc.set("kind", Value::string("perfbench-provenance"));
    doc.set("workload", Value::string(input.workload));
    doc.set("seed", Value::unsignedInt(input.seed));
    doc.set("trace", Value::boolean(input.trace));
    doc.set("commit", Value::string(input.commit));
    doc.set("source_digest", Value::string(input.sourceDigest));
    doc.set("generator", Value::string(dfi::versionString()));
    doc.set("nproc",
            Value::integer(static_cast<std::int64_t>(
                ::sysconf(_SC_NPROCESSORS_ONLN))));
    doc.set("compiler", Value::string(PERFBENCH_COMPILER));
    doc.set("build_type", Value::string(PERFBENCH_BUILD_TYPE));
    doc.set("cxx_flags", Value::string(PERFBENCH_CXX_FLAGS));
    doc.set("model_validation",
            Value::string("the simulator models are not validated "
                          "against hardware, so no model-error "
                          "figure is given"));
    doc.set("cache_state",
            Value::string("golden runs start from reset with empty "
                          "caches; faulty runs restore warm "
                          "checkpoints captured during the golden "
                          "run"));
    doc.set("timing",
            Value::string("host wall-clock on a shared machine; "
                          "compare runs of one host only"));
    return doc;
}

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
        }
    }
    if (cpus.empty())
        cpus.push_back(0);
    return cpus;
}

PinnedToCpu::PinnedToCpu(int cpu)
{
    CPU_ZERO(&saved_);
    ::sched_getaffinity(0, sizeof(saved_), &saved_);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(0, sizeof(one), &one);
}

PinnedToCpu::~PinnedToCpu()
{
    ::sched_setaffinity(0, sizeof(saved_), &saved_);
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
currentRssMb()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0, resident = 0;
    statm >> size >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double
peakRssMbOf(int pid)
{
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return -1.0;
}

} // namespace perfbench
