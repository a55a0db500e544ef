#include "syskit/run_record.hh"

#include "common/logging.hh"

namespace dfi::syskit
{

std::string
terminationName(Termination term)
{
    switch (term) {
      case Termination::Exited:
        return "exited";
      case Termination::ProcessCrash:
        return "process-crash";
      case Termination::KernelPanic:
        return "kernel-panic";
      case Termination::SimAssert:
        return "sim-assert";
      case Termination::SimCrash:
        return "sim-crash";
      case Termination::CycleLimit:
        return "cycle-limit";
    }
    panic("terminationName: bad value %s", static_cast<int>(term));
}

} // namespace dfi::syskit
