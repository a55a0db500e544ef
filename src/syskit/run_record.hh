/**
 * @file
 * The outcome record of one simulated run.
 *
 * A RunRecord captures everything the Parser needs to classify a fault
 * injection run into the paper's six classes (Masked, SDC, DUE,
 * Timeout, Crash, Assert): how the run terminated (including which of
 * the three crash levels — process, system/kernel, simulator), the
 * program's output bytes, the log of survivable exception indications
 * (the DUE evidence), and runtime statistics.
 */

#ifndef DFI_SYSKIT_RUN_RECORD_HH
#define DFI_SYSKIT_RUN_RECORD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace dfi::syskit
{

/** How a simulated run ended. */
enum class Termination : std::uint8_t
{
    Exited,       //!< guest called exit()
    ProcessCrash, //!< guest process killed (segfault, illegal insn, ...)
    KernelPanic,  //!< simulated system unable to recover (system crash)
    SimAssert,    //!< simulator assertion checkpoint fired
    SimCrash,     //!< simulator itself would have crashed
    CycleLimit    //!< exceeded the campaign's timeout bound
};

std::string terminationName(Termination term);

/** One survivable exception indication (evidence for the DUE class). */
struct DueEvent
{
    std::string kind;   //!< e.g. "alignment-fixup", "div-zero", "efault"
    std::uint64_t pc = 0;
};

/** Complete record of one run. */
struct RunRecord
{
    Termination term = Termination::Exited;
    std::uint32_t exitCode = 0;
    std::vector<std::uint8_t> output;  //!< bytes written via sys_write
    std::vector<DueEvent> dueEvents;   //!< raised-but-survived exceptions
    std::string detail;                //!< crash / assert message
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    bool earlyStopMasked = false;      //!< campaign stopped it as masked
    std::string earlyStopReason;
    dfi::StatSet stats;                //!< simulator runtime statistics

    bool completed() const { return term == Termination::Exited; }
};

} // namespace dfi::syskit

#endif // DFI_SYSKIT_RUN_RECORD_HH
