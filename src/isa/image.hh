/**
 * @file
 * Program image: the output of the assembler/linker and the input of
 * the loaders (interpreter and both simulators).
 */

#ifndef DFI_ISA_IMAGE_HH
#define DFI_ISA_IMAGE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/types.hh"
#include "syskit/memory.hh"

namespace dfi::isa
{

/** A fully linked guest program. */
struct Image
{
    IsaKind isa = IsaKind::X86;
    std::uint32_t codeBase = 0;  //!< base VA of the code segment
    std::uint32_t entry = 0;     //!< initial PC
    std::vector<std::uint8_t> code;
    std::uint32_t dataBase = 0;  //!< base VA of initialized data
    std::vector<std::uint8_t> data;
    std::uint32_t bssBase = 0;   //!< base VA of zero-initialized data
    std::uint32_t bssSize = 0;
    std::uint32_t memSize = 0;   //!< total guest memory size
    std::uint32_t stackTop = 0;  //!< initial SP
    std::map<std::string, std::uint32_t> symbols; //!< data symbols (VA)

    /** First address above the read-only code segment. */
    std::uint32_t codeLimit() const
    {
        return codeBase + static_cast<std::uint32_t>(code.size());
    }

    /** Address of a named data symbol; fatal() if unknown. */
    std::uint32_t symbol(const std::string &name) const;

    /** Build a guest memory with the image loaded. */
    syskit::GuestMemory makeMemory() const;
};

} // namespace dfi::isa

#endif // DFI_ISA_IMAGE_HH
