#include "isa/image.hh"

#include "common/logging.hh"

namespace dfi::isa
{

std::uint32_t
Image::symbol(const std::string &name) const
{
    auto it = symbols.find(name);
    if (it == symbols.end())
        fatal("image has no symbol '%s'", name);
    return it->second;
}

syskit::GuestMemory
Image::makeMemory() const
{
    syskit::GuestMemory memory(memSize, codeLimit());
    if (!code.empty())
        memory.pokeBytes(codeBase,
                         static_cast<std::uint32_t>(code.size()),
                         code.data());
    if (!data.empty())
        memory.pokeBytes(dataBase,
                         static_cast<std::uint32_t>(data.size()),
                         data.data());
    return memory;
}

} // namespace dfi::isa
