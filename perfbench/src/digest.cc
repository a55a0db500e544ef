#include "digest.hh"

#include <algorithm>
#include <array>
#include <thread>
#include <vector>

#include "common/hash.hh"

namespace perfbench
{

bool
isVolatileKey(std::string_view key)
{
    static constexpr std::array<std::string_view, 11> kVolatile = {
        "wall_us",         "jobs",        "volatile",
        "wall_total_us",   "sim_cycles",  "restore_us",
        "sim_cycles_total", "restore_total_us", "prune",
        "prune_class",     "generator",
    };
    for (const std::string_view name : kVolatile) {
        if (key == name)
            return true;
    }
    return false;
}

dfi::json::Value
stripVolatile(const dfi::json::Value &value)
{
    using dfi::json::Kind;
    using dfi::json::Value;
    switch (value.kind()) {
      case Kind::Object: {
        Value out = Value::object();
        for (const auto &[key, member] : value.members()) {
            if (!isVolatileKey(key))
                out.set(key, stripVolatile(member));
        }
        return out;
      }
      case Kind::Array: {
        Value out = Value::array();
        for (std::size_t i = 0; i < value.size(); ++i)
            out.push(stripVolatile(value.at(i)));
        return out;
      }
      default:
        return value;
    }
}

namespace
{

/** Lines one thread canonicalises per round. */
constexpr std::size_t kLinesPerTask = std::size_t{1} << 15;
constexpr unsigned kDigestThreads = 3;

/** Canonical form of lines [begin, end); false when one does not parse. */
bool
canonicalLines(const std::vector<std::string_view> &lines, std::size_t begin,
               std::size_t end, std::vector<std::string> &out)
{
    dfi::json::Value parsed;
    std::string error;
    for (std::size_t i = begin; i < end; ++i) {
        if (!dfi::json::parse(std::string(lines[i]), parsed, error))
            return false;
        out.push_back(stripVolatile(parsed).dump());
    }
    return true;
}

} // namespace

std::string
telemetryDigest(std::string_view artifact)
{
    dfi::hash::Fnv1a hasher;
    const std::size_t first = artifact.find_first_not_of(" \t\r\n");
    const std::size_t first_end = artifact.find('\n', first);
    dfi::json::Value parsed;
    std::string error;
    if (first != std::string_view::npos &&
        !dfi::json::parse(std::string(artifact.substr(first, first_end - first)),
                          parsed, error)) {
        // Not JSONL: a pretty-printed summary spans lines, so it is
        // canonicalised as one document.
        if (!dfi::json::parse(std::string(artifact), parsed, error))
            return "";
        hasher.update(stripVolatile(parsed).dump());
        return hasher.hexDigest();
    }
    std::vector<std::string_view> lines;
    std::size_t pos = 0;
    while (pos < artifact.size()) {
        std::size_t end = artifact.find('\n', pos);
        if (end == std::string_view::npos)
            end = artifact.size();
        const std::string_view line = artifact.substr(pos, end - pos);
        pos = end + 1;
        if (line.find_first_not_of(" \t\r") != std::string_view::npos)
            lines.push_back(line);
    }
    // A stream of more than one task's lines (an exhaustive campaign
    // writes 1.5M) is canonicalised on kDigestThreads threads, a
    // round of tasks at a time so the canonical copies stay small,
    // and hashed in order.  A shorter one stays on the calling thread.
    for (std::size_t round = 0; round < lines.size();
         round += kDigestThreads * kLinesPerTask) {
        std::array<std::vector<std::string>, kDigestThreads> canonical;
        std::array<bool, kDigestThreads> ok{};
        auto task = [&](unsigned t) {
            const std::size_t begin =
                std::min(lines.size(), round + t * kLinesPerTask);
            const std::size_t end =
                std::min(lines.size(), begin + kLinesPerTask);
            ok[t] = canonicalLines(lines, begin, end, canonical[t]);
        };
        std::vector<std::thread> threads;
        for (unsigned t = 1; t < kDigestThreads; ++t) {
            if (round + t * kLinesPerTask < lines.size())
                threads.emplace_back(task, t);
            else
                ok[t] = true;
        }
        task(0);
        for (std::thread &thread : threads)
            thread.join();
        for (unsigned t = 0; t < kDigestThreads; ++t) {
            if (!ok[t])
                return "";
            for (const std::string &line : canonical[t])
                hasher.update(line);
        }
    }
    return hasher.hexDigest();
}

std::string
statSetDigest(const dfi::StatSet &stats)
{
    dfi::hash::Fnv1a hasher;
    for (const auto &[name, value] : stats.all()) {
        hasher.update(name);
        hasher.update(value);
    }
    return hasher.hexDigest();
}

} // namespace perfbench
