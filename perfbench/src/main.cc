/**
 * @file
 * dfi-perfbench: the repository benchmark program.
 *
 *   dfi-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                 --serve-binary PATH --refs FILE --run-dir DIR
 *                 [--commit ID] [--source-digest HEX]
 *   dfi-perfbench --workload NAME --write-refs FILE ...
 *
 * Prints a provenance line, a details line, and last the result
 * object {"correct", "attempted", "failed", "metrics"}.  With
 * --trace 0 the metrics are the end-to-end ones, with --trace 1 the
 * per-layer ones from a traced run, whose spans are written to
 * DIR/trace-NAME-seedN.json.  Exits 1 when any operation failed its
 * correctness gate, 2 when the default seed has no committed
 * reference.  --write-refs regenerates the committed gate references
 * of one workload at the default seed, and writes nothing when any
 * result fails its self-check.
 */

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cells.hh"
#include "common/parse_num.hh"
#include "provenance.hh"
#include "workloads.hh"

using namespace perfbench;
using dfi::json::Value;

namespace
{

[[noreturn]] void
usage(const std::string &message)
{
    std::fprintf(stderr, "dfi-perfbench: %s\n", message.c_str());
    std::exit(2);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** The references file, or an empty object when absent. */
Value
loadReferences(const std::string &path)
{
    Value refs = Value::object();
    const std::string text = readFile(path);
    std::string error;
    if (!text.empty() && !dfi::json::parse(text, refs, error))
        usage("cannot parse " + path + ": " + error);
    return refs;
}

std::uint64_t
toUint(const std::string &flag, const std::string &text)
{
    std::uint64_t value = 0;
    if (!dfi::parseUnsigned(text, value))
        usage(flag + " expects a whole number, got '" + text + "'");
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    RunContext ctx;
    std::string refs_path, write_refs, commit = "unknown", digest = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            ctx.workload = value;
        else if (flag == "--seed")
            ctx.seed = toUint(flag, value);
        else if (flag == "--seconds")
            ctx.seconds = static_cast<double>(toUint(flag, value));
        else if (flag == "--trace")
            ctx.trace = toUint(flag, value) != 0;
        else if (flag == "--serve-binary")
            ctx.serveBinary = value;
        else if (flag == "--refs")
            refs_path = value;
        else if (flag == "--run-dir")
            ctx.runDir = value;
        else if (flag == "--commit")
            commit = value;
        else if (flag == "--source-digest")
            digest = value;
        else if (flag == "--write-refs")
            write_refs = value;
        else
            usage("unknown flag " + flag);
    }
    void (*run)(RunContext &) = nullptr;
    if (ctx.workload == "sampled_cells")
        run = runSampledCells;
    else if (ctx.workload == "exhaustive_lsq")
        run = runExhaustiveLsq;
    else if (ctx.workload == "served_sweep")
        run = runServedSweep;
    else
        usage("unknown workload '" + ctx.workload +
              "' (sampled_cells, exhaustive_lsq, served_sweep)");
    if (ctx.runDir.empty())
        usage("--run-dir is required");
    ::mkdir(ctx.runDir.c_str(), 0755);

    Value refs = loadReferences(write_refs.empty() ? refs_path : write_refs);
    Value collected = Value::object();
    std::string reference_status;
    if (!write_refs.empty()) {
        ctx.seed = kDefaultSeed;
        ctx.seconds = 0;
        ctx.collect = &collected;
    } else if (const Value *entry = refs.find(ctx.workload);
               entry != nullptr && entry->find("seed") != nullptr &&
               entry->get("seed").asUint() == ctx.seed) {
        ctx.reference = &entry->get("slots");
        reference_status = "checked against committed references";
    } else if (ctx.seed == kDefaultSeed) {
        std::fprintf(stderr,
                     "dfi-perfbench: %s has no committed %s references at "
                     "the default seed %llu\n",
                     refs_path.c_str(), ctx.workload.c_str(),
                     static_cast<unsigned long long>(kDefaultSeed));
        return 2;
    } else {
        reference_status = "no committed reference exists for seed " +
                           std::to_string(ctx.seed) +
                           "; only self-consistency checks ran";
        std::fprintf(stderr, "dfi-perfbench: %s\n", reference_status.c_str());
    }

    try {
        run(ctx);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "dfi-perfbench: %s\n", err.what());
        return 2;
    }

    if (!write_refs.empty()) {
        if (ctx.failed != 0) {
            for (const std::string &failure : ctx.failures)
                std::fprintf(stderr, "dfi-perfbench: %s\n", failure.c_str());
            std::fprintf(stderr,
                         "dfi-perfbench: %llu results failed; %s left "
                         "unchanged\n",
                         static_cast<unsigned long long>(ctx.failed),
                         write_refs.c_str());
            return 1;
        }
        Value entry = Value::object();
        entry.set("seed", Value::unsignedInt(ctx.seed));
        entry.set("slots", std::move(collected));
        refs.set(ctx.workload, std::move(entry));
        std::ofstream(write_refs) << refs.dumpPretty();
        std::fprintf(stderr, "dfi-perfbench: wrote %s references to %s\n",
                     ctx.workload.c_str(), write_refs.c_str());
        return 0;
    }

    const std::string spans_path = ctx.runDir + "/trace-" + ctx.workload +
                                   "-seed" + std::to_string(ctx.seed) +
                                   ".json";
    if (ctx.trace) {
        std::ofstream(spans_path) << ctx.tracer.toJson() << "\n";
        ctx.metrics.add("error_rate",
                        ctx.attempted == 0
                            ? 0.0
                            : static_cast<double>(ctx.failed) /
                                  static_cast<double>(ctx.attempted),
                        "ratio");
    }

    std::printf("%s\n",
                provenance({ctx.workload, ctx.seed, ctx.trace, commit, digest})
                    .dump()
                    .c_str());
    Value details = Value::object();
    details.set("kind", Value::string("perfbench-details"));
    details.set("reference", Value::string(reference_status));
    Value notes = Value::array();
    for (const std::string &note : ctx.notes)
        notes.push(Value::string(note));
    details.set("notes", std::move(notes));
    Value failures = Value::array();
    for (std::size_t i = 0; i < ctx.failures.size() && i < 20; ++i)
        failures.push(Value::string(ctx.failures[i]));
    details.set("failures", std::move(failures));
    if (ctx.trace)
        details.set("spans", Value::string(spans_path));
    std::printf("%s\n", details.dump().c_str());
    std::printf("%s\n", resultLine(ctx.failed == 0, ctx.attempted, ctx.failed,
                                   ctx.metrics)
                            .c_str());
    return ctx.failed == 0 ? 0 : 1;
}
