/**
 * @file
 * Tests for the benchmark's own helpers: the percentile rule, digest
 * canonicalisation, metric-name validation, and the client-side phase
 * split of a recorded NDJSON stream.
 *
 * Run: python3 perfbench/run.py --self-test   (exit 0 = all pass)
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "digest.hh"
#include "inject/telemetry.hh"
#include "metrics.hh"
#include "ndjson_phases.hh"
#include "trace.hh"

using namespace perfbench;

namespace
{

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++g_failures;
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testPercentileRule()
{
    std::vector<double> samples;
    for (int i = 1; i <= 100; ++i)
        samples.push_back(i);
    const Percentile p90 = percentile(samples, 90);
    check(near(p90.value, 90.0), "p90 of 1..100 is 90");
    check(p90.beyond == 10 && p90.reportable(),
          "p90 of 100 samples leaves 10 beyond it");
    samples.pop_back();
    check(!percentile(samples, 90).reportable(),
          "p90 of 99 samples leaves only 9 beyond it");
    check(samplesForPercentile(90) == 100, "p90 needs 100 samples");
    check(samplesForPercentile(99) == 1000, "p99 needs 1000 samples");
    check(samplesForPercentile(50) == 20, "p50 needs 20 samples");
    const Percentile p50 = percentile({3.0, 1.0, 2.0}, 50);
    check(near(p50.value, 2.0) && p50.beyond == 1, "p50 of 3 samples");
    check(percentile({}, 90).samples == 0, "empty percentile");
    check(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median");
}

/** A runs-stream line and a summary shaped like the telemetry writer's. */
const char *kHeader =
    R"({"kind":"dfi-telemetry","schema":3,"generator":"dfi 0.6.0",)"
    R"("config":{"component":"l2","seed":11},"golden":{"cycles":100},)"
    R"("runs_total":2,"prune":{"pruned_static":1,"pruned_equiv":0,)"
    R"("simulated":1}})";
const char *kRecord =
    R"({"run":0,"seed":11,"component":"l2","outcome":"Masked",)"
    R"("subclass":"","instructions":7,"cycles":100,"sim_cycles":40,)"
    R"("restore_us":3,"wall_us":120,"jobs":2,"prune_class":0})";

std::string
withField(std::string line, const std::string &from, const std::string &to)
{
    line.replace(line.find(from), from.size(), to);
    return line;
}

void
testDigestCanonicalisation()
{
    const std::string runs = std::string(kHeader) + "\n" + kRecord + "\n";
    const std::string base = telemetryDigest(runs);
    check(!base.empty(), "runs stream digests");

    // Every volatile field may change without changing the digest.
    const std::vector<std::pair<std::string, std::string>> volatile_edits = {
        {"\"wall_us\":120", "\"wall_us\":999"},
        {"\"restore_us\":3", "\"restore_us\":0"},
        {"\"sim_cycles\":40", "\"sim_cycles\":0"},
        {"\"jobs\":2", "\"jobs\":1"},
        {"\"prune_class\":0", "\"prune_class\":5"},
        {"\"generator\":\"dfi 0.6.0\"", "\"generator\":\"dfi 9.9.9\""},
        {"\"pruned_static\":1", "\"pruned_static\":0"},
    };
    for (const auto &[from, to] : volatile_edits) {
        std::string edited = runs;
        edited.replace(edited.find(from), from.size(), to);
        check(telemetryDigest(edited) == base,
              "volatile edit " + from + " keeps the digest");

        // dfi-diff --exact agrees: the edit is not drift.
        dfi::inject::TelemetryFile a, b;
        std::string error, report;
        check(dfi::inject::parseTelemetry(runs, a, error) &&
                  dfi::inject::parseTelemetry(edited, b, error),
              "telemetry parses");
        check(dfi::inject::diffTelemetry(a, b, {}, report) ==
                  dfi::inject::DiffOutcome::Equal,
              "dfi-diff --exact ignores " + from);
    }

    // A simulated outcome change does change it, as dfi-diff sees it.
    const std::string drifted =
        withField(runs, "\"outcome\":\"Masked\"", "\"outcome\":\"SDC\"");
    check(telemetryDigest(drifted) != base, "outcome edit changes digest");
    const std::string longer =
        withField(runs, "\"cycles\":100,\"sim", "\"cycles\":101,\"sim");
    check(telemetryDigest(longer) != base, "cycle edit changes digest");

    // The summary's volatile block and the pretty layout are ignored.
    const std::string summary =
        "{\n  \"kind\": \"dfi-summary\",\n  \"runs\": 2,\n"
        "  \"volatile\": {\n    \"jobs\": 2,\n    \"wall_total_us\": 5\n"
        "  }\n}\n";
    const std::string summary2 =
        "{\"kind\":\"dfi-summary\",\"runs\":2,\"volatile\":{\"jobs\":1}}";
    check(telemetryDigest(summary) == telemetryDigest(summary2),
          "summary digest ignores layout and the volatile block");
    check(telemetryDigest(summary) !=
              telemetryDigest(withField(summary, "\"runs\": 2", "\"runs\": 3")),
          "summary run count changes digest");

    check(telemetryDigest(R"({"a":1)").empty(),
          "unbalanced document has no digest");

    // A stream long enough to be canonicalised on several threads
    // hashes like the same lines one at a time, in order.
    std::string big;
    dfi::hash::Fnv1a serial;
    for (int run = 0; run < 100000; ++run) {
        const std::string line =
            withField(kRecord, "\"run\":0", "\"run\":" + std::to_string(run));
        big += line + "\n";
        dfi::json::Value tree;
        std::string error;
        dfi::json::parse(line, tree, error);
        serial.update(stripVolatile(tree).dump());
    }
    check(telemetryDigest(big) == serial.hexDigest(),
          "threaded digest equals the in-order serial digest");
    std::size_t at = 0;
    for (int line = 0; line < 40000; ++line)
        at = big.find('\n', at) + 1;
    big.insert(at, "not json\n");
    check(telemetryDigest(big).empty(),
          "a bad line on a helper thread leaves no digest");
    check(telemetryDigest("{\"a\":1}\nnot json\n").empty(),
          "malformed runs stream has no digest");
}

void
testMetricNames()
{
    for (const char *good : {"wall_s", "inject.sim_cycles.gem5-x86.fft.l1d",
                             "uarch.mcycles_per_s.marss-x86", "9lives"})
        check(validMetricName(good), std::string("valid name ") + good);
    for (const char *bad : {"", "_lead", ".lead", "has space", "slash/no",
                            "pct%", "quote\""})
        check(!validMetricName(bad), std::string("invalid name ") + bad);
    check(!validMetricName(std::string(65, 'a')), "65-char name rejected");
    check(validMetricName(std::string(64, 'a')), "64-char name accepted");
    for (const char *good : {"s", "ms", "1/s", "count", "MiB", "%", "MB/s"})
        check(validUnit(good), std::string("valid unit ") + good);
    check(!validUnit("") && !validUnit("two words") &&
              !validUnit(std::string(17, 's')),
          "invalid units rejected");

    MetricSet metrics;
    metrics.add("a.b", 1.5, "s");
    const std::string line = resultLine(true, 3, 0, metrics);
    check(line == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                  "\"metrics\": {\"a.b\": {\"value\": 1.5, \"unit\": \"s\"}}}",
          "result line: " + line);
    check(formatValue(0.1 + 0.2) == "0.30000000000000004",
          "values keep all their digits");
}

void
testPhaseSplit()
{
    const std::string progress =
        R"({"kind":"dfi-progress","done":1,"total":4})";
    const std::string response =
        R"({"kind":"dfi-response","ok":true,"op":"campaign"})";
    // Written at 1.0; progress at 1.5, 2.0, 3.0; response at 3.2;
    // decoded at 3.25.
    const PhaseSplit split =
        splitPhases(1.0,
                    {{1.5, progress}, {2.0, progress}, {3.0, progress},
                     {3.2, response}},
                    3.25);
    check(split.ok && split.progressLines == 3, "split parses the stream");
    check(near(split.queue, 0.5), "queue: write to first progress");
    check(near(split.execute, 1.5), "execute: first to last progress");
    check(near(split.response, 0.25), "response: last progress to decoded");
    check(near(split.queue + split.execute + split.response, split.total),
          "phases add up to the latency");
    check(split.responseBytes == response.size() + 1, "response bytes");

    // A fully pruned campaign streams no progress.
    const PhaseSplit quiet = splitPhases(0.0, {{0.4, response}}, 0.5);
    check(quiet.ok && near(quiet.queue, 0.4) && near(quiet.execute, 0.0) &&
              near(quiet.response, 0.1),
          "no progress: queue lasts until the response line");

    check(!splitPhases(0.0, {{0.1, progress}}, 0.2).ok,
          "a stream without a response does not split");
    check(!splitPhases(0.0, {{0.1, response}, {0.2, progress}}, 0.3).ok,
          "progress after the response is rejected");
    check(!splitPhases(0.0, {{0.1, "not json"}}, 0.3).ok,
          "garbage lines are rejected");
}

void
testSpans()
{
    Tracer tracer;
    const std::int64_t root = tracer.add("workload", 0.0, 10.0, -1);
    const std::int64_t cell = tracer.add("cell", 1.0, 9.0, root);
    tracer.add("inject.plan", 1.0, 3.0, cell);
    // A gap in the container from 3 to 4: no layer covers it.
    const std::int64_t exec = tracer.add("inject.execute", 4.0, 8.0, cell);
    tracer.add("inject.task", 4.0, 5.0, exec);
    tracer.add("inject.task", 6.0, 8.0, exec);
    // Concurrent with the end of the cell: 9-9.5 is covered once.
    tracer.add("service.request", 8.5, 9.5, root);
    check(near(tracer.unaccountedFrac(root), 0.3),
          "unaccounted: 0-1, the container gap 3-4, 8-8.5 and 9.5-10");
    const auto self = tracer.selfTimes();
    check(near(self.at("inject.execute"), 1.0) &&
              near(self.at("inject.task"), 3.0) &&
              near(self.at("cell"), 2.0) && near(self.at("workload"), 1.5),
          "self time subtracts the children's coverage");

    // Container spans alone account for nothing.
    Tracer bare;
    const std::int64_t top = bare.add("workload", 0.0, 4.0, -1);
    bare.add("cell", 0.0, 4.0, top);
    check(near(bare.unaccountedFrac(top), 1.0),
          "a container child does not cover its parent");
    check(isLayerSpan("uarch.probe.tick") && isLayerSpan("prog.build") &&
              !isLayerSpan("cell") && !isLayerSpan("probe") &&
              !isLayerSpan("cell.x"),
          "layer spans are named after a module");
    check(near(unionLength({{0, 2}, {1, 3}, {5, 6}}), 4.0), "interval union");
}

} // namespace

int
main()
{
    testPercentileRule();
    testDigestCanonicalisation();
    testMetricNames();
    testPhaseSplit();
    testSpans();
    if (g_failures == 0)
        std::printf("perfbench-selftest: all checks passed\n");
    return g_failures == 0 ? 0 : 1;
}
