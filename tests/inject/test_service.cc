/**
 * @file
 * Tests for the campaign service layer: cache-key derivation, the
 * warm PreparedCampaign cache, concurrent FIFO/quota admission with
 * single-flight preparation, the restart-persistent response memo,
 * the NDJSON protocol encode/decode halves (inject/service.hh), and
 * the shared campaign flag block (inject/config_fields.hh).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/cli.hh"
#include "common/failpoint.hh"
#include "common/json.hh"
#include "inject/campaign.hh"
#include "inject/config_fields.hh"
#include "inject/service.hh"

namespace
{

using namespace dfi;
using namespace dfi::inject;

CampaignConfig
smokeConfig()
{
    CampaignConfig cfg;
    cfg.coreName = "marss-x86";
    cfg.benchmark = "micro";
    cfg.component = "int_regfile";
    cfg.numInjections = 24;
    cfg.seed = 7;
    return cfg;
}

/** Disarms the failpoint registry on scope exit (test hygiene). */
struct FailpointGuard
{
    ~FailpointGuard() { failpoint::reset(); }
};

// ---------------------------------------------------------------
// CampaignConfig::cacheKey()
// ---------------------------------------------------------------

/**
 * The key must be a pure function of the campaign-relevant values —
 * stable across processes, hosts, and sessions — so the expected
 * digest is a literal.  If this test fails, the key derivation
 * changed and every previously cached artifact silently becomes
 * unreachable: bump the version tag in cacheKey() deliberately, not
 * by accident.
 */
TEST(CacheKey, PinnedDigestIsStableAcrossProcesses)
{
    EXPECT_EQ(smokeConfig().cacheKey(), "709a0fa662302086");
}

TEST(CacheKey, IgnoresExecutionStrategyAndTelemetryFields)
{
    const std::string base = smokeConfig().cacheKey();

    CampaignConfig cfg = smokeConfig();
    cfg.jobs = 8;
    EXPECT_EQ(cfg.cacheKey(), base);

    cfg = smokeConfig();
    cfg.telemetryOut = "/tmp/somewhere";
    cfg.telemetryTiming = true;
    cfg.telemetryCapture = true;
    EXPECT_EQ(cfg.cacheKey(), base);

    cfg = smokeConfig();
    cfg.resumeFrom = "/tmp/prior.jsonl";
    EXPECT_EQ(cfg.cacheKey(), base);

    cfg = smokeConfig();
    cfg.shard.index = 1;
    cfg.shard.count = 4;
    EXPECT_EQ(cfg.cacheKey(), base);

    cfg = smokeConfig();
    cfg.prune = false;
    EXPECT_EQ(cfg.cacheKey(), base);
}

TEST(CacheKey, ChangesWhenAnyCampaignRelevantFieldChanges)
{
    const std::string base = smokeConfig().cacheKey();

    const std::vector<
        std::pair<const char *, void (*)(CampaignConfig &)>>
        mutations = {
            {"component",
             [](CampaignConfig &c) { c.component = "l1d"; }},
            {"benchmark",
             [](CampaignConfig &c) { c.benchmark = "sha"; }},
            {"scale", [](CampaignConfig &c) { c.scale = 2; }},
            {"core",
             [](CampaignConfig &c) { c.coreName = "gem5-arm"; }},
            {"injections",
             [](CampaignConfig &c) { c.numInjections = 25; }},
            {"confidence",
             [](CampaignConfig &c) {
                 c.numInjections = 0;
                 c.confidence = 0.95;
             }},
            {"margin",
             [](CampaignConfig &c) {
                 c.numInjections = 0;
                 c.margin = 0.05;
             }},
            {"exhaustive",
             [](CampaignConfig &c) {
                 c.numInjections = 0;
                 c.exhaustive = true;
             }},
            {"fault_type",
             [](CampaignConfig &c) {
                 c.faultType = FaultType::Permanent;
             }},
            {"population",
             [](CampaignConfig &c) {
                 c.population = Population::DoubleAdjacent;
             }},
            {"intermittent_min",
             [](CampaignConfig &c) { c.intermittentMin = 51; }},
            {"intermittent_max",
             [](CampaignConfig &c) { c.intermittentMax = 501; }},
            {"cache_scale",
             [](CampaignConfig &c) { c.cacheScale = 0.125; }},
            {"timeout_factor",
             [](CampaignConfig &c) { c.timeoutFactor = 4.0; }},
            {"early_stop_invalid_entry",
             [](CampaignConfig &c) {
                 c.earlyStopInvalidEntry = false;
             }},
            {"early_stop_overwrite",
             [](CampaignConfig &c) { c.earlyStopOverwrite = false; }},
            {"seed", [](CampaignConfig &c) { c.seed = 8; }},
            {"use_checkpoints",
             [](CampaignConfig &c) { c.useCheckpoints = false; }},
            {"checkpoint_count",
             [](CampaignConfig &c) { c.checkpointCount = 7; }},
            {"checkpoint_budget",
             [](CampaignConfig &c) {
                 c.checkpointMemBudgetMB = 128;
             }},
        };

    std::vector<std::string> keys{base};
    for (const auto &[name, mutate] : mutations) {
        CampaignConfig cfg = smokeConfig();
        mutate(cfg);
        const std::string key = cfg.cacheKey();
        EXPECT_NE(key, base) << "field did not affect the key: "
                             << name;
        for (const std::string &prior : keys)
            EXPECT_NE(key, prior)
                << "key collision involving field: " << name;
        keys.push_back(key);
    }
}

// ---------------------------------------------------------------
// Protocol encode/decode
// ---------------------------------------------------------------

TEST(ServiceProtocol, RequestRoundTripPreservesConfig)
{
    ServiceRequest request;
    request.op = "campaign";
    request.client = "ci";
    request.config.coreName = "gem5-arm";
    request.config.benchmark = "crc";
    request.config.component = "rob";
    request.config.scale = 3;
    request.config.numInjections = 99;
    request.config.confidence = 0.95;
    request.config.margin = 0.05;
    request.config.faultType = FaultType::Intermittent;
    request.config.population = Population::DoubleRandom;
    request.config.intermittentMin = 10;
    request.config.intermittentMax = 20;
    request.config.exhaustive = true;
    request.config.prune = false;
    request.config.cacheScale = 0.5;
    request.config.timeoutFactor = 5.0;
    request.config.earlyStopInvalidEntry = false;
    request.config.earlyStopOverwrite = false;
    request.config.useCheckpoints = false;
    request.config.checkpointCount = 9;
    request.config.checkpointMemBudgetMB = 64;
    request.config.seed = 1234;
    request.config.jobs = 4;
    request.config.telemetryTiming = true;

    ServiceRequest decoded;
    std::string error;
    ASSERT_TRUE(decodeServiceRequest(encodeServiceRequest(request),
                                     decoded, error))
        << error;
    EXPECT_EQ(decoded.op, "campaign");
    EXPECT_EQ(decoded.client, "ci");
    // Campaign-relevant equality is exactly key equality, plus the
    // execution knobs the protocol carries.
    EXPECT_EQ(decoded.config.cacheKey(), request.config.cacheKey());
    EXPECT_EQ(decoded.config.jobs, 4u);
    EXPECT_FALSE(decoded.config.prune);
    EXPECT_TRUE(decoded.config.telemetryTiming);
}

TEST(ServiceProtocol, DecodeRejectsUnknownOpAndKeys)
{
    json::Value line = encodeServiceRequest(ServiceRequest{});
    std::string error;
    ServiceRequest out;

    json::Value bad_op = line;
    bad_op.set("op", json::Value::string("explode"));
    EXPECT_FALSE(decodeServiceRequest(bad_op, out, error));
    EXPECT_NE(error.find("unknown operation"), std::string::npos);

    json::Value bad_cfg = line;
    json::Value cfg = json::Value::object();
    cfg.set("telemetry_out", json::Value::string("/tmp/x"));
    bad_cfg.set("config", cfg);
    EXPECT_FALSE(decodeServiceRequest(bad_cfg, out, error));
    EXPECT_NE(error.find("unknown key"), std::string::npos);

    json::Value bad_type = line;
    cfg = json::Value::object();
    cfg.set("injections", json::Value::string("many"));
    bad_type.set("config", cfg);
    EXPECT_FALSE(decodeServiceRequest(bad_type, out, error));
}

TEST(ServiceProtocol, DecodeRejectsNegativeIntegersWithoutAborting)
{
    // Parsed wire bytes, not a hand-built tree: the parser stores
    // -1 as Kind::Int with the negative flag, which asUint() would
    // abort on -- the decoder must turn it into an error instead.
    json::Value line;
    std::string error;
    ASSERT_TRUE(json::parse(
        "{\"kind\":\"dfi-request\",\"op\":\"campaign\","
        "\"config\":{\"injections\":-1}}",
        line, error));
    ServiceRequest out;
    EXPECT_FALSE(decodeServiceRequest(line, out, error));
    EXPECT_NE(error.find("unsigned integer"), std::string::npos);

    // Negative doubles stay legal wherever a number is expected.
    json::Value number_cfg;
    ASSERT_TRUE(json::parse(
        "{\"kind\":\"dfi-request\",\"op\":\"campaign\","
        "\"config\":{\"confidence\":-0.5}}",
        number_cfg, error));
    EXPECT_TRUE(decodeServiceRequest(number_cfg, out, error));
    EXPECT_EQ(out.config.confidence, -0.5);

    // Negative counts in a response are rejected, not aborted on.
    json::Value response_line;
    ASSERT_TRUE(json::parse(
        "{\"kind\":\"dfi-response\",\"op\":\"campaign\","
        "\"ok\":true,\"runs_total\":-3,"
        "\"counts\":{\"Masked\":-1}}",
        response_line, error));
    ServiceResponse response;
    EXPECT_FALSE(
        decodeServiceResponse(response_line, response, error));
    EXPECT_NE(error.find("unsigned"), std::string::npos);
}

// ---------------------------------------------------------------
// Protocol checks driven by the config field list
// ---------------------------------------------------------------

/** A value of the field's type that differs from `base`. */
template <class T>
T
otherValue(const T &base)
{
    if constexpr (std::is_same_v<T, std::string>)
        return base + "-x";
    else if constexpr (std::is_same_v<T, bool>)
        return !base;
    else if constexpr (std::is_same_v<T, double>)
        return base + 0.5;
    else if constexpr (std::is_same_v<T, FaultType>)
        return base == FaultType::Permanent ? FaultType::Transient
                                            : FaultType::Permanent;
    else if constexpr (std::is_same_v<T, Population>)
        return base == Population::DoubleRandom
                   ? Population::SingleBit
                   : Population::DoubleRandom;
    else
        return base + 1;
}

/** The JSON text of field `key` in `cfg` (empty when unknown). */
std::string
fieldText(const CampaignConfig &cfg, const std::string &key)
{
    std::string text;
    forEachConfigField(cfg, [&](const char *name, const auto &member,
                                ConfigFieldRole) {
        if (key == name)
            text = configFieldJson(member).dump();
    });
    return text;
}

/** Decode a request whose config is exactly `{"<key>": <value>}`. */
bool
decodeOneField(const std::string &key, const std::string &value,
               ServiceRequest &out, std::string &error)
{
    json::Value line;
    if (!json::parse("{\"kind\":\"dfi-request\",\"op\":\"campaign\","
                     "\"config\":{\"" +
                         key + "\":" + value + "}}",
                     line, error))
        return false;
    return decodeServiceRequest(line, out, error);
}

TEST(ServiceProtocol, FieldListHasEveryWireFieldOnceByRole)
{
    const CampaignConfig cfg;
    std::set<std::string> keys;
    std::map<ConfigFieldRole, int> roles;
    forEachConfigField(cfg, [&](const char *key, const auto &,
                                ConfigFieldRole role) {
        EXPECT_TRUE(keys.insert(key).second) << "duplicate " << key;
        ++roles[role];
    });
    EXPECT_EQ(keys.size(), 23u);
    EXPECT_EQ(roles[ConfigFieldRole::Outcome], 17);
    EXPECT_EQ(roles[ConfigFieldRole::Shape], 3);
    EXPECT_EQ(roles[ConfigFieldRole::Execution], 3);
}

TEST(ServiceProtocol, EveryConfigFieldRoundTrips)
{
    const CampaignConfig defaults;
    CampaignConfig cfg;
    forEachConfigField(cfg, [&](const char *key, auto &member,
                                ConfigFieldRole) {
        SCOPED_TRACE(key);
        const auto saved = member;
        member = otherValue(member);
        ServiceRequest request;
        request.config = cfg;
        member = saved;

        ServiceRequest decoded;
        std::string error;
        ASSERT_TRUE(decodeServiceRequest(
            encodeServiceRequest(request), decoded, error))
            << error;
        EXPECT_EQ(fieldText(decoded.config, key),
                  fieldText(request.config, key));
        EXPECT_NE(fieldText(decoded.config, key),
                  fieldText(defaults, key));
    });
}

TEST(ServiceProtocol, EveryConfigFieldRejectsTheWrongJsonKind)
{
    const CampaignConfig cfg;
    forEachConfigField(cfg, [](const char *key, const auto &member,
                               ConfigFieldRole) {
        SCOPED_TRACE(key);
        const bool is_string =
            configFieldJson(member).kind() == json::Kind::String;
        const std::string wrong = is_string ? "true" : "\"x\"";
        ServiceRequest out;
        std::string error;
        EXPECT_FALSE(decodeOneField(key, wrong, out, error));
        EXPECT_NE(error.find(std::string("config.") + key),
                  std::string::npos)
            << error;
    });
}

TEST(ServiceProtocol, IntegerFieldsRejectNegativeAndOutOfRangeValues)
{
    const CampaignConfig cfg;
    forEachConfigField(cfg, [](const char *key, const auto &member,
                               ConfigFieldRole) {
        using T = std::decay_t<decltype(member)>;
        if constexpr (std::is_integral_v<T> &&
                      !std::is_same_v<T, bool>) {
            SCOPED_TRACE(key);
            const std::string prefix = std::string("config.") + key;
            ServiceRequest out;
            std::string error;
            EXPECT_FALSE(decodeOneField(key, "-1", out, error));
            EXPECT_EQ(error, prefix + ": expected an unsigned integer");

            // 2^32 must never wrap into a 32-bit member; 64-bit
            // members take it, and UINT32_MAX fits both.
            const bool narrow = sizeof(T) == sizeof(std::uint32_t);
            EXPECT_EQ(decodeOneField(key, "4294967296", out, error),
                      !narrow);
            if (narrow)
                EXPECT_EQ(error, prefix + ": out of range");
            else
                EXPECT_EQ(fieldText(out.config, key), "4294967296");
            ASSERT_TRUE(decodeOneField(key, "4294967295", out, error))
                << error;
            EXPECT_EQ(fieldText(out.config, key), "4294967295");
        }
    });
}

// ---------------------------------------------------------------
// The campaign flag block shared by dfi-campaign and dfi-serve
// ---------------------------------------------------------------

cli::ParseResult
parseCampaignFlags(std::vector<std::string> args, CampaignConfig &cfg,
                   std::string &error)
{
    cli::FlagSet flags("test", "[options]");
    addCampaignFlags(flags, cfg);
    args.insert(args.begin(), "test");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return flags.parse(static_cast<int>(argv.size()), argv.data(),
                       error);
}

TEST(CampaignFlags, SetEveryFlaggedWireField)
{
    CampaignConfig cfg;
    std::string error;
    ASSERT_EQ(parseCampaignFlags(
                  {"--core", "gem5-arm", "--benchmark", "fft",
                   "--component", "l1d", "--scale", "3",
                   "--injections", "9", "--confidence", "0.95",
                   "--margin", "0.05", "--fault-type", "intermittent",
                   "--population", "double-random", "--seed", "11",
                   "--exhaustive", "--no-prune", "--timeout-factor",
                   "4", "--cache-scale", "0.5", "--no-early-stop",
                   "--no-checkpoints", "--checkpoints", "4",
                   "--checkpoint-budget", "64", "--telemetry-timing"},
                  cfg, error),
              cli::ParseResult::Ok)
        << error;

    // Every wire field has a flag except the intermittent bounds
    // (protocol-only) and jobs (each tool registers its own).
    const CampaignConfig defaults;
    forEachConfigField(cfg, [&](const char *key, const auto &,
                                ConfigFieldRole) {
        const std::string name = key;
        if (name == "jobs" || name == "intermittent_min" ||
            name == "intermittent_max")
            return;
        EXPECT_NE(fieldText(cfg, name), fieldText(defaults, name))
            << name;
    });
}

TEST(CampaignFlags, RejectOutOfRangeAndUnknownValues)
{
    CampaignConfig cfg;
    std::string error;
    EXPECT_EQ(parseCampaignFlags({"--scale", "4294967296"}, cfg, error),
              cli::ParseResult::Error);
    EXPECT_NE(error.find("--scale"), std::string::npos) << error;
    EXPECT_EQ(
        parseCampaignFlags({"--checkpoints", "4294967296"}, cfg, error),
        cli::ParseResult::Error);
    EXPECT_NE(error.find("--checkpoints"), std::string::npos) << error;
    EXPECT_EQ(
        parseCampaignFlags({"--fault-type", "cosmic"}, cfg, error),
        cli::ParseResult::Error);
    EXPECT_NE(error.find("expected transient | intermittent | "
                         "permanent"),
              std::string::npos)
        << error;
    EXPECT_EQ(
        parseCampaignFlags({"--population", "triple"}, cfg, error),
        cli::ParseResult::Error);

    ASSERT_EQ(parseCampaignFlags({"--scale", "4294967295",
                                  "--checkpoints", "4294967295"},
                                 cfg, error),
              cli::ParseResult::Ok)
        << error;
    EXPECT_EQ(cfg.scale, std::numeric_limits<std::uint32_t>::max());
    EXPECT_EQ(cfg.checkpointCount,
              std::numeric_limits<std::uint32_t>::max());
}

TEST(ServiceProtocol, ResponseRoundTripPreservesArtifacts)
{
    ServiceResponse response;
    response.ok = true;
    response.op = "campaign";
    response.cacheKey = "0123456789abcdef";
    response.cacheHit = true;
    response.runsTotal = 24;
    for (std::size_t i = 0; i < response.counts.counts.size(); ++i)
        response.counts.counts[i] = i + 1;
    response.vulnerability = 4.25;
    response.telemetryRuns = "{\"kind\":\"header\"}\n{\"run\":1}\n";
    response.telemetrySummary = "{\n  \"schema\": 3\n}\n";

    ServiceResponse decoded;
    std::string error;
    ASSERT_TRUE(decodeServiceResponse(encodeServiceResponse(response),
                                      decoded, error))
        << error;
    EXPECT_TRUE(decoded.ok);
    EXPECT_EQ(decoded.cacheKey, "0123456789abcdef");
    EXPECT_TRUE(decoded.cacheHit);
    EXPECT_EQ(decoded.runsTotal, 24u);
    EXPECT_EQ(decoded.counts.counts, response.counts.counts);
    EXPECT_DOUBLE_EQ(decoded.vulnerability, 4.25);
    EXPECT_EQ(decoded.telemetryRuns, response.telemetryRuns);
    EXPECT_EQ(decoded.telemetrySummary, response.telemetrySummary);
}

// ---------------------------------------------------------------
// PreparedCampaign sharing
// ---------------------------------------------------------------

TEST(PreparedCampaign, AdoptedPreparationReproducesColdRun)
{
    InjectionCampaign cold(smokeConfig());
    const CampaignResult cold_result = cold.run();

    InjectionCampaign warm(smokeConfig());
    warm.adoptPrepared(cold.prepared());
    const CampaignResult warm_result = warm.run();

    ASSERT_EQ(warm_result.records.size(),
              cold_result.records.size());
    for (std::size_t i = 0; i < cold_result.records.size(); ++i) {
        EXPECT_EQ(warm_result.records[i].term,
                  cold_result.records[i].term);
        EXPECT_EQ(warm_result.records[i].cycles,
                  cold_result.records[i].cycles);
        EXPECT_EQ(warm_result.records[i].output,
                  cold_result.records[i].output);
    }
    EXPECT_EQ(warm_result.pruned.size(), cold_result.pruned.size());
}

// ---------------------------------------------------------------
// CampaignService
// ---------------------------------------------------------------

TEST(Service, WarmRequestHitsCacheWithIdenticalArtifacts)
{
    CampaignService service({});
    ServiceRequest request;
    request.config = smokeConfig();

    const ServiceResponse cold = service.execute(request);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_FALSE(cold.cacheHit);
    EXPECT_EQ(cold.runsTotal, 24u);
    EXPECT_FALSE(cold.telemetryRuns.empty());
    EXPECT_FALSE(cold.telemetrySummary.empty());

    const ServiceResponse warm = service.execute(request);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.cacheKey, cold.cacheKey);
    EXPECT_EQ(warm.telemetryRuns, cold.telemetryRuns);
    EXPECT_EQ(warm.telemetrySummary, cold.telemetrySummary);

    const CampaignService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_GT(stats.bytes, 0u);
}

TEST(Service, ZeroBudgetDisablesCaching)
{
    CampaignService::Options options;
    options.cacheBudgetBytes = 0;
    CampaignService service(options);
    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    EXPECT_FALSE(service.execute(request).cacheHit);
    EXPECT_FALSE(service.execute(request).cacheHit);
    const CampaignService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.entries, 0u);
}

TEST(Service, LruEvictsColdestEntryWhenOverBudget)
{
    // Size the budget from a first service so it holds exactly one
    // preparation; the entries for configs A and B are the same
    // shape, so inserting B must evict A.
    ServiceRequest a;
    a.config = smokeConfig();
    a.config.numInjections = 8;
    ServiceRequest b = a;
    b.config.seed = 8;

    CampaignService sizing({});
    ASSERT_TRUE(sizing.execute(a).ok);
    const std::uint64_t one_entry = sizing.cacheStats().bytes;
    ASSERT_GT(one_entry, 0u);

    CampaignService::Options options;
    options.cacheBudgetBytes = one_entry + 1;
    CampaignService service(options);

    ASSERT_FALSE(service.execute(a).cacheHit);
    ASSERT_FALSE(service.execute(b).cacheHit); // evicts a
    EXPECT_EQ(service.cacheStats().evictions, 1u);
    EXPECT_EQ(service.cacheStats().entries, 1u);

    EXPECT_TRUE(service.execute(b).cacheHit);  // b survived
    EXPECT_FALSE(service.execute(a).cacheHit); // a was evicted
}

TEST(Service, ExecuteReportsInvalidConfigInsteadOfThrowing)
{
    CampaignService service({});
    ServiceRequest request;
    request.config = smokeConfig();
    request.config.component = "no_such_component";
    const ServiceResponse response = service.execute(request);
    EXPECT_FALSE(response.ok);
    EXPECT_FALSE(response.error.empty());
}

TEST(Service, QueuedRequestsAllCompleteAcrossThreads)
{
    CampaignService service({});
    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    std::vector<std::thread> threads;
    std::vector<ServiceResponse> responses(4);
    for (int i = 0; i < 4; ++i) {
        threads.emplace_back([&service, &responses, request, i] {
            ServiceRequest mine = request;
            mine.client = "client-" + std::to_string(i);
            responses[static_cast<std::size_t>(i)] =
                service.executeQueued(mine);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (const ServiceResponse &response : responses) {
        EXPECT_TRUE(response.ok) << response.error;
        EXPECT_EQ(response.runsTotal, 8u);
    }
    // One cold preparation, three warm adoptions (FIFO: the first
    // served request misses, every later one hits).
    const CampaignService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 3u);
}

TEST(Service, ZeroQuotaRejectsAdmission)
{
    CampaignService::Options options;
    options.perClientInFlight = 0;
    CampaignService service(options);
    ServiceRequest request;
    request.config = smokeConfig();
    const ServiceResponse response = service.executeQueued(request);
    EXPECT_FALSE(response.ok);
    EXPECT_NE(response.error.find("quota exceeded"),
              std::string::npos)
        << response.error;
}

TEST(Service, DrainRejectsNewRequests)
{
    CampaignService service({});
    service.drain();
    ServiceRequest request;
    request.config = smokeConfig();
    const ServiceResponse response = service.executeQueued(request);
    EXPECT_FALSE(response.ok);
    EXPECT_NE(response.error.find("draining"), std::string::npos);
}

TEST(Service, StatsJsonCarriesCacheAndQueueCounters)
{
    CampaignService::Options options;
    options.workers = 3;
    CampaignService service(options);
    const json::Value stats = service.statsJson();
    ASSERT_NE(stats.find("cache"), nullptr);
    ASSERT_NE(stats.find("queue"), nullptr);
    EXPECT_EQ(stats.get("cache").get("hits").asUint(), 0u);
    EXPECT_EQ(stats.get("cache").get("coalesced").asUint(), 0u);
    EXPECT_EQ(stats.get("cache").get("response_hits").asUint(), 0u);
    EXPECT_EQ(stats.get("queue").get("capacity").asUint(), 64u);
    EXPECT_EQ(stats.get("queue").get("workers").asUint(), 3u);
    EXPECT_EQ(stats.get("queue").get("running").asUint(), 0u);
}

// ---------------------------------------------------------------
// Protocol: retryable rejections and cache provenance
// ---------------------------------------------------------------

TEST(ServiceProtocol, RetryableAndCacheSourceRoundTrip)
{
    ServiceResponse rejected;
    rejected.ok = false;
    rejected.op = "campaign";
    rejected.error = "queue full";
    rejected.retryable = true;

    ServiceResponse decoded;
    std::string error;
    ASSERT_TRUE(decodeServiceResponse(
        encodeServiceResponse(rejected), decoded, error))
        << error;
    EXPECT_FALSE(decoded.ok);
    EXPECT_EQ(decoded.op, "campaign");
    EXPECT_EQ(decoded.error, "queue full");
    EXPECT_TRUE(decoded.retryable);

    ServiceResponse served;
    served.ok = true;
    served.op = "campaign";
    served.cacheKey = "0123456789abcdef";
    served.cacheHit = true;
    served.cacheSource = "response";
    ASSERT_TRUE(decodeServiceResponse(
        encodeServiceResponse(served), decoded, error))
        << error;
    EXPECT_TRUE(decoded.ok);
    EXPECT_FALSE(decoded.retryable);
    EXPECT_EQ(decoded.cacheSource, "response");
}

TEST(Service, RejectionsCarryOpAndRetryable)
{
    ServiceRequest request;
    request.config = smokeConfig();

    {
        CampaignService service({});
        service.drain();
        const ServiceResponse r = service.executeQueued(request);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.op, "campaign");
        EXPECT_TRUE(r.retryable);
        EXPECT_NE(r.error.find("draining"), std::string::npos);
    }
    {
        CampaignService::Options options;
        options.perClientInFlight = 0;
        CampaignService service(options);
        const ServiceResponse r = service.executeQueued(request);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.op, "campaign");
        EXPECT_TRUE(r.retryable);
        EXPECT_NE(r.error.find("quota exceeded"),
                  std::string::npos);
    }
    {
        CampaignService::Options options;
        options.queueCapacity = 0;
        CampaignService service(options);
        const ServiceResponse r = service.executeQueued(request);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.op, "campaign");
        EXPECT_TRUE(r.retryable);
        EXPECT_NE(r.error.find("queue full"), std::string::npos);
    }
    {
        // Hard errors are not retryable: resubmitting a bad config
        // can only fail the same way.
        CampaignService service({});
        ServiceRequest bad = request;
        bad.config.component = "no_such_component";
        const ServiceResponse r = service.execute(bad);
        EXPECT_FALSE(r.ok);
        EXPECT_FALSE(r.retryable);
    }
    {
        // `jobs` is untrusted wire input: past the bound it is a
        // config error, and no worker thread is started for it.
        CampaignService service({});
        ServiceRequest bad = request;
        bad.config.numInjections = 2;
        bad.config.jobs = 1025;
        const ServiceResponse r = service.execute(bad);
        EXPECT_FALSE(r.ok);
        EXPECT_FALSE(r.retryable);
        EXPECT_EQ(r.error.rfind("config: jobs:", 0), 0u) << r.error;
    }
}

// ---------------------------------------------------------------
// Concurrent execution and single-flight preparation
// ---------------------------------------------------------------

TEST(Service, ConcurrentWorkersShareOneSingleFlightPrepare)
{
    CampaignService::Options options;
    options.workers = 4;
    CampaignService service(options);
    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    std::vector<std::thread> threads;
    std::vector<ServiceResponse> responses(4);
    for (int i = 0; i < 4; ++i) {
        threads.emplace_back([&service, &responses, request, i] {
            ServiceRequest mine = request;
            mine.client = "client-" + std::to_string(i);
            responses[static_cast<std::size_t>(i)] =
                service.executeQueued(mine);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (const ServiceResponse &response : responses) {
        EXPECT_TRUE(response.ok) << response.error;
        EXPECT_EQ(response.runsTotal, 8u);
        EXPECT_EQ(response.telemetryRuns,
                  responses[0].telemetryRuns);
    }
    // Single-flight: however the four racing requests interleave,
    // exactly one prepares cold and the other three share it (by
    // joining the flight or by hitting the LRU afterwards).
    const CampaignService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(Service, ConcurrentDistinctKeysPrepareIndependently)
{
    CampaignService::Options options;
    options.workers = 4;
    CampaignService service(options);

    std::vector<std::thread> threads;
    std::vector<ServiceResponse> responses(3);
    for (int i = 0; i < 3; ++i) {
        threads.emplace_back([&service, &responses, i] {
            ServiceRequest mine;
            mine.client = "client-" + std::to_string(i);
            mine.config = smokeConfig();
            mine.config.numInjections = 8;
            mine.config.seed = 100 + static_cast<std::uint64_t>(i);
            responses[static_cast<std::size_t>(i)] =
                service.executeQueued(mine);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (const ServiceResponse &response : responses) {
        EXPECT_TRUE(response.ok) << response.error;
        EXPECT_FALSE(response.cacheHit);
    }
    const CampaignService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.coalesced, 0u);
    EXPECT_EQ(stats.entries, 3u);
}

TEST(Service, DrainUnderLoadCompletesAdmittedRequests)
{
    // Every request sleeps before preparing, so the first two still
    // hold both worker slots while the other two are admitted.
    // Without the delay a fast request can finish before the last one
    // is admitted, and four are never in flight at once.
    FailpointGuard guard;
    std::string error;
    ASSERT_TRUE(failpoint::configure("prep.alloc=delay:500", error))
        << error;

    CampaignService::Options options;
    options.workers = 2;
    CampaignService service(options);
    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    std::vector<std::thread> threads;
    std::vector<ServiceResponse> responses(4);
    for (int i = 0; i < 4; ++i) {
        threads.emplace_back([&service, &responses, request, i] {
            ServiceRequest mine = request;
            mine.client = "client-" + std::to_string(i);
            responses[static_cast<std::size_t>(i)] =
                service.executeQueued(mine);
        });
    }

    // Wait until all four are admitted, then drain mid-flight: every
    // admitted request must still complete successfully.  The wait is
    // bounded so a missed window fails the test instead of hanging.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (service.statsJson().get("queue").get("active").asUint() <
           4) {
        if (std::chrono::steady_clock::now() > deadline) {
            ADD_FAILURE() << "four requests were never in flight at once";
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    service.drain();

    for (std::thread &thread : threads)
        thread.join();
    for (const ServiceResponse &response : responses)
        EXPECT_TRUE(response.ok) << response.error;
}

// ---------------------------------------------------------------
// Restart-persistent response memo
// ---------------------------------------------------------------

std::string
freshCacheDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(ServiceDisk, RestartServesMemoizedResponseAndPreparesVariantsCold)
{
    CampaignService::Options options;
    options.cacheDir =
        freshCacheDir("dfi-service-restart-cache");

    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    ServiceResponse cold;
    {
        CampaignService first(options);
        cold = first.execute(request);
        ASSERT_TRUE(cold.ok) << cold.error;
        EXPECT_FALSE(cold.cacheHit);
        EXPECT_EQ(cold.cacheSource, "none");
        EXPECT_EQ(first.cacheStats().responseStores, 1u);
    }

    // "Restart": a brand-new service over the same directory.  An
    // exact repeat replays the memoized response without executing.
    CampaignService second(options);
    const ServiceResponse memo = second.execute(request);
    ASSERT_TRUE(memo.ok) << memo.error;
    EXPECT_TRUE(memo.cacheHit);
    EXPECT_EQ(memo.cacheSource, "response");
    EXPECT_EQ(memo.telemetryRuns, cold.telemetryRuns);
    EXPECT_EQ(memo.telemetrySummary, cold.telemetrySummary);
    EXPECT_EQ(second.cacheStats().responseHits, 1u);

    // A run-set variation (prune off) misses the response memo — its
    // artifact bytes differ — and, prepared state being memory-only,
    // prepares cold with outcome-equal counts.
    ServiceRequest noprune = request;
    noprune.config.prune = false;
    const ServiceResponse variant = second.execute(noprune);
    ASSERT_TRUE(variant.ok) << variant.error;
    EXPECT_FALSE(variant.cacheHit);
    EXPECT_EQ(variant.cacheSource, "none");
    EXPECT_EQ(variant.cacheKey, cold.cacheKey);
    EXPECT_EQ(variant.counts.counts, cold.counts.counts);
    EXPECT_EQ(second.cacheStats().misses, 1u);

    std::filesystem::remove_all(options.cacheDir);
}

TEST(ServiceDisk, CorruptSpillFilesFallBackToColdPrepare)
{
    CampaignService::Options options;
    options.cacheDir = freshCacheDir("dfi-service-corrupt-cache");

    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    ServiceResponse cold;
    {
        CampaignService first(options);
        cold = first.execute(request);
        ASSERT_TRUE(cold.ok) << cold.error;
    }

    // Truncate every memo file: strict decoding must turn them into
    // cold misses, never into wrong state.
    for (const auto &entry :
         std::filesystem::directory_iterator(options.cacheDir))
        std::filesystem::resize_file(
            entry.path(), std::filesystem::file_size(entry.path()) /
                              2);

    CampaignService second(options);
    const ServiceResponse fallback = second.execute(request);
    ASSERT_TRUE(fallback.ok) << fallback.error;
    EXPECT_FALSE(fallback.cacheHit);
    EXPECT_EQ(fallback.cacheSource, "none");
    EXPECT_EQ(second.cacheStats().responseHits, 0u);
    EXPECT_EQ(fallback.telemetryRuns, cold.telemetryRuns);

    std::filesystem::remove_all(options.cacheDir);
}

TEST(ServiceDisk, TimingResponsesAreNotMemoized)
{
    CampaignService::Options options;
    options.cacheDir = freshCacheDir("dfi-service-timing-cache");

    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;
    request.config.telemetryTiming = true;

    CampaignService service(options);
    ASSERT_TRUE(service.execute(request).ok);
    const ServiceResponse repeat = service.execute(request);
    ASSERT_TRUE(repeat.ok) << repeat.error;
    // Prepared state is shared (it carries no wall-clock), but the
    // response memo is skipped: timing fields are not reproducible.
    EXPECT_TRUE(repeat.cacheHit);
    EXPECT_EQ(repeat.cacheSource, "memory");
    const CampaignService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.responseStores, 0u);
    EXPECT_EQ(stats.responseHits, 0u);
    EXPECT_EQ(stats.diskErrors, 0u);

    std::filesystem::remove_all(options.cacheDir);
}

// ---------------------------------------------------------------
// Chaos: disk-tier degradation under injected I/O failures
// ---------------------------------------------------------------

TEST(ServiceChaos, DiskDegradesAfterConsecutiveIoFailures)
{
    FailpointGuard guard;
    CampaignService::Options options;
    options.cacheDir = freshCacheDir("dfi-service-chaos-cache");

    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;
    ServiceRequest other = request;
    other.config.seed = 8;

    std::string error;
    ASSERT_TRUE(failpoint::configure("cache.read=error;cache.write=error",
                                     error))
        << error;

    // Each execution makes two disk operations (memo lookup, then
    // memo store).  The first request fails both; the second fails
    // its lookup, the third consecutive failure, which trips the
    // limit: the disk tier is off for the process lifetime and the
    // second request's store is never attempted.
    CampaignService service(options);
    const ServiceResponse cold = service.execute(request);
    ASSERT_TRUE(cold.ok) << cold.error;
    CampaignService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.diskErrors, 2u);
    EXPECT_FALSE(stats.diskDisabled);

    ASSERT_TRUE(service.execute(other).ok);
    stats = service.cacheStats();
    EXPECT_EQ(stats.diskErrors, 3u);
    EXPECT_TRUE(stats.diskDisabled);
    EXPECT_EQ(stats.responseStores, 0u);

    // The memory tier keeps serving: an exact repeat is a warm LRU
    // hit with byte-identical artifacts, and the dead disk is not
    // probed again (the error count stays put).
    failpoint::reset();
    const ServiceResponse warm = service.execute(request);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.cacheSource, "memory");
    EXPECT_EQ(warm.telemetryRuns, cold.telemetryRuns);
    stats = service.cacheStats();
    EXPECT_EQ(stats.diskErrors, 3u);
    EXPECT_TRUE(stats.diskDisabled);
    EXPECT_EQ(stats.responseHits, 0u);

    std::filesystem::remove_all(options.cacheDir);
}

TEST(ServiceChaos, SuccessResetsTheFailureStreak)
{
    FailpointGuard guard;
    CampaignService::Options options;
    options.cacheDir = freshCacheDir("dfi-service-streak-cache");

    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    // Every memo lookup and every other memo store fails: three
    // failures in all, but the successful store between them resets
    // the streak, so it never reaches 3 — degradation is for
    // *persistent* failure, not for a flaky burst.
    std::string error;
    ASSERT_TRUE(failpoint::configure(
        "cache.read=error;cache.write=error@every:2", error));

    CampaignService service(options);
    ServiceRequest other = request;
    other.config.seed = 8;
    ASSERT_TRUE(service.execute(request).ok);
    ASSERT_TRUE(service.execute(other).ok);

    const CampaignService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.diskErrors, 3u);
    EXPECT_FALSE(stats.diskDisabled);

    std::filesystem::remove_all(options.cacheDir);
}

TEST(ServiceChaos, PrepAllocFailureIsRetryableAndRecovers)
{
    FailpointGuard guard;
    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    std::string error;
    ASSERT_TRUE(
        failpoint::configure("prep.alloc=error@nth:1", error));

    CampaignService service(CampaignService::Options{});
    const ServiceResponse failed = service.execute(request);
    EXPECT_FALSE(failed.ok);
    EXPECT_TRUE(failed.retryable);
    EXPECT_NE(failed.error.find("out of memory"),
              std::string::npos);

    // The failure did not wedge the single-flight machinery: the
    // retry prepares cold and succeeds.
    const ServiceResponse retried = service.execute(request);
    ASSERT_TRUE(retried.ok) << retried.error;
}

} // namespace
