/**
 * @file
 * The one definition of CampaignConfig's wire fields, and the one
 * campaign flag block of the command-line tools.
 *
 * A campaign config crosses process boundaries three ways: the
 * telemetry config echo, the cache key, and the service protocol.
 * forEachConfigField() lists every field those carry exactly once, in
 * echo and wire order, tagged with its role; the echo, cacheKey() and
 * the service codec are typed visitors over that list, so a new field
 * is one line here instead of an edit in every encoder and decoder.
 * validate() keeps its hand-written cross-field rules.
 */

#ifndef DFI_INJECT_CONFIG_FIELDS_HH
#define DFI_INJECT_CONFIG_FIELDS_HH

#include <string>
#include <type_traits>

#include "common/json.hh"
#include "inject/campaign.hh"
#include "inject/mask_gen.hh"
#include "storage/fault.hh"

namespace dfi::cli
{
class FlagSet;
} // namespace dfi::cli

namespace dfi::inject
{

/** What a config field is part of. */
enum class ConfigFieldRole
{
    /**
     * Can change a campaign's outcomes: echoed in the telemetry and
     * hashed into cacheKey() through that echo.
     */
    Outcome,

    /**
     * Shapes the prepared CheckpointStore but never the outcomes:
     * hashed into cacheKey() after the echo, never echoed.
     */
    Shape,

    /**
     * Execution strategy: carried on the wire only.  It changes
     * neither outcomes nor prepared state, so artifacts stay
     * byte-comparable across strategies.
     */
    Execution,
};

/**
 * Call `visit(key, member, role)` for each wire field of `cfg` (const
 * or mutable), in echo and wire order.  Telemetry paths, shard,
 * resume and configTweak are process-local and deliberately absent.
 */
template <class Config, class Visit>
void
forEachConfigField(Config &cfg, Visit &&visit)
{
    static_assert(std::is_same_v<std::remove_const_t<Config>, CampaignConfig>);
    using Role = ConfigFieldRole;
    visit("component", cfg.component, Role::Outcome);
    visit("benchmark", cfg.benchmark, Role::Outcome);
    visit("scale", cfg.scale, Role::Outcome);
    visit("core", cfg.coreName, Role::Outcome);
    visit("injections", cfg.numInjections, Role::Outcome);
    visit("confidence", cfg.confidence, Role::Outcome);
    visit("margin", cfg.margin, Role::Outcome);
    // Exhaustive enumeration plans a different run set than sampling
    // (the prune strategy knob, by contrast, never changes outcomes).
    visit("exhaustive", cfg.exhaustive, Role::Outcome);
    visit("fault_type", cfg.faultType, Role::Outcome);
    visit("population", cfg.population, Role::Outcome);
    visit("intermittent_min", cfg.intermittentMin, Role::Outcome);
    visit("intermittent_max", cfg.intermittentMax, Role::Outcome);
    visit("cache_scale", cfg.cacheScale, Role::Outcome);
    visit("timeout_factor", cfg.timeoutFactor, Role::Outcome);
    visit("early_stop_invalid_entry", cfg.earlyStopInvalidEntry,
          Role::Outcome);
    visit("early_stop_overwrite", cfg.earlyStopOverwrite, Role::Outcome);
    visit("seed", cfg.seed, Role::Outcome);
    visit("prune", cfg.prune, Role::Execution);
    visit("jobs", cfg.jobs, Role::Execution);
    visit("telemetry_timing", cfg.telemetryTiming, Role::Execution);
    visit("use_checkpoints", cfg.useCheckpoints, Role::Shape);
    visit("checkpoints", cfg.checkpointCount, Role::Shape);
    visit("checkpoint_budget_mb", cfg.checkpointMemBudgetMB, Role::Shape);
}

/** JSON form of one field value (shared by the echo and the wire). */
template <class T>
json::Value
configFieldJson(const T &value)
{
    if constexpr (std::is_same_v<T, std::string>)
        return json::Value::string(value);
    else if constexpr (std::is_same_v<T, bool>)
        return json::Value::boolean(value);
    else if constexpr (std::is_same_v<T, double>)
        return json::Value::number(value);
    else if constexpr (std::is_same_v<T, dfi::FaultType>)
        return json::Value::string(faultTypeName(value));
    else if constexpr (std::is_same_v<T, Population>)
        return json::Value::string(populationName(value));
    else
        return json::Value::unsignedInt(value);
}

/**
 * Register the campaign flags shared by dfi-campaign and the
 * dfi-serve client, writing straight into `cfg`.  Tool-specific
 * flags, `--jobs` among them (the tools' defaults differ), are
 * registered by the tools after this block.
 */
void addCampaignFlags(cli::FlagSet &flags, CampaignConfig &cfg);

} // namespace dfi::inject

#endif // DFI_INJECT_CONFIG_FIELDS_HH
