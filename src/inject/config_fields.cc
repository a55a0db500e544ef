#include "inject/config_fields.hh"

#include "common/cli.hh"

namespace dfi::inject
{

void
addCampaignFlags(cli::FlagSet &flags, CampaignConfig &cfg)
{
    flags.section("campaign selection");
    flags.text("--core", "NAME", "marss-x86 | gem5-x86 | gem5-arm",
               &cfg.coreName);
    flags.text("--benchmark", "NAME",
               "one of the ten workloads (or 'micro')",
               &cfg.benchmark);
    flags.text("--component", "NAME",
               "injection target (see dfi-campaign\n--list)",
               &cfg.component);
    flags.uint32("--scale", "N", "workload input scale (default 1)",
                 &cfg.scale);

    flags.section("fault selection");
    flags.uint64("--injections", "N",
                 "number of runs (default: derive from\n"
                 "--confidence/--margin)",
                 &cfg.numInjections);
    flags.number("--confidence", "P",
                 "sampling confidence (default 0.99)",
                 &cfg.confidence);
    flags.number("--margin", "E",
                 "sampling error margin (default 0.03)", &cfg.margin);
    flags.custom("--fault-type", "T",
                 "transient | intermittent | permanent",
                 [&cfg](const std::string &text, std::string &error) {
                     if (faultTypeFromName(text, cfg.faultType))
                         return true;
                     error = "expected transient | intermittent | "
                             "permanent";
                     return false;
                 });
    flags.custom("--population", "P",
                 "single | double-adjacent |\n"
                 "double-random | multi-structure",
                 [&cfg](const std::string &text, std::string &error) {
                     if (populationFromName(text, cfg.population))
                         return true;
                     error = "expected single | double-adjacent | "
                             "double-random | multi-structure";
                     return false;
                 });
    flags.uint64("--seed", "N", "campaign seed", &cfg.seed);
    flags.flag("--exhaustive",
               "enumerate every bit x cycle site of the\n"
               "component instead of sampling (single-bit\n"
               "transients only; small structures)",
               &cfg.exhaustive);

    flags.section("execution");
    flags.flag("--no-prune",
               "disable planning-time classification and\n"
               "fault-equivalence pruning; simulate every\n"
               "run (the classification is identical\n"
               "either way)",
               [&cfg] { cfg.prune = false; });
    flags.number("--timeout-factor", "F",
                 "run bound vs golden cycles (default 3)",
                 &cfg.timeoutFactor);
    flags.number("--cache-scale", "F",
                 "cache capacity scale (default 0.0625)",
                 &cfg.cacheScale);
    flags.flag("--no-early-stop",
               "disable both early-stop optimizations", [&cfg] {
                   cfg.earlyStopInvalidEntry = false;
                   cfg.earlyStopOverwrite = false;
               });
    flags.flag("--no-checkpoints", "always start runs from reset",
               [&cfg] { cfg.useCheckpoints = false; });
    flags.uint32("--checkpoints", "N",
                 "target live checkpoint count\n(default 6)",
                 &cfg.checkpointCount);
    flags.uint64("--checkpoint-budget", "MB",
                 "checkpoint memory budget in MiB\n"
                 "(default 256; 0 = unlimited)",
                 &cfg.checkpointMemBudgetMB);
    flags.flag("--telemetry-timing",
               "record real wall-clock micros and the\n"
               "job count in the telemetry (marks the\n"
               "volatile fields; off by default)",
               &cfg.telemetryTiming);
}

} // namespace dfi::inject
