/**
 * @file
 * Correctness-gate digests.
 *
 * A telemetry artifact is canonicalised by the volatile-key rule that
 * `dfi-diff --exact` applies (inject/telemetry.cc): every member whose
 * key names a host- or strategy-dependent measurement is dropped at
 * any nesting depth, and what is left is re-serialised.  Two artifacts
 * that `dfi-diff --exact` calls equal therefore hash equal, and any
 * change to a simulated outcome changes the digest.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <string>
#include <string_view>

#include "common/json.hh"
#include "common/stats.hh"

namespace perfbench
{

/** The keys `dfi-diff --exact` ignores (inject/telemetry.cc). */
bool isVolatileKey(std::string_view key);

/** A copy of `value` with every volatile member removed. */
dfi::json::Value stripVolatile(const dfi::json::Value &value);

/**
 * FNV-1a digest (16 hex digits) of a telemetry artifact: a summary
 * JSON document or a runs JSONL stream, one canonical line at a time.
 * Returns the empty string when a line does not parse.
 */
std::string telemetryDigest(std::string_view artifact);

/** FNV-1a digest of every counter (name and value) of a StatSet. */
std::string statSetDigest(const dfi::StatSet &stats);

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
