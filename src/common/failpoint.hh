/**
 * @file
 * Deterministic named failpoints: the repo's own methodology turned
 * inward.
 *
 * The campaign engine injects faults into a *simulated* machine; the
 * service stack around it (disk cache, telemetry writers, socket
 * protocol) grew error paths that until now were only exercised by
 * hand-crafted fixtures.  A failpoint is a named site in that stack
 * (`cache.rename`, `sock.read`, `prep.alloc`, ...) which, when armed
 * by a spec, deterministically injects an I/O or resource fault so
 * chaos runs can *prove* the error paths work — and keep proving it
 * in CI, reproducibly, because every trigger is a pure function of
 * the spec and the site's evaluation count.
 *
 * Spec grammar (one spec arms any number of sites):
 *
 *   spec    := point (';' point)*
 *   point   := site '=' action ['@' trigger]
 *   action  := 'error' | 'eintr' | 'short' | 'abort' | 'delay:' MS
 *   trigger := 'always' | 'once' | 'nth:' N | 'every:' N
 *            | 'prob:' P [':' SEED]
 *
 * e.g. `DFI_FAILPOINTS='cache.write=error@every:2;sock.read=eintr'`.
 *
 * Actions: `error` makes the operation fail (EIO-style), `eintr`
 * makes one syscall fail with EINTR (the site's retry loop must
 * recover), `short` truncates a transfer to one byte, `delay:MS`
 * sleeps inside check() and then proceeds (sites need no handling),
 * `abort` calls std::abort() (crash-recovery drills).
 *
 * Triggers are per-site and deterministic: `once` fires on the first
 * evaluation only, `nth:N` on the Nth only, `every:N` on every Nth,
 * `always` on all, and `prob:P[:SEED]` draws from a common/rng
 * stream seeded by (SEED xor fnv1a(site)) so the same spec replays
 * the same hit sequence — asserted by tests/common/test_failpoint.cc.
 *
 * Zero-cost when inactive: check() is one relaxed atomic load until
 * a spec is armed; sites may therefore sit on hot paths.
 *
 * Thread-safety: configure()/reset() must not race check(); arm once
 * at process start (tools do it right after flag parsing).  check()
 * itself may be called from any thread; counters are kept under a
 * registry mutex.
 */

#ifndef DFI_COMMON_FAILPOINT_HH
#define DFI_COMMON_FAILPOINT_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace dfi::json
{
class Value;
}

namespace dfi::failpoint
{

/** What a fired failpoint tells its site to emulate. */
struct Action
{
    enum class Kind : std::uint8_t
    {
        None,  //!< proceed normally
        Error, //!< fail the operation outright (EIO-style)
        Eintr, //!< fail one syscall with EINTR; the site retries
        Short, //!< transfer at most one byte
        Delay, //!< handled inside check(): sleep, then proceed
        Abort, //!< handled inside check(): std::abort()
    };

    Kind kind = Kind::None;
    std::uint64_t delayMs = 0;

    explicit operator bool() const { return kind != Kind::None; }
};

/**
 * Parse `spec` and arm exactly the sites it names (replacing any
 * previous configuration and resetting all counters).  An empty spec
 * disarms everything.  False + error on a malformed spec, leaving
 * the previous configuration in place.
 */
bool configure(const std::string &spec, std::string &error);

/** Disarm every site and clear all counters. */
void reset();

/** True when any site is armed. */
bool armed();

/** Evaluations of `site` since it was armed (fired or not). */
std::uint64_t evalCount(std::string_view site);

/** Times `site` actually fired its action. */
std::uint64_t fireCount(std::string_view site);

/**
 * Hit counters for every armed site as
 * `{site: {evals, fires, action}}` — surfaced by
 * `dfi-serve --stats` so chaos runs can assert coverage.
 */
json::Value statsJson();

namespace detail
{

extern std::atomic<bool> g_armed;

/** Slow path: trigger evaluation, counters, delay/abort handling. */
Action evaluate(std::string_view site);

} // namespace detail

/**
 * Evaluate the named site.  Returns the action the site must emulate
 * (None when unarmed or the trigger did not fire).  Delay and Abort
 * are performed in here so every site gets them for free.
 */
inline Action
check(std::string_view site)
{
    if (!detail::g_armed.load(std::memory_order_relaxed))
        return {};
    return detail::evaluate(site);
}

} // namespace dfi::failpoint

#endif // DFI_COMMON_FAILPOINT_HH
