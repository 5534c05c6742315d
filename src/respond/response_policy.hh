/**
 * @file
 * The response policy: how incidents map onto the escalation ladder.
 *
 * A policy is deliberately dumb and deterministic — counters and
 * thresholds, no wall-clock, no randomness — because the fleet's
 * byte-identity contract extends to the response action log: the same
 * incident stream must produce the same actions on any shard/thread
 * layout and across crash/resume.
 */

#ifndef CCHUNTER_RESPOND_RESPONSE_POLICY_HH
#define CCHUNTER_RESPOND_RESPONSE_POLICY_HH

#include <cstdint>
#include <vector>

#include "mitigate/response_plan.hh"

namespace cchunter
{

enum class MonitorTarget : std::uint8_t;

/** Per-unit escalation tuning. */
struct UnitResponsePolicy
{
    /** Ladder cap: escalation never climbs past this level (e.g. a
     *  unit whose quarantine tax is unacceptable stops at
     *  temporal-partition). */
    ResponseLevel maxLevel = ResponseLevel::Quarantine;

    /** Incidents observed at the current level before climbing one
     *  rung (the escalation counter of the hysteresis pair). */
    std::uint64_t escalateAfterIncidents = 2;
};

/** Fleet-wide response policy. */
struct ResponsePolicy
{
    /** Applied when no per-unit override matches. */
    UnitResponsePolicy defaults;

    /** Per-unit overrides (checked in order; registry descriptors
     *  provide the id universe). */
    std::vector<std::pair<MonitorTarget, UnitResponsePolicy>> perUnit;

    /** A Critical-severity incident jumps straight to
     *  temporal-partition instead of waiting out the counter. */
    bool criticalFastPath = true;

    /** Cool-down TTL: epochs without a new incident on a pair before
     *  it de-escalates one rung (the de-escalation half of the
     *  hysteresis; each further TTL interval drops one more rung). */
    std::uint64_t deescalateAfterQuietEpochs = 2;

    /** Action rate limits, mirroring IncidentStore suppression: a
     *  capped action is counted and does NOT change state.  0 disables
     *  the respective cap. */
    std::uint64_t maxActionsPerTenant = 8;
    std::uint64_t maxTotalActions = 64;

    /** The effective per-unit policy. */
    const UnitResponsePolicy& forUnit(MonitorTarget unit) const;

    /** The plan that applies `level`. */
    ResponsePlan planFor(ResponseLevel level) const
    {
        return ResponsePlan{level};
    }
};

} // namespace cchunter

#endif // CCHUNTER_RESPOND_RESPONSE_POLICY_HH
