/**
 * @file
 * The response ladder: a ResponsePlan names one rung of the
 * observe → rate-limit → temporal-partition → quarantine escalation
 * ladder, and applyResponsePlan translates it into scheduler/bus
 * actions on a machine.  This is the library's only response path.
 *
 * The ladder trades residual channel bandwidth against the performance
 * tax on benign co-runners:
 *
 *  - **Observe** — no action; full bandwidth, zero tax.
 *  - **RateLimit** — throttle the scarce operation: bus-lock rate
 *    limiting for the memory bus, a duty-cycle throttle of the spy's
 *    context for everything else.  Cuts bandwidth, modest tax.
 *  - **TemporalPartition** — the implicated context pair alternates
 *    quanta and is never co-scheduled (the RISC-V temporal-
 *    partitioning approach).  Severs concurrent sharing; each party
 *    keeps half its cycles.
 *  - **Quarantine** — both contexts of the pair are forced idle; the
 *    channel is dead and so is the pair's work.
 *
 * These types live in mitigate/ (not respond/) so the scenario layer
 * can expose a response axis without depending on the orchestrator.
 */

#ifndef CCHUNTER_MITIGATE_RESPONSE_PLAN_HH
#define CCHUNTER_MITIGATE_RESPONSE_PLAN_HH

#include <array>
#include <cstdint>

#include "util/types.hh"

namespace cchunter
{

class Machine;

/** One rung of the escalation ladder, weakest response first. */
enum class ResponseLevel : std::uint8_t
{
    Observe = 0,
    RateLimit = 1,
    TemporalPartition = 2,
    Quarantine = 3,
};

/** Stable lower-case name (config keys, action log, bench tables). */
const char* responseLevelName(ResponseLevel level);

/** The rung one step up/down, saturating at the ladder ends. */
ResponseLevel escalated(ResponseLevel level);
ResponseLevel deescalated(ResponseLevel level);

/** RateLimit on the memory bus: minimum cycles between bus locks (one
 *  conflict event per default observation window). */
constexpr Cycles responseBusLockInterval = 100000;

/** RateLimit elsewhere: duty-cycle throttle of the spy context —
 *  `responseThrottleActive` quanta running out of every
 *  `responseThrottlePeriod`. */
constexpr std::uint32_t responseThrottlePeriod = 4;
constexpr std::uint32_t responseThrottleActive = 1;

/** The rung a response engages. */
struct ResponsePlan
{
    ResponseLevel level = ResponseLevel::Observe;

    bool active() const { return level != ResponseLevel::Observe; }
};

/**
 * Engage `plan` on `machine` for a channel between the two hardware
 * contexts `contexts` (a unit's registry-declared channelContexts, or
 * a benign pair's seats).  `rate_limit_at_bus` selects the RateLimit
 * actuator: bus-lock rate limiting (the descriptor's rateLimitAtBus)
 * or a duty-cycle throttle of `contexts[1]`.  Returns true if any
 * action was taken (Observe plans take none).
 */
bool applyResponsePlan(Machine& machine, const ResponsePlan& plan,
                       std::array<ContextId, 2> contexts,
                       bool rate_limit_at_bus);

} // namespace cchunter

#endif // CCHUNTER_MITIGATE_RESPONSE_PLAN_HH
