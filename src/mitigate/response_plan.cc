#include "mitigate/response_plan.hh"

#include "sim/machine.hh"

namespace cchunter
{

const char*
responseLevelName(ResponseLevel level)
{
    switch (level) {
      case ResponseLevel::Observe:
        return "observe";
      case ResponseLevel::RateLimit:
        return "rate-limit";
      case ResponseLevel::TemporalPartition:
        return "temporal-partition";
      case ResponseLevel::Quarantine:
        return "quarantine";
    }
    return "unknown";
}

ResponseLevel
escalated(ResponseLevel level)
{
    return level == ResponseLevel::Quarantine
               ? ResponseLevel::Quarantine
               : static_cast<ResponseLevel>(
                     static_cast<std::uint8_t>(level) + 1);
}

ResponseLevel
deescalated(ResponseLevel level)
{
    return level == ResponseLevel::Observe
               ? ResponseLevel::Observe
               : static_cast<ResponseLevel>(
                     static_cast<std::uint8_t>(level) - 1);
}

bool
applyResponsePlan(Machine& machine, const ResponsePlan& plan,
                  std::array<ContextId, 2> contexts,
                  bool rate_limit_at_bus)
{
    Scheduler& sched = machine.scheduler();
    switch (plan.level) {
      case ResponseLevel::Observe:
        return false;
      case ResponseLevel::RateLimit:
        if (rate_limit_at_bus) {
            machine.mem().bus().setLockRateLimit(responseBusLockInterval);
            return true;
        }
        // Throttle the second context (the spy's seat): the receiver
        // losing quanta degrades decode without idling the trojan's
        // context, which benign co-runners may share.
        return sched.throttleContext(contexts[1], responseThrottlePeriod,
                                     responseThrottleActive);
      case ResponseLevel::TemporalPartition:
        return sched.partitionContexts(contexts[0], contexts[1]);
      case ResponseLevel::Quarantine: {
        const bool a = sched.quarantineContext(contexts[0]);
        const bool b = sched.quarantineContext(contexts[1]);
        return a || b;
      }
    }
    return false;
}

} // namespace cchunter
