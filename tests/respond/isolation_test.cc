/**
 * @file
 * Scheduler isolation hooks and process re-pinning: the actuator layer
 * the response ladder drives.  Every engagement is counted
 * (IsolationStats), re-engaging is a no-op, and a machine that never
 * engages isolation schedules bit-identically to one without the
 * hooks.
 */

#include <gtest/gtest.h>

#include <memory>

#include "channels/divider_channel.hh"
#include "mitigate/response_plan.hh"
#include "sim/machine.hh"

namespace cchunter
{
namespace
{

MachineParams
smallMachine()
{
    MachineParams p;
    p.scheduler.quantum = 2500000;
    return p;
}

/** Adds a divider trojan/spy pair on contexts 0/1; returns the spy. */
Process&
addDividerPair(Machine& machine)
{
    ChannelTiming timing;
    timing.start = 1000;
    timing.bandwidthBps = 10000.0;
    Rng rng(1);
    DividerTrojanParams tp;
    tp.timing = timing;
    tp.message = Message::random64(rng);
    machine.addProcess(std::make_unique<DividerTrojan>(tp), 0);
    DividerSpyParams sp;
    sp.timing = timing;
    return machine.addProcess(std::make_unique<DividerSpy>(sp), 1);
}

TEST(SchedulerIsolationTest, PartitionAlternatesTheTwoContexts)
{
    Machine machine(smallMachine());
    Scheduler& sched = machine.scheduler();
    EXPECT_FALSE(sched.isolationActive());

    ASSERT_TRUE(sched.partitionContexts(0, 1));
    EXPECT_TRUE(sched.isolationActive());
    // `a` owns even quanta, `b` odd ones — never co-scheduled.
    for (std::uint64_t q = 0; q < 6; ++q) {
        EXPECT_EQ(sched.contextSuppressed(0, q), q % 2 == 1) << q;
        EXPECT_EQ(sched.contextSuppressed(1, q), q % 2 == 0) << q;
        EXPECT_FALSE(sched.contextSuppressed(2, q)) << q;
    }

    // Re-engaging the same pair (either order) is a counted no-op.
    EXPECT_FALSE(sched.partitionContexts(1, 0));
    EXPECT_EQ(sched.isolation().partitionsEngaged, 1u);
}

TEST(SchedulerIsolationTest, ThrottleEnforcesTheDutyCycle)
{
    Machine machine(smallMachine());
    Scheduler& sched = machine.scheduler();
    ASSERT_TRUE(sched.throttleContext(1, 4, 1));
    for (std::uint64_t q = 0; q < 8; ++q)
        EXPECT_EQ(sched.contextSuppressed(1, q), q % 4 >= 1) << q;

    // Re-engaging updates the duty cycle without a new transition.
    EXPECT_FALSE(sched.throttleContext(1, 4, 3));
    EXPECT_EQ(sched.isolation().throttlesEngaged, 1u);
    for (std::uint64_t q = 0; q < 8; ++q)
        EXPECT_EQ(sched.contextSuppressed(1, q), q % 4 >= 3) << q;
}

TEST(SchedulerIsolationTest, QuarantineSuppressesEveryQuantum)
{
    Machine machine(smallMachine());
    Scheduler& sched = machine.scheduler();
    ASSERT_TRUE(sched.quarantineContext(0));
    EXPECT_FALSE(sched.quarantineContext(0));
    for (std::uint64_t q = 0; q < 4; ++q)
        EXPECT_TRUE(sched.contextSuppressed(0, q));
    EXPECT_EQ(sched.activeQuarantines(), 1u);
    EXPECT_EQ(sched.isolation().quarantinesEngaged, 1u);
}

TEST(SchedulerIsolationTest, QuarantineStopsAPinnedChannelPair)
{
    Machine machine(smallMachine());
    addDividerPair(machine);
    machine.runQuanta(2);
    const auto before = machine.divider(0).totalConflicts();
    EXPECT_GT(before, 0u);

    Scheduler& sched = machine.scheduler();
    ASSERT_TRUE(sched.quarantineContext(0));
    ASSERT_TRUE(sched.quarantineContext(1));
    machine.runQuanta(1); // boundary applies the suppression
    const auto at_switch = machine.divider(0).totalConflicts();
    machine.runQuanta(3);
    EXPECT_EQ(machine.divider(0).totalConflicts(), at_switch);
    EXPECT_GT(sched.isolation().suppressedQuanta, 0u);
}

TEST(SchedulerIsolationTest, RepinToAnotherCoreStopsDividerConflicts)
{
    Machine machine(smallMachine());
    Process& spy = addDividerPair(machine);
    machine.runQuanta(2);
    const auto before = machine.divider(0).totalConflicts();
    EXPECT_GT(before, 0u);

    // Unshare: the spy moves to the first context of core 2.
    spy.setPinnedContext(4);
    machine.runQuanta(1); // boundary applies the new pinning
    const auto at_switch = machine.divider(0).totalConflicts();
    machine.runQuanta(2);
    EXPECT_EQ(machine.divider(0).totalConflicts(), at_switch);
    EXPECT_EQ(machine.runningOn(4), &spy);
}

TEST(SchedulerIsolationTest, RepinToMissingContextFailsAtAssignment)
{
    Machine machine(smallMachine());
    Process& spy = addDividerPair(machine);
    // addProcess refuses such a pin; a later re-pin is caught when the
    // scheduler next assigns contexts instead of indexing past them.
    spy.setPinnedContext(
        static_cast<ContextId>(machine.numContexts() + 40));
    EXPECT_ANY_THROW(machine.runQuanta(1));
}

TEST(ResponsePlanTest, LevelNamesRoundTrip)
{
    EXPECT_STREQ(responseLevelName(ResponseLevel::Observe), "observe");
    EXPECT_STREQ(responseLevelName(ResponseLevel::RateLimit),
                 "rate-limit");
    EXPECT_STREQ(responseLevelName(ResponseLevel::TemporalPartition),
                 "temporal-partition");
    EXPECT_STREQ(responseLevelName(ResponseLevel::Quarantine),
                 "quarantine");
    EXPECT_EQ(escalated(ResponseLevel::Quarantine),
              ResponseLevel::Quarantine);
    EXPECT_EQ(deescalated(ResponseLevel::Observe),
              ResponseLevel::Observe);
    EXPECT_EQ(escalated(ResponseLevel::Observe),
              ResponseLevel::RateLimit);
    EXPECT_EQ(deescalated(ResponseLevel::Quarantine),
              ResponseLevel::TemporalPartition);
    // One step up then down returns to the rung below the top.
    for (const ResponseLevel level :
         {ResponseLevel::Observe, ResponseLevel::RateLimit,
          ResponseLevel::TemporalPartition})
        EXPECT_EQ(deescalated(escalated(level)), level);
    EXPECT_TRUE(ResponsePlan{ResponseLevel::RateLimit}.active());
    EXPECT_FALSE(ResponsePlan{}.active());
}

TEST(ResponsePlanTest, BusRateLimitPlanDrivesTheBus)
{
    Machine machine(smallMachine());
    const ResponsePlan plan{ResponseLevel::RateLimit};
    ASSERT_TRUE(applyResponsePlan(machine, plan, {0, 2}, true));
    EXPECT_EQ(machine.mem().bus().lockRateLimit(),
              responseBusLockInterval);
    // The bus actuator leaves the scheduler alone.
    EXPECT_FALSE(machine.scheduler().isolationActive());
}

TEST(ResponsePlanTest, ContextRateLimitPlanThrottlesTheSpySeat)
{
    Machine machine(smallMachine());
    const ResponsePlan plan{ResponseLevel::RateLimit};
    ASSERT_TRUE(applyResponsePlan(machine, plan, {0, 1}, false));
    EXPECT_EQ(machine.mem().bus().lockRateLimit(), 0u);
    EXPECT_EQ(machine.scheduler().isolation().throttlesEngaged, 1u);
    for (std::uint64_t q = 0; q < 8; ++q) {
        EXPECT_FALSE(machine.scheduler().contextSuppressed(0, q)) << q;
        EXPECT_EQ(machine.scheduler().contextSuppressed(1, q),
                  q % responseThrottlePeriod >= responseThrottleActive)
            << q;
    }
}

TEST(ResponsePlanTest, QuarantinePlanEngagesBothContexts)
{
    Machine machine(smallMachine());
    const ResponsePlan plan{ResponseLevel::Quarantine};
    const std::array<ContextId, 2> pair = {0, 1};
    ASSERT_TRUE(applyResponsePlan(machine, plan, pair, false));
    EXPECT_EQ(machine.scheduler().activeQuarantines(), 2u);
    // Re-applying the same rung takes no further action.
    EXPECT_FALSE(applyResponsePlan(machine, plan, pair, false));
    EXPECT_EQ(machine.scheduler().isolation().quarantinesEngaged, 2u);
    EXPECT_FALSE(
        applyResponsePlan(machine, ResponsePlan{}, pair, false));
}

} // namespace
} // namespace cchunter
