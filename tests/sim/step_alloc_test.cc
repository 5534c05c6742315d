/**
 * @file
 * The simulation kernel's step loop allocates nothing.
 *
 * Context steps live in fixed per-context slots, so scheduling and
 * running them must not touch the heap.  Part of the test_alloc_count
 * binary, whose global operator new counts every allocation.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "alloc_counter.hh"
#include "sim/event_queue.hh"
#include "sim/machine.hh"

namespace cchunter
{
namespace
{

/** Pure ALU work, forever. */
class ComputeLoop : public Workload
{
  public:
    explicit ComputeLoop(Cycles cycles) : cycles_(cycles) {}

    Action
    nextAction(const ExecView&) override
    {
        return Action::compute(cycles_);
    }

    std::string name() const override { return "compute-loop"; }

  private:
    Cycles cycles_;
};

TEST(StepAllocTest, ContextStepLoopAllocatesNothing)
{
    constexpr unsigned contexts = 8;
    EventQueue eq;
    std::uint64_t steps = 0;
    eq.setContextHandler(contexts, [&](ContextId ctx) {
        ++steps;
        eq.scheduleContext(ctx, eq.now() + 3 + ctx);
    });
    for (unsigned c = 0; c < contexts; ++c)
        eq.scheduleContext(static_cast<ContextId>(c), c);
    eq.schedule(1000, [] {}, EventPriority::Scheduler);
    for (int i = 0; i < 1000; ++i)
        eq.step();

    const std::uint64_t before = allocationCount();
    for (int i = 0; i < 20000; ++i) {
        // Replace a pending step from outside the loop too.
        if (i % 7 == 0)
            eq.scheduleContext(static_cast<ContextId>(i % contexts),
                               eq.now() + 2);
        ASSERT_TRUE(eq.step());
    }
    EXPECT_EQ(allocationCount(), before)
        << "the context step loop allocated";
    EXPECT_EQ(steps, 21000u - 1); // every event but the one callback
}

TEST(StepAllocTest, MachineQuantumAllocatesNothingBetweenBoundaries)
{
    MachineParams params;
    params.scheduler.quantum = 200000;
    Machine machine(params);
    for (unsigned c = 0; c < machine.numContexts(); ++c)
        machine.addProcess(std::make_unique<ComputeLoop>(40 + 3 * c),
                           static_cast<ContextId>(c));
    machine.runQuanta(1); // warm-up, including the first boundary

    // The boundary event itself is excluded: Scheduler::assign builds
    // its per-quantum vectors there.
    const Scheduler& sched = machine.scheduler();
    EventQueue& eq = machine.eventQueue();
    const std::uint64_t boundary = sched.quantaElapsed() + 1;
    std::uint64_t allocations = 0;
    std::uint64_t steps = 0;
    while (sched.quantaElapsed() < boundary) {
        const std::uint64_t before = allocationCount();
        ASSERT_TRUE(eq.step());
        if (sched.quantaElapsed() < boundary) {
            allocations += allocationCount() - before;
            ++steps;
        }
    }
    EXPECT_EQ(allocations, 0u) << "over " << steps << " steps";
    EXPECT_GT(steps, 10000u);
}

} // namespace
} // namespace cchunter
