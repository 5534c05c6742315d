/**
 * @file
 * Differential test of the typed event store against the kernel it
 * replaced.
 *
 * ReferenceQueue is the former EventQueue: one heap of std::function
 * callbacks, with a context step as an ordinary callback that carries
 * the context's generation.  Re-scheduling or clearing a context bumps
 * the generation, and a step whose generation is stale is dropped
 * unrun, as Machine did before steps got their own slots.  Seeded
 * random mixes of context steps, replacements, clears and callbacks at
 * colliding ticks and all three priorities must run in the same order,
 * at the same simulated time, on both queues.
 */

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hh"
#include "util/rng.hh"

namespace cchunter
{
namespace
{

class ReferenceQueue
{
  public:
    using Callback = std::function<void()>;
    using ContextHandler = std::function<void(ContextId)>;

    void
    setContextHandler(unsigned numContexts, ContextHandler handler)
    {
        generation_.assign(numContexts, 0);
        handler_ = std::move(handler);
    }

    void
    schedule(Tick when, Callback cb,
             EventPriority prio = EventPriority::Default)
    {
        push(when, prio, std::move(cb));
    }

    void
    scheduleContext(ContextId ctx, Tick when)
    {
        const std::uint64_t gen = ++generation_[ctx];
        push(when, EventPriority::Default, [this, ctx] { handler_(ctx); },
             ctx, gen);
    }

    void clearContext(ContextId ctx) { ++generation_[ctx]; }

    Tick now() const { return now_; }

    std::uint64_t
    runUntil(Tick until)
    {
        std::uint64_t executed = 0;
        while (dropStale() && queue_.top().when < until) {
            runTop();
            ++executed;
        }
        if (now_ < until)
            now_ = until;
        return executed;
    }

    bool
    step()
    {
        if (!dropStale())
            return false;
        runTop();
        return true;
    }

  private:
    static constexpr int noContext = -1;

    struct Entry
    {
        Tick when;
        EventPriority prio;
        std::uint64_t seq;
        Callback cb;
        int ctx;
        std::uint64_t gen;
    };

    struct Later
    {
        bool
        operator()(const Entry& a, const Entry& b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };

    void
    push(Tick when, EventPriority prio, Callback cb, int ctx = noContext,
         std::uint64_t gen = 0)
    {
        if (when < now_)
            throw std::logic_error("ReferenceQueue: past");
        queue_.push(Entry{when, prio, nextSeq_++, std::move(cb), ctx, gen});
    }

    /** Pop superseded context steps off the top. @return true if a
     *  live event is pending. */
    bool
    dropStale()
    {
        while (!queue_.empty()) {
            const Entry& top = queue_.top();
            if (top.ctx == noContext ||
                generation_[static_cast<std::size_t>(top.ctx)] == top.gen)
                return true;
            queue_.pop();
        }
        return false;
    }

    void
    runTop()
    {
        Entry e = queue_.top();
        queue_.pop();
        now_ = e.when;
        e.cb();
    }

    std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
    std::vector<std::uint64_t> generation_;
    ContextHandler handler_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

constexpr unsigned numContexts = 8;

/** One executed event: what ran, and the simulated time it saw. */
struct Fired
{
    int label; //!< callback label, or -(ctx + 1) for a context step
    Tick now;

    bool
    operator==(const Fired& o) const
    {
        return label == o.label && now == o.now;
    }
};

/** A driver call and the queue's answer to it. */
struct Call
{
    std::uint64_t result; //!< step(): 0/1; runUntil(): events executed
    Tick now;

    bool
    operator==(const Call& o) const
    {
        return result == o.result && now == o.now;
    }
};

struct Trace
{
    std::vector<Fired> fired;
    std::vector<Call> calls;
};

/**
 * Drive `Queue` with a seeded random workload.  Every event (and the
 * initial set-up) draws a few operations: schedule a context step
 * (often replacing a pending one), clear a context, or schedule a
 * callback at one of three priorities.  Offsets are small, so ticks
 * collide constantly.  The same seed yields the same operations on
 * both queues as long as they run events in the same order.
 */
template <typename Queue>
Trace
drive(std::uint64_t seed, int budget)
{
    Queue q;
    Rng rng(seed);
    Trace out;
    int nextLabel = 0;

    std::function<void()> operate = [&] {
        const auto ops = rng.nextBelow(4);
        for (std::uint64_t i = 0; i < ops && budget > 0; ++i, --budget) {
            const Tick when = q.now() + rng.nextBelow(6);
            const auto ctx =
                static_cast<ContextId>(rng.nextBelow(numContexts));
            switch (rng.nextBelow(5)) {
              case 0:
              case 1:
                q.scheduleContext(ctx, when);
                break;
              case 2:
                q.clearContext(ctx);
                break;
              default: {
                const int label = nextLabel++;
                const auto prio =
                    static_cast<EventPriority>(rng.nextBelow(3));
                q.schedule(when, [&, label] {
                    out.fired.push_back({label, q.now()});
                    operate();
                }, prio);
              }
            }
        }
    };
    q.setContextHandler(numContexts, [&](ContextId ctx) {
        out.fired.push_back({-(int{ctx} + 1), q.now()});
        // A running context usually reschedules itself, as Machine's
        // steps do, then draws further operations.
        if (rng.nextBool(0.8) && budget > 0) {
            --budget;
            q.scheduleContext(ctx, q.now() + 1 + rng.nextBelow(5));
        }
        operate();
    });

    while (budget > 0) {
        operate();
        for (int k = 0; k < 4; ++k) {
            if (rng.nextBool()) {
                out.calls.push_back({q.step() ? 1u : 0u, q.now()});
            } else {
                const Tick until = q.now() + rng.nextBelow(8);
                out.calls.push_back({q.runUntil(until), q.now()});
            }
        }
    }
    out.calls.push_back({q.runUntil(maxTick), q.now()});
    return out;
}

TEST(EventQueueOracleTest, RandomMixRunsInReferenceOrder)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const Trace typed = drive<EventQueue>(seed, 3000);
        const Trace reference = drive<ReferenceQueue>(seed, 3000);
        ASSERT_GT(typed.fired.size(), 1000u) << "seed " << seed;
        ASSERT_EQ(typed.fired.size(), reference.fired.size())
            << "seed " << seed;
        for (std::size_t i = 0; i < typed.fired.size(); ++i) {
            ASSERT_EQ(typed.fired[i], reference.fired[i])
                << "seed " << seed << " event " << i << ": label "
                << typed.fired[i].label << " vs "
                << reference.fired[i].label;
        }
        ASSERT_EQ(typed.calls.size(), reference.calls.size());
        for (std::size_t i = 0; i < typed.calls.size(); ++i)
            ASSERT_EQ(typed.calls[i], reference.calls[i])
                << "seed " << seed << " call " << i;
    }
}

TEST(EventQueueOracleTest, ContextStepIntoThePastPanics)
{
    EventQueue eq;
    eq.setContextHandler(2, [](ContextId) {});
    eq.scheduleContext(0, 50);
    eq.runUntil(100);
    EXPECT_ANY_THROW(eq.scheduleContext(1, 10));
    EXPECT_ANY_THROW(eq.scheduleContext(2, 200)); // no such slot
}

TEST(EventQueueOracleTest, RunUntilIsExclusiveAcrossEventKinds)
{
    EventQueue eq;
    std::vector<int> order;
    eq.setContextHandler(2, [&](ContextId ctx) { order.push_back(ctx); });
    eq.scheduleContext(0, 10);
    eq.schedule(10, [&] { order.push_back(7); }, EventPriority::Late);
    eq.schedule(10, [&] { order.push_back(9); },
                EventPriority::Scheduler);
    eq.scheduleContext(1, 20);
    eq.schedule(20, [&] { order.push_back(8); });

    EXPECT_EQ(eq.runUntil(10), 0u);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.runUntil(20), 3u);
    EXPECT_EQ(order, (std::vector<int>{9, 0, 7}));
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.size(), 2u);
    EXPECT_EQ(eq.runUntil(21), 2u);
    EXPECT_EQ(order, (std::vector<int>{9, 0, 7, 1, 8}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueOracleTest, ReplacedAndClearedStepsNeverRun)
{
    EventQueue eq;
    std::vector<Tick> ran;
    eq.setContextHandler(2, [&](ContextId) { ran.push_back(eq.now()); });
    eq.scheduleContext(0, 10);
    eq.scheduleContext(0, 30); // replaces the step at 10
    eq.scheduleContext(1, 5);
    eq.clearContext(1);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(ran, (std::vector<Tick>{30}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_FALSE(eq.step());
    EXPECT_TRUE(eq.empty());
}

} // namespace
} // namespace cchunter
