#include <gtest/gtest.h>

#include <vector>

#include "mem/memory_bus.hh"

namespace cchunter
{
namespace
{

TEST(MemoryBusTest, UncontendedTransferTakesTransferCycles)
{
    MemoryBus bus(BusParams{30, 1000});
    EXPECT_EQ(bus.transfer(0, 100), 130u);
    EXPECT_EQ(bus.transfers(), 1u);
}

TEST(MemoryBusTest, BackToBackTransfersSerialize)
{
    MemoryBus bus(BusParams{30, 1000});
    EXPECT_EQ(bus.transfer(0, 0), 30u);
    // Second request at t=10 waits for the bus.
    EXPECT_EQ(bus.transfer(1, 10), 60u);
    EXPECT_EQ(bus.totalWaitCycles(), 20u);
}

TEST(MemoryBusTest, LockHoldsBusExclusively)
{
    MemoryBus bus(BusParams{30, 1000});
    EXPECT_EQ(bus.lockedTransfer(0, 0), 1000u);
    // A transfer issued during the lock waits until the lock releases.
    EXPECT_EQ(bus.transfer(1, 500), 1030u);
}

TEST(MemoryBusTest, LockEventFiresAtAcquisition)
{
    MemoryBus bus(BusParams{30, 1000});
    std::vector<std::pair<Tick, ContextId>> events;
    bus.addLockListener([&](Tick when, ContextId ctx) {
        events.emplace_back(when, ctx);
    });
    bus.transfer(0, 0);               // busy until 30
    bus.lockedTransfer(3, 10);        // waits; acquires at 30
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].first, 30u);
    EXPECT_EQ(events[0].second, 3);
    EXPECT_EQ(bus.locks(), 1u);
}

TEST(MemoryBusTest, MultipleListenersAllFire)
{
    MemoryBus bus;
    int count = 0;
    bus.addLockListener([&](Tick, ContextId) { ++count; });
    bus.addLockListener([&](Tick, ContextId) { ++count; });
    bus.lockedTransfer(0, 0);
    EXPECT_EQ(count, 2);
}

TEST(MemoryBusTest, IdleBusResetsWait)
{
    MemoryBus bus(BusParams{30, 1000});
    bus.transfer(0, 0);
    // Request long after the bus went idle: no wait.
    EXPECT_EQ(bus.transfer(0, 500), 530u);
    EXPECT_EQ(bus.totalWaitCycles(), 0u);
}

TEST(MemoryBusTest, TransferSlotsIntoGapBeforeDeferredLock)
{
    // A rate-limited lock is scheduled into the future; ordinary
    // transfers must keep flowing through the idle gap before it.
    MemoryBus bus(BusParams{30, 1000});
    bus.setLockRateLimit(50000);
    bus.lockedTransfer(0, 0);          // lock 1: [0, 1000)
    bus.lockedTransfer(0, 1000);       // lock 2 deferred to 50000
    // Gap [1000, 50000) serves transfers immediately.
    EXPECT_EQ(bus.transfer(1, 2000), 2030u);
    EXPECT_EQ(bus.transfer(1, 2030), 2060u);
    // A transfer that cannot finish before the lock window waits it
    // out.
    EXPECT_EQ(bus.transfer(1, 49990), 51030u);
}

TEST(MemoryBusTest, BusyUntilCoversPendingLock)
{
    MemoryBus bus(BusParams{30, 1000});
    bus.setLockRateLimit(50000);
    bus.lockedTransfer(0, 0);
    bus.lockedTransfer(0, 1000); // deferred to [50000, 51000)
    EXPECT_EQ(bus.busyUntil(), 51000u);
}

TEST(MemoryBusTest, LockStormDelaysEveryone)
{
    // Repeated locks (the trojan's '1' signalling) inflate transfer
    // latency for an innocent requester — the spy's observable.
    MemoryBus bus(BusParams{30, 2500});
    Tick t = 0;
    for (int i = 0; i < 4; ++i)
        bus.lockedTransfer(0, t);
    // Bus busy until 10000; a transfer at t=100 waits ~9.9k cycles.
    const Tick done = bus.transfer(1, 100);
    EXPECT_EQ(done, 10030u);
}

TEST(BusRateLimitTest, ThrottlesLockFrequency)
{
    MemoryBus bus(BusParams{30, 1000});
    bus.setLockRateLimit(50000);
    const Tick first = bus.lockedTransfer(0, 0);
    // Second lock immediately after: pushed to 50k.
    const Tick second = bus.lockedTransfer(0, first);
    EXPECT_GE(second, 50000u + 1000u);
    EXPECT_EQ(bus.throttledLocks(), 1u);
    // A lock after the interval passes unthrottled.
    const Tick third = bus.lockedTransfer(0, 200000);
    EXPECT_EQ(third, 201000u);
    EXPECT_EQ(bus.throttledLocks(), 1u);
}

TEST(BusRateLimitTest, OrdinaryTransfersUnaffected)
{
    MemoryBus bus(BusParams{30, 1000});
    bus.setLockRateLimit(50000);
    EXPECT_EQ(bus.transfer(0, 0), 30u);
    EXPECT_EQ(bus.transfer(0, 100), 130u);
}

} // namespace
} // namespace cchunter
