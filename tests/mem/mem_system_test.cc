#include <gtest/gtest.h>

#include "mem/mem_system.hh"

namespace cchunter
{
namespace
{

MemSystemParams
testParams()
{
    MemSystemParams p;
    p.l1 = CacheGeometry{1024, 2, 64};  // 8 sets
    p.l2 = CacheGeometry{4096, 2, 64};  // 32 sets
    return p;
}

TEST(MemSystemTest, TopologyCounts)
{
    MemSystem m(testParams());
    EXPECT_EQ(m.numCores(), 4u);
    EXPECT_EQ(m.numContexts(), 8u);
    EXPECT_EQ(m.coreOf(0), 0u);
    EXPECT_EQ(m.coreOf(1), 0u);
    EXPECT_EQ(m.coreOf(2), 1u);
    EXPECT_EQ(m.coreOf(7), 3u);
}

TEST(MemSystemTest, L1HitLatency)
{
    MemSystem m(testParams());
    m.access(0, 0x1000, false, 0);
    auto out = m.access(0, 0x1000, false, 10);
    EXPECT_TRUE(out.l1Hit);
    EXPECT_EQ(out.latency, m.params().l1HitCycles);
}

TEST(MemSystemTest, L2HitAfterL1Eviction)
{
    MemSystem m(testParams());
    // Fill line A, then push it out of L1 (2-way, 8 sets -> stride 512)
    // while keeping it in L2 (2-way, 32 sets -> stride 2048).
    m.access(0, 0x0000, false, 0);
    m.access(0, 0x0200, false, 1);  // same L1 set, different L2 set
    m.access(0, 0x0400, false, 2);  // evicts A from L1
    auto out = m.access(0, 0x0000, false, 3);
    EXPECT_FALSE(out.l1Hit);
    EXPECT_TRUE(out.l2Hit);
    EXPECT_EQ(out.latency,
              m.params().l1HitCycles + m.params().l2HitCycles);
}

TEST(MemSystemTest, MissGoesOverBusToDram)
{
    MemSystem m(testParams());
    auto out = m.access(0, 0x1000, false, 0);
    EXPECT_TRUE(out.missedAll());
    EXPECT_GE(out.latency, m.params().bus.transferCycles +
                               m.params().dram.rowHitCycles);
    EXPECT_EQ(m.bus().transfers(), 1u);
}

TEST(MemSystemTest, HyperthreadsShareL2)
{
    MemSystem m(testParams());
    m.access(0, 0x1000, false, 0);   // ctx 0 fills L2 of core 0
    auto out = m.access(1, 0x1000, false, 10); // ctx 1, same core
    EXPECT_FALSE(out.l1Hit);  // own L1 is cold
    EXPECT_TRUE(out.l2Hit);   // shared L2 has it
}

TEST(MemSystemTest, DifferentCoresDoNotShareL2)
{
    MemSystem m(testParams());
    m.access(0, 0x1000, false, 0);
    auto out = m.access(2, 0x1000, false, 10); // core 1
    EXPECT_TRUE(out.missedAll());
}

TEST(MemSystemTest, InclusionBackInvalidatesL1)
{
    MemSystem m(testParams());
    // ctx 0 loads line A (L1 + L2).
    m.access(0, 0x0000, false, 0);
    // ctx 1 (same core) streams lines mapping to A's L2 set until A is
    // evicted from L2; inclusion must purge A from ctx 0's L1.
    // L2: 32 sets x 64B -> stride 2048.
    m.access(1, 0x0800, false, 1);
    m.access(1, 0x1000, false, 2); // L2 set 0 now holds 0x800,0x1000
    EXPECT_FALSE(m.l2(0).probe(0x0000));
    EXPECT_FALSE(m.l1(0).probe(0x0000));
    auto out = m.access(0, 0x0000, false, 10);
    EXPECT_TRUE(out.missedAll());
}

TEST(MemSystemTest, LockedAccessAssertsLockAndTouchesTwoLines)
{
    MemSystem m(testParams());
    int locks = 0;
    m.bus().addLockListener([&](Tick, ContextId) { ++locks; });
    auto out = m.lockedAccess(0, 0x0fc0, 0);
    EXPECT_EQ(locks, 1);
    EXPECT_GE(out.latency, m.params().bus.lockHoldCycles);
    // Both spanned lines are now cached.
    EXPECT_TRUE(m.l1(0).probe(0x0fc0));
    EXPECT_TRUE(m.l1(0).probe(0x1000));
}

TEST(MemSystemTest, LockDelaysOtherContextsMisses)
{
    MemSystem m(testParams());
    m.lockedAccess(0, 0x0fc0, 0); // bus locked for lockHoldCycles
    auto out = m.access(2, 0x8000, false, 100);
    EXPECT_TRUE(out.missedAll());
    // The miss had to wait out the lock.
    EXPECT_GE(out.latency, m.params().bus.lockHoldCycles - 100);
}

TEST(MemSystemTest, ContextRangeChecked)
{
    MemSystem m(testParams());
    EXPECT_ANY_THROW(m.l1(200));
    EXPECT_ANY_THROW(m.l2(100));
}

TEST(MemSystemTest, InvalidTopologyThrows)
{
    MemSystemParams p = testParams();
    p.numCores = 0;
    EXPECT_ANY_THROW(MemSystem{p});
}

TEST(MemSystemTest, MoreThanEightThreadsPerCoreThrows)
{
    // Each L2 block keeps one L1-presence bit per thread in a byte.
    MemSystemParams p = testParams();
    p.numCores = 1;
    p.threadsPerCore = 9;
    EXPECT_ANY_THROW(MemSystem{p});
    p.threadsPerCore = 8;
    EXPECT_NO_THROW(MemSystem{p});
}

} // namespace
} // namespace cchunter
