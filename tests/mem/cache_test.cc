#include <gtest/gtest.h>

#include <vector>

#include "mem/cache.hh"

namespace cchunter
{
namespace
{

CacheGeometry
smallGeom()
{
    // 4 sets x 2 ways x 64B lines = 512 B.
    return CacheGeometry{512, 2, 64};
}

TEST(CacheGeometryTest, DerivedQuantities)
{
    CacheGeometry g{256 * 1024, 8, 64};
    EXPECT_EQ(g.numBlocks(), 4096u);
    EXPECT_EQ(g.numSets(), 512u);
}

TEST(CacheTest, ColdMissThenHit)
{
    Cache c("t", smallGeom());
    auto r = c.access(0x1000, 0, 0);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.evicted);
    r = c.access(0x1000, 0, 1);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(CacheTest, SameLineDifferentOffsetsHit)
{
    Cache c("t", smallGeom());
    c.access(0x1000, 0, 0);
    EXPECT_TRUE(c.access(0x103f, 0, 1).hit);
}

TEST(CacheTest, LruEvictionOrder)
{
    Cache c("t", smallGeom());
    // Set stride: 4 sets * 64 B = 256 B. Three lines to set 0.
    c.access(0x0000, 0, 0);  // A
    c.access(0x0100, 0, 1);  // B
    c.access(0x0000, 0, 2);  // touch A -> B becomes LRU
    auto r = c.access(0x0200, 0, 3); // C evicts B
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.evictedLineAddr, 0x0100u);
    EXPECT_TRUE(c.probe(0x0000));
    EXPECT_FALSE(c.probe(0x0100));
    EXPECT_TRUE(c.probe(0x0200));
}

TEST(CacheTest, InvalidWaysPreferredOverEviction)
{
    Cache c("t", smallGeom());
    c.access(0x0000, 0, 0);
    auto r = c.access(0x0100, 0, 1); // second way free
    EXPECT_FALSE(r.evicted);
}

TEST(CacheTest, OwnerTracksLastAccessor)
{
    Cache c("t", smallGeom());
    c.access(0x0000, 3, 0);
    EXPECT_EQ(c.ownerOf(0x0000), 3);
    c.access(0x0000, 5, 1);
    EXPECT_EQ(c.ownerOf(0x0000), 5);
    EXPECT_EQ(c.ownerOf(0x4000), invalidContext);
}

TEST(CacheTest, EvictionReportsOwner)
{
    Cache c("t", smallGeom());
    c.access(0x0000, 1, 0);
    c.access(0x0100, 2, 1);
    auto r = c.access(0x0200, 3, 2); // evicts ctx 1's line
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.evictedOwner, 1);
}

TEST(CacheTest, InvalidateRemovesLine)
{
    Cache c("t", smallGeom());
    c.access(0x0000, 0, 0);
    EXPECT_TRUE(c.invalidate(0x0000));
    EXPECT_FALSE(c.probe(0x0000));
    EXPECT_FALSE(c.invalidate(0x0000));
}

TEST(CacheTest, FlushEmptiesEverything)
{
    Cache c("t", smallGeom());
    c.access(0x0000, 0, 0);
    c.access(0x0100, 0, 1);
    c.flush();
    EXPECT_FALSE(c.probe(0x0000));
    EXPECT_FALSE(c.probe(0x0100));
}

TEST(CacheTest, SetIndexMapping)
{
    Cache c("t", smallGeom());
    EXPECT_EQ(c.setIndex(0x0000), 0u);
    EXPECT_EQ(c.setIndex(0x0040), 1u);
    EXPECT_EQ(c.setIndex(0x00c0), 3u);
    EXPECT_EQ(c.setIndex(0x0100), 0u);
    EXPECT_EQ(c.lineAddr(0x1234), 0x1200u);
}

TEST(CacheTest, BadGeometryThrows)
{
    EXPECT_ANY_THROW(Cache("t", CacheGeometry{512, 2, 48}));
    EXPECT_ANY_THROW(Cache("t", CacheGeometry{512, 0, 64}));
    EXPECT_ANY_THROW(Cache("t", CacheGeometry{500, 2, 64}));
}

TEST(CacheTest, NonPowerOfTwoSetCountThrows)
{
    // The set index is a shift and a mask, so 3, 5 and 6 sets are
    // rejected rather than silently folded; 1 and 4 sets are fine.
    EXPECT_ANY_THROW(Cache("t", CacheGeometry{384, 2, 64}));
    EXPECT_ANY_THROW(Cache("t", CacheGeometry{640, 2, 64}));
    EXPECT_ANY_THROW(Cache("t", CacheGeometry{384, 1, 64}));
    EXPECT_ANY_THROW(Cache("t", CacheGeometry{192, 1, 64}));
    EXPECT_NO_THROW(Cache("t", CacheGeometry{128, 2, 64}));
    EXPECT_NO_THROW(Cache("t", CacheGeometry{768, 3, 64}));
    // A one-byte line would let a line address equal the invalid tag.
    EXPECT_ANY_THROW(Cache("t", CacheGeometry{8, 2, 1}));
}

/** Monitor recording callbacks for verification. */
struct RecordingMonitor : CacheMonitor
{
    struct MissInfo
    {
        Addr line;
        ContextId requester;
        ContextId victimOwner;
        bool hadVictim;
    };

    std::vector<std::size_t> accesses;
    std::vector<Addr> evictions;
    std::vector<MissInfo> missList;

    void
    onAccess(std::size_t block_idx, Addr, ContextId, Tick) override
    {
        accesses.push_back(block_idx);
    }

    void
    onEvict(std::size_t, Addr line, ContextId, Tick) override
    {
        evictions.push_back(line);
    }

    void
    onMiss(Addr line, ContextId requester, ContextId victim_owner,
           bool had_victim, Tick) override
    {
        missList.push_back({line, requester, victim_owner, had_victim});
    }
};

TEST(CacheMonitorTest, CallbacksFireInOrder)
{
    Cache c("t", smallGeom());
    RecordingMonitor mon;
    c.setMonitor(&mon);

    c.access(0x0000, 1, 0); // cold miss, no victim
    ASSERT_EQ(mon.missList.size(), 1u);
    EXPECT_FALSE(mon.missList[0].hadVictim);
    EXPECT_EQ(mon.accesses.size(), 1u);

    c.access(0x0000, 1, 1); // hit
    EXPECT_EQ(mon.missList.size(), 1u);
    EXPECT_EQ(mon.accesses.size(), 2u);

    c.access(0x0100, 2, 2); // fills way 1
    c.access(0x0200, 3, 3); // evicts 0x0000 (LRU)
    ASSERT_EQ(mon.evictions.size(), 1u);
    EXPECT_EQ(mon.evictions[0], 0x0000u);
    ASSERT_EQ(mon.missList.size(), 3u);
    EXPECT_TRUE(mon.missList[2].hadVictim);
    EXPECT_EQ(mon.missList[2].requester, 3);
    EXPECT_EQ(mon.missList[2].victimOwner, 1);
}

TEST(CacheTest, DirectMappedConflicts)
{
    // Direct-mapped: any two lines mapping to the same set replace each
    // other (the cache-channel configuration).
    Cache c("dm", CacheGeometry{256, 1, 64});
    c.access(0x0000, 0, 0);
    auto r = c.access(0x0100, 1, 1);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.evictedLineAddr, 0x0000u);
    EXPECT_EQ(r.evictedOwner, 0);
}

} // namespace
} // namespace cchunter
