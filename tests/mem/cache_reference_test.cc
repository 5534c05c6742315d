/**
 * @file
 * Property tests: the Cache and Tlb models fuzz-checked against
 * independent reference implementations (per-set recency lists), the
 * MemSystem's presence-bit back-invalidation against a hierarchy that
 * back-invalidates every L1 of the core, and the HistogramBuffer
 * fuzz-checked against the offline event-density computation over
 * random event streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <ostream>
#include <utility>
#include <vector>

#include "auditor/histogram_buffer.hh"
#include "detect/event_density.hh"
#include "mem/cache.hh"
#include "mem/mem_system.hh"
#include "mem/tlb.hh"
#include "util/rng.hh"

namespace cchunter
{
namespace
{

/** One CacheMonitor callback with its arguments. */
struct MonitorEvent
{
    enum Kind { Access, Evict, Miss } kind;
    std::size_t block = 0;    //!< Access, Evict
    Addr line = 0;            //!< all
    ContextId ctx = 0;        //!< accessor, evicted owner or requester
    ContextId victimOwner = 0; //!< Miss
    bool hadVictim = false;   //!< Miss
    Tick now = 0;

    bool operator==(const MonitorEvent&) const = default;
};

std::ostream&
operator<<(std::ostream& os, const MonitorEvent& e)
{
    static const char* const names[] = {"access", "evict", "miss"};
    return os << names[e.kind] << "(block " << e.block << " line "
              << e.line << " ctx " << int{e.ctx} << " victimOwner "
              << int{e.victimOwner} << " hadVictim " << e.hadVictim
              << " now " << e.now << ")";
}

/** Records the callback stream of a Cache. */
struct RecordingMonitor : CacheMonitor
{
    std::vector<MonitorEvent> events;

    void
    onAccess(std::size_t block, Addr line, ContextId ctx,
             Tick now) override
    {
        events.push_back({MonitorEvent::Access, block, line, ctx, 0,
                          false, now});
    }

    void
    onEvict(std::size_t block, Addr line, ContextId owner,
            Tick now) override
    {
        events.push_back({MonitorEvent::Evict, block, line, owner, 0,
                          false, now});
    }

    void
    onMiss(Addr line, ContextId requester, ContextId victim_owner,
           bool had_victim, Tick now) override
    {
        events.push_back({MonitorEvent::Miss, 0, line, requester,
                          victim_owner, had_victim, now});
    }
};

/**
 * Straightforward per-set LRU cache model built on std::list: the
 * front of a set's list is its most recent line.  A miss fills the
 * lowest-numbered free way, else the way of the list's last line.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::size_t sets, std::size_t ways,
                   std::size_t line)
        : sets_(sets), ways_(ways), line_(line), lru_(sets)
    {
    }

    /** Access `addr`; appends the expected monitor callbacks to
     *  `events` when given. */
    CacheAccessResult
    access(Addr addr, ContextId ctx, Tick now,
           std::vector<MonitorEvent>* events = nullptr)
    {
        CacheAccessResult r;
        const Addr la = lineOf(addr);
        const std::size_t set = setOf(la);
        auto& list = lru_[set];
        for (auto it = list.begin(); it != list.end(); ++it) {
            if (it->addr == la) {
                Resident hit = *it;
                hit.owner = ctx;
                list.erase(it);
                list.push_front(hit);
                r.hit = true;
                r.block = set * ways_ + hit.way;
                if (events)
                    events->push_back({MonitorEvent::Access, r.block, la,
                                       ctx, 0, false, now});
                return r;
            }
        }
        std::size_t way = 0;
        if (list.size() == ways_) {
            const Resident victim = list.back();
            list.pop_back();
            way = victim.way;
            r.evicted = true;
            r.evictedLineAddr = victim.addr;
            r.evictedOwner = victim.owner;
        } else {
            std::vector<bool> used(ways_, false);
            for (const Resident& res : list)
                used[res.way] = true;
            way = static_cast<std::size_t>(
                std::find(used.begin(), used.end(), false) -
                used.begin());
        }
        r.block = set * ways_ + way;
        if (events) {
            events->push_back({MonitorEvent::Miss, 0, la, ctx,
                               r.evictedOwner, r.evicted, now});
            if (r.evicted)
                events->push_back({MonitorEvent::Evict, r.block,
                                   r.evictedLineAddr, r.evictedOwner, 0,
                                   false, now});
            events->push_back({MonitorEvent::Access, r.block, la, ctx, 0,
                               false, now});
        }
        list.push_front({la, ctx, way});
        return r;
    }

    bool
    invalidate(Addr addr)
    {
        const Addr la = lineOf(addr);
        auto& list = lru_[setOf(la)];
        for (auto it = list.begin(); it != list.end(); ++it) {
            if (it->addr == la) {
                list.erase(it);
                return true;
            }
        }
        return false;
    }

    void
    flush()
    {
        for (auto& list : lru_)
            list.clear();
    }

    bool probe(Addr addr) const { return find(addr) != nullptr; }

    ContextId
    ownerOf(Addr addr) const
    {
        const Resident* res = find(addr);
        return res ? res->owner : invalidContext;
    }

  private:
    struct Resident
    {
        Addr addr;
        ContextId owner;
        std::size_t way;
    };

    Addr lineOf(Addr addr) const { return addr - addr % line_; }
    std::size_t setOf(Addr la) const { return (la / line_) % sets_; }

    const Resident*
    find(Addr addr) const
    {
        const Addr la = lineOf(addr);
        for (const Resident& res : lru_[setOf(la)])
            if (res.addr == la)
                return &res;
        return nullptr;
    }

    std::size_t sets_, ways_, line_;
    std::vector<std::list<Resident>> lru_;
};

class CacheFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CacheFuzzTest, MatchesReferenceOnRandomStreams)
{
    const CacheGeometry geom{8192, 4, 64}; // 32 sets x 4 ways
    Cache cache("fuzz", geom);
    ReferenceCache ref(geom.numSets(), geom.associativity,
                       geom.lineSize);
    Rng rng(GetParam());
    for (int i = 0; i < 50000; ++i) {
        // 256 lines over 32 sets: plenty of conflicts.
        const Addr addr = rng.nextBelow(256) * 64 + rng.nextBelow(64);
        const bool model_hit = cache.access(addr, 0, i).hit;
        const bool ref_hit = ref.access(addr, 0, i).hit;
        ASSERT_EQ(model_hit, ref_hit)
            << "divergence at access " << i << " addr " << addr;
    }
}

TEST_P(CacheFuzzTest, EveryOperationAndMonitorCallbackMatchesReference)
{
    // 8 sets x 4 ways over 64 lines, four contexts: accesses interleaved
    // with invalidations, rare flushes and read-only queries.
    const CacheGeometry geom{2048, 4, 64};
    Cache cache("fuzz", geom);
    RecordingMonitor monitor;
    cache.setMonitor(&monitor);
    ReferenceCache ref(geom.numSets(), geom.associativity,
                       geom.lineSize);
    std::vector<MonitorEvent> expected;
    Rng rng(GetParam());
    for (Tick i = 0; i < 40000; ++i) {
        const Addr addr = rng.nextBelow(64) * 64 + rng.nextBelow(64);
        const auto ctx = static_cast<ContextId>(rng.nextBelow(4));
        const std::uint64_t op = rng.nextBelow(100);
        if (op < 70) {
            const CacheAccessResult got = cache.access(addr, ctx, i);
            const CacheAccessResult want =
                ref.access(addr, ctx, i, &expected);
            ASSERT_EQ(got.hit, want.hit) << "access " << i;
            ASSERT_EQ(got.block, want.block) << "access " << i;
            ASSERT_EQ(got.evicted, want.evicted) << "access " << i;
            ASSERT_EQ(got.evictedLineAddr, want.evictedLineAddr)
                << "access " << i;
            ASSERT_EQ(got.evictedOwner, want.evictedOwner)
                << "access " << i;
        } else if (op < 85) {
            ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr))
                << "invalidate " << i;
        } else if (op < 86) {
            cache.flush();
            ref.flush();
        } else {
            ASSERT_EQ(cache.probe(addr), ref.probe(addr)) << "probe " << i;
            ASSERT_EQ(cache.ownerOf(addr), ref.ownerOf(addr))
                << "ownerOf " << i;
        }
        ASSERT_EQ(monitor.events.size(), expected.size()) << "op " << i;
        if (!expected.empty()) {
            ASSERT_EQ(monitor.events.back(), expected.back()) << "op " << i;
        }
    }
    ASSERT_EQ(monitor.events, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheFuzzTest,
                         ::testing::Values(11, 22, 33, 44));

/** Per-set recency-list TLB reference with per-entry owners. */
class ReferenceTlb
{
  public:
    explicit ReferenceTlb(const TlbParams& p)
        : p_(p), lru_(p.entries / p.associativity)
    {
    }

    /** @return true on a hit; appends a cross-context displacement to
     *  `conflicts`. */
    bool
    translate(Addr addr, ContextId ctx, Tick now,
              std::vector<TlbConflict>& conflicts)
    {
        const std::uint64_t page = addr / p_.pageBytes;
        auto& list = lru_[page % lru_.size()];
        for (auto it = list.begin(); it != list.end(); ++it) {
            if (it->first == page) {
                list.erase(it);
                list.emplace_front(page, ctx);
                return true;
            }
        }
        if (list.size() == p_.associativity) {
            if (list.back().second != ctx)
                conflicts.push_back({now, ctx, list.back().second});
            list.pop_back();
        }
        list.emplace_front(page, ctx);
        return false;
    }

    bool
    probe(Addr addr) const
    {
        const std::uint64_t page = addr / p_.pageBytes;
        for (const auto& entry : lru_[page % lru_.size()])
            if (entry.first == page)
                return true;
        return false;
    }

    void
    flush()
    {
        for (auto& list : lru_)
            list.clear();
    }

  private:
    TlbParams p_;
    std::vector<std::list<std::pair<std::uint64_t, ContextId>>> lru_;
};

class TlbFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TlbFuzzTest, HitsAndConflictsMatchReference)
{
    TlbParams params;
    params.enabled = true;
    params.entries = 32;
    params.associativity = 4; // 8 sets
    params.pageBytes = 4096;
    Tlb tlb("fuzz", params);
    ReferenceTlb ref(params);
    std::vector<TlbConflict> got;
    std::vector<TlbConflict> want;
    tlb.addConflictListener(
        [&got](const TlbConflict& c) { got.push_back(c); });
    Rng rng(GetParam());
    for (Tick i = 0; i < 40000; ++i) {
        // 64 pages over 8 sets, three contexts.
        const Addr addr = rng.nextBelow(64) * params.pageBytes +
                          rng.nextBelow(params.pageBytes);
        const auto ctx = static_cast<ContextId>(rng.nextBelow(3));
        const std::uint64_t op = rng.nextBelow(100);
        if (op < 90) {
            const TlbOutcome out = tlb.translate(addr, ctx, i);
            ASSERT_EQ(out.hit, ref.translate(addr, ctx, i, want))
                << "translate " << i;
            ASSERT_EQ(out.latency, out.hit ? 0 : params.missCycles);
        } else if (op < 91) {
            tlb.flush();
            ref.flush();
        } else {
            ASSERT_EQ(tlb.probe(addr), ref.probe(addr)) << "probe " << i;
        }
        ASSERT_EQ(got.size(), want.size()) << "op " << i;
        if (!want.empty()) {
            ASSERT_EQ(got.back().time, want.back().time) << "op " << i;
            ASSERT_EQ(got.back().replacer, want.back().replacer);
            ASSERT_EQ(got.back().victim, want.back().victim);
        }
    }
    EXPECT_EQ(tlb.conflicts(), want.size());
    EXPECT_GT(want.size(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlbFuzzTest,
                         ::testing::Values(5, 6, 7, 8));

/**
 * The hierarchy MemSystem models, written out with reference caches:
 * an L2 eviction back-invalidates the line in every L1 of the core,
 * whether or not that L1 holds it.
 */
class ReferenceHierarchy
{
  public:
    explicit ReferenceHierarchy(const MemSystemParams& p)
        : p_(p), bus_(p.bus), dram_(p.dram)
    {
        for (unsigned c = 0; c < p.numCores * p.threadsPerCore; ++c)
            l1s_.emplace_back(p.l1.numSets(), p.l1.associativity,
                              p.l1.lineSize);
        for (unsigned c = 0; c < p.numCores; ++c)
            l2s_.emplace_back(p.l2.numSets(), p.l2.associativity,
                              p.l2.lineSize);
    }

    MemAccessOutcome
    access(ContextId ctx, Addr addr, Tick now)
    {
        MemAccessOutcome out;
        if (l1s_[ctx].access(addr, ctx, now).hit) {
            out.l1Hit = true;
            out.latency = p_.l1HitCycles;
            return out;
        }
        const CacheAccessResult r2 = l2Access(ctx, addr, now);
        if (r2.hit) {
            out.l2Hit = true;
            out.latency = p_.l1HitCycles + p_.l2HitCycles;
            return out;
        }
        const Tick done = bus_.transfer(ctx, now) + dram_.access(addr);
        out.latency = static_cast<Cycles>(done - now) + p_.l2HitCycles +
                      p_.l1HitCycles;
        return out;
    }

    MemAccessOutcome
    lockedAccess(ContextId ctx, Addr addr, Tick now)
    {
        for (Addr a : {addr, addr + p_.l1.lineSize}) {
            l1s_[ctx].access(a, ctx, now);
            l2Access(ctx, a, now);
        }
        MemAccessOutcome out;
        const Tick done = bus_.lockedTransfer(ctx, now);
        out.latency = static_cast<Cycles>(done - now) + dram_.access(addr);
        return out;
    }

    bool l1Holds(ContextId ctx, Addr a) const { return l1s_[ctx].probe(a); }
    bool l2Holds(unsigned core, Addr a) const { return l2s_[core].probe(a); }

  private:
    CacheAccessResult
    l2Access(ContextId ctx, Addr addr, Tick now)
    {
        const unsigned core = ctx / p_.threadsPerCore;
        const CacheAccessResult r2 = l2s_[core].access(addr, ctx, now);
        if (r2.evicted)
            for (unsigned t = 0; t < p_.threadsPerCore; ++t)
                l1s_[core * p_.threadsPerCore + t].invalidate(
                    r2.evictedLineAddr);
        return r2;
    }

    MemSystemParams p_;
    std::vector<ReferenceCache> l1s_;
    std::vector<ReferenceCache> l2s_;
    MemoryBus bus_;
    Dram dram_;
};

class MemSystemPresenceTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MemSystemPresenceTest, BackInvalidationMatchesEveryL1Reference)
{
    // Two cores of two SMT threads.  Each L2 (4 sets x 2 ways) holds
    // only twice an L1 (2 sets x 2 ways), so L2 fills constantly evict
    // lines that one or both of the core's L1s still hold.
    MemSystemParams params;
    params.numCores = 2;
    params.threadsPerCore = 2;
    params.l1 = CacheGeometry{256, 2, 64};
    params.l2 = CacheGeometry{512, 2, 64};
    MemSystem mem(params);
    ReferenceHierarchy ref(params);
    constexpr Addr lines = 24;
    Rng rng(GetParam());
    Tick now = 0;
    for (int i = 0; i < 20000; ++i) {
        now += 1 + rng.nextBelow(400);
        const auto ctx = static_cast<ContextId>(rng.nextBelow(4));
        const Addr addr = rng.nextBelow(lines) * 64 + rng.nextBelow(64);
        const bool locked = rng.nextBelow(8) == 0;
        const MemAccessOutcome got =
            locked ? mem.lockedAccess(ctx, addr, now)
                   : mem.access(ctx, addr, false, now);
        const MemAccessOutcome want =
            locked ? ref.lockedAccess(ctx, addr, now)
                   : ref.access(ctx, addr, now);
        ASSERT_EQ(got.l1Hit, want.l1Hit) << "access " << i;
        ASSERT_EQ(got.l2Hit, want.l2Hit) << "access " << i;
        ASSERT_EQ(got.latency, want.latency) << "access " << i;
        for (Addr line = 0; line <= lines; ++line) {
            const Addr a = line * 64;
            for (ContextId c = 0; c < 4; ++c) {
                const bool in_l1 = mem.l1(c).probe(a);
                ASSERT_EQ(in_l1, ref.l1Holds(c, a))
                    << "access " << i << " ctx " << int{c} << " line "
                    << line;
                // Inclusion: an L1-resident line is L2-resident.
                if (in_l1) {
                    ASSERT_TRUE(mem.l2ForContext(c).probe(a))
                        << "access " << i << " ctx " << int{c}
                        << " line " << line;
                }
            }
            for (unsigned core = 0; core < 2; ++core)
                ASSERT_EQ(mem.l2(core).probe(a), ref.l2Holds(core, a))
                    << "access " << i << " core " << core;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemSystemPresenceTest,
                         ::testing::Values(1, 2, 3));

class HistogramBufferFuzzTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HistogramBufferFuzzTest, MatchesOfflineDensityComputation)
{
    Rng rng(GetParam());
    const Tick dt = 1 + rng.nextBelow(5000);
    const Tick span = 200000 + rng.nextBelow(300000);

    HistogramBuffer hw(dt, 0);
    EventTrain train(0, span);
    Tick now = 0;
    while (true) {
        now += 1 + static_cast<Tick>(rng.nextExponential(
                   static_cast<double>(1 + rng.nextBelow(2000))));
        if (now >= span)
            break;
        hw.recordEvent(now);
        train.addEvent(now);
    }
    // Snapshot at a multiple of dt so both sides see the same windows.
    const Tick snap = (span / dt) * dt;
    train.setWindow(0, snap);
    const Histogram hardware = hw.snapshotAndReset(snap);
    const Histogram offline =
        buildEventDensityHistogram(train, dt, 128);
    ASSERT_EQ(hardware.totalSamples(), offline.totalSamples());
    for (std::size_t b = 0; b < 128; ++b)
        ASSERT_EQ(hardware.bin(b), offline.bin(b)) << "bin " << b;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramBufferFuzzTest,
                         ::testing::Values(3, 5, 8, 13, 21, 34));

} // namespace
} // namespace cchunter
