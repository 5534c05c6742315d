#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>

#include "channels/bus_channel.hh"
#include "channels/prime_probe.hh"
#include "channels/divider_channel.hh"
#include "sim/machine.hh"
#include "units/unit_registry.hh"

namespace cchunter
{
namespace
{

ChannelTiming
fastTiming(double bps = 10000.0)
{
    ChannelTiming t;
    t.start = 1000;
    t.bandwidthBps = bps;
    return t;
}

TEST(BusChannelTest, TrojanLocksOnlyForOnes)
{
    Machine m;
    ChannelTiming t = fastTiming();
    BusTrojanParams tp;
    tp.timing = t;
    tp.message = Message::fromBits({true, false, true, false});
    tp.repeat = false;
    auto trojan = std::make_unique<BusTrojan>(tp);
    auto* raw = trojan.get();
    m.addProcess(std::move(trojan), 0);
    m.run(4 * t.bitTicks() + 10000);
    // Two '1' bits, locks every 5000 cycles over 250k-cycle slots.
    EXPECT_GT(raw->locksIssued(), 60u);
    EXPECT_LT(raw->locksIssued(), 140u);
    EXPECT_EQ(m.mem().bus().locks(), raw->locksIssued());
}

TEST(BusChannelTest, SpyDecodesCleanChannel)
{
    Machine m;
    ChannelTiming t = fastTiming(1000.0);
    const Message msg = Message::fromBits(
        {true, false, false, true, true, false, true, false});
    BusTrojanParams tp;
    tp.timing = t;
    tp.message = msg;
    m.addProcess(std::make_unique<BusTrojan>(tp), 0);
    BusSpyParams sp;
    sp.timing = t;
    auto spy = std::make_unique<BusSpy>(sp);
    auto* raw = spy.get();
    m.addProcess(std::move(spy), 2);
    m.run(9 * t.bitTicks());
    ASSERT_GE(raw->decodedSlots().size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(raw->decodedSlots()[i].second, msg.bit(i))
            << "bit " << i;
    }
}

TEST(BusChannelTest, SpyCollectsSamples)
{
    Machine m;
    ChannelTiming t = fastTiming(1000.0);
    BusSpyParams sp;
    sp.timing = t;
    auto spy = std::make_unique<BusSpy>(sp);
    auto* raw = spy.get();
    m.addProcess(std::move(spy), 0);
    m.run(3 * t.bitTicks());
    EXPECT_GT(raw->samples().size(), 50u);
    for (double s : raw->samples())
        EXPECT_GT(s, 0.0);
}

TEST(BusChannelTest, EmptyMessageThrows)
{
    BusTrojanParams tp;
    tp.timing = fastTiming();
    EXPECT_ANY_THROW(BusTrojan{tp});
}

TEST(DividerChannelTest, TrojanIdleForZeroBits)
{
    Machine m;
    ChannelTiming t = fastTiming(1000.0);
    DividerTrojanParams tp;
    tp.timing = t;
    tp.message = Message::fromBits({false, false, false});
    tp.repeat = false;
    auto trojan = std::make_unique<DividerTrojan>(tp);
    auto* raw = trojan.get();
    m.addProcess(std::move(trojan), 0);
    m.run(4 * t.bitTicks());
    EXPECT_EQ(raw->opsIssued(), 0u);
    EXPECT_EQ(m.divider(0).totalOps(), 0u);
}

TEST(DividerChannelTest, SpyDecodesAlternatingBits)
{
    Machine m;
    ChannelTiming t = fastTiming(1000.0);
    const Message msg = Message::fromBits(
        {true, false, true, false, true, true, false, false});
    DividerTrojanParams tp;
    tp.timing = t;
    tp.message = msg;
    m.addProcess(std::make_unique<DividerTrojan>(tp), 0);
    DividerSpyParams sp;
    sp.timing = t;
    auto spy = std::make_unique<DividerSpy>(sp);
    auto* raw = spy.get();
    m.addProcess(std::move(spy), 1); // same core hyperthread
    m.run(9 * t.bitTicks());
    ASSERT_GE(raw->decodedSlots().size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(raw->decodedSlots()[i].second, msg.bit(i))
            << "bit " << i;
}

TEST(DividerChannelTest, ContentionDoublesSpyLatency)
{
    Machine m;
    ChannelTiming t = fastTiming(1000.0);
    DividerTrojanParams tp;
    tp.timing = t;
    tp.message = Message::fromBits({true});
    m.addProcess(std::make_unique<DividerTrojan>(tp), 0);
    DividerSpyParams sp;
    sp.timing = t;
    sp.gapMax = 0;
    auto spy = std::make_unique<DividerSpy>(sp);
    auto* raw = spy.get();
    m.addProcess(std::move(spy), 1);
    m.run(t.bitTicks());
    ASSERT_FALSE(raw->samples().empty());
    // 20 ops x 5 cycles doubled by contention = ~200.
    EXPECT_NEAR(raw->samples().back(), 200.0, 20.0);
}

TEST(MultiplierChannelTest, SpyDecodesViaMultiplierContention)
{
    Machine m;
    ChannelTiming t = fastTiming(1000.0);
    const Message msg = Message::fromBits(
        {true, false, true, true, false, false, true, false});
    DividerTrojanParams tp;
    tp.timing = t;
    tp.message = msg;
    tp.useMultiplier = true;
    m.addProcess(std::make_unique<DividerTrojan>(tp), 0);
    DividerSpyParams sp;
    sp.timing = t;
    sp.useMultiplier = true;
    sp.decodeThreshold = 90; // 3-cycle ops: 60 vs 120
    auto spy = std::make_unique<DividerSpy>(sp);
    auto* raw = spy.get();
    m.addProcess(std::move(spy), 1);
    m.run(9 * t.bitTicks());
    ASSERT_GE(raw->decodedSlots().size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(raw->decodedSlots()[i].second, msg.bit(i))
            << "bit " << i;
    // The divider stayed idle; only the multiplier contended.
    EXPECT_EQ(m.divider(0).totalConflicts(), 0u);
    EXPECT_GT(m.multiplier(0).totalConflicts(), 1000u);
}

TEST(BusChannelTest, EvasionDecoysLockDuringDormancy)
{
    Machine m;
    ChannelTiming t = fastTiming(1000.0);
    BusTrojanParams tp;
    tp.timing = t;
    tp.message = Message::fromBits({false, false, false, false});
    tp.repeat = false;
    tp.evasionLockPeriod = 50000;
    auto trojan = std::make_unique<BusTrojan>(tp);
    auto* raw = trojan.get();
    m.addProcess(std::move(trojan), 0);
    m.run(4 * t.bitTicks());
    // All-zero message, yet decoy locks flow: roughly one per ~75k
    // cycles (period/2 + uniform jitter) across 10M cycles.
    EXPECT_GT(raw->locksIssued(), 80u);
    EXPECT_LT(raw->locksIssued(), 250u);
}

TEST(BusChannelTest, NoEvasionMeansSilenceOnZeros)
{
    Machine m;
    ChannelTiming t = fastTiming(1000.0);
    BusTrojanParams tp;
    tp.timing = t;
    tp.message = Message::fromBits({false, false, false, false});
    tp.repeat = false;
    auto trojan = std::make_unique<BusTrojan>(tp);
    auto* raw = trojan.get();
    m.addProcess(std::move(trojan), 0);
    m.run(4 * t.bitTicks());
    EXPECT_EQ(raw->locksIssued(), 0u);
}

TEST(CacheChannelTest, RoundsMultiplyOscillationPeriods)
{
    MachineParams mp;
    mp.mem.l2 = CacheGeometry{256 * 1024, 1, 64};
    Machine m(mp);
    ChannelTiming t = fastTiming(100.0); // 25 M per bit

    PrimeProbeLayout layout;
    layout.numSets = 4096;
    layout.channelSets = 128;

    PrimeProbeTrojanParams tp;
    tp.timing = t;
    tp.message = Message::fromBits({true});
    tp.layout = layout;
    tp.roundsPerBit = 8;
    auto trojan = std::make_unique<PrimeProbeTrojan>(tp, "cache-trojan");
    auto* traw = trojan.get();
    m.addProcess(std::move(trojan), 0);

    PrimeProbeSpyParams sp;
    sp.timing = t;
    sp.layout = layout;
    sp.roundsPerBit = 8;
    sp.noiseEvery = 0;
    m.addProcess(std::make_unique<PrimeProbeSpy>(sp, "cache-spy"), 1);

    m.run(t.bitTicks());
    // 8 rounds x 64 sets primed per round.
    EXPECT_NEAR(static_cast<double>(traw->primesIssued()), 8.0 * 64.0,
                64.0);
}

TEST(CacheChannelTest, LayoutAddressing)
{
    PrimeProbeLayout layout;
    layout.numSets = 4096;
    layout.channelSets = 512;
    EXPECT_EQ(layout.setsPerGroup(), 256u);
    // G1 set 0 and G0 set 0 are channelSets/2 sets apart.
    const Addr g1 = layout.addr(0, 0, 0, 0);
    const Addr g0 = layout.addr(0, layout.setsPerGroup(), 0, 0);
    EXPECT_EQ(g0 - g1, 256u * 64u);
    // Lines on the same set share it: depth stride = sets * lineSize;
    // with no slot stride the in-page slot does not move the address.
    layout.primeDepth = 2;
    EXPECT_EQ(layout.addr(0, 3, 1, 7), 3 * 64 + 4096 * 64u);
    EXPECT_ANY_THROW(layout.addr(0, 512, 0, 0));
    EXPECT_ANY_THROW(layout.addr(0, 3, 2, 0));
}

TEST(CacheChannelTest, SpyDecodesBitsViaLatencyRatio)
{
    MachineParams mp;
    mp.mem.l2 = CacheGeometry{256 * 1024, 1, 64}; // direct-mapped
    Machine m(mp);
    ChannelTiming t = fastTiming(100.0); // 25 M ticks per bit
    const Message msg = Message::fromBits(
        {true, false, true, true, false, false, true, false});

    PrimeProbeLayout layout;
    layout.numSets = 4096;
    layout.channelSets = 128;

    PrimeProbeTrojanParams tp;
    tp.timing = t;
    tp.message = msg;
    tp.layout = layout;
    m.addProcess(std::make_unique<PrimeProbeTrojan>(tp, "cache-trojan"), 0);

    PrimeProbeSpyParams sp;
    sp.timing = t;
    sp.layout = layout;
    sp.noiseEvery = 0;
    auto spy = std::make_unique<PrimeProbeSpy>(sp, "cache-spy");
    auto* raw = spy.get();
    m.addProcess(std::move(spy), 1);

    m.run(10 * t.bitTicks());
    ASSERT_GE(raw->decodedSlots().size(), 8u);
    // Skip the cold-start bit 0; bits 1..7 must decode exactly.
    for (std::size_t i = 1; i < 8; ++i)
        EXPECT_EQ(raw->decodedSlots()[i].second, msg.bit(i))
            << "bit " << i;
    // Ratios reflect the bit: > 1 for '1', < 1 for '0' (paper fig. 7).
    const auto& ratios = raw->samples();
    ASSERT_GE(ratios.size(), 8u);
    for (std::size_t i = 1; i < 8; ++i) {
        if (msg.bit(i))
            EXPECT_GT(ratios[i], 1.0) << "bit " << i;
        else
            EXPECT_LT(ratios[i], 1.0) << "bit " << i;
    }
}

PrimeProbeTrojanParams
trojanWith(const PrimeProbeLayout& layout)
{
    PrimeProbeTrojanParams tp;
    tp.timing = fastTiming();
    tp.message = Message::fromBits({true});
    tp.layout = layout;
    return tp;
}

PrimeProbeSpyParams
spyWith(const PrimeProbeLayout& layout)
{
    PrimeProbeSpyParams sp;
    sp.timing = fastTiming();
    sp.layout = layout;
    return sp;
}

/** The TLB unit's layout: 16 sets of 4 KB pages, 4 ways, 64-byte
 *  in-page slots. */
PrimeProbeLayout
tlbLayout(std::size_t channelSets)
{
    return PrimeProbeLayout{
        .numSets = 16,
        .setStride = 4096,
        .slotStride = 64,
        .channelSets = channelSets,
        .firstSet = 0,
        .primeDepth = 4,
        .probeDepth = 1,
    };
}

TEST(CacheChannelTest, OddChannelSetsThrow)
{
    PrimeProbeLayout layout;
    layout.channelSets = 511;
    EXPECT_ANY_THROW(PrimeProbeTrojan(trojanWith(layout), "cache-trojan"));
    EXPECT_ANY_THROW(PrimeProbeSpy(spyWith(layout), "cache-spy"));
}

TEST(CacheChannelTest, ChannelBeyondL2Throws)
{
    PrimeProbeLayout layout;
    layout.numSets = 64;
    layout.channelSets = 128;
    EXPECT_ANY_THROW(PrimeProbeTrojan(trojanWith(layout), "cache-trojan"));
}

TEST(CacheChannelTest, SpyRejectsSetsBeyondL2)
{
    // An out-of-range spy layout would alias wrapped sets.
    PrimeProbeLayout layout;
    layout.numSets = 64;
    layout.channelSets = 128;
    EXPECT_ANY_THROW(PrimeProbeSpy(spyWith(layout), "cache-spy"));
    layout.channelSets = 64;
    layout.firstSet = 2;
    EXPECT_ANY_THROW(PrimeProbeSpy(spyWith(layout), "cache-spy"));
    layout.firstSet = 0;
    EXPECT_NO_THROW(PrimeProbeSpy(spyWith(layout), "cache-spy"));
}

TEST(CacheChannelTest, ZeroLinesPerSetThrows)
{
    // Zero depth would build a channel that never primes or probes.
    PrimeProbeLayout layout;
    layout.primeDepth = 0;
    EXPECT_ANY_THROW(PrimeProbeTrojan(trojanWith(layout), "cache-trojan"));
    EXPECT_ANY_THROW(PrimeProbeSpy(spyWith(layout), "cache-spy"));
    layout.primeDepth = 1;
    layout.probeDepth = 0;
    EXPECT_ANY_THROW(PrimeProbeTrojan(trojanWith(layout), "cache-trojan"));
    EXPECT_ANY_THROW(PrimeProbeSpy(spyWith(layout), "cache-spy"));
}

TEST(TlbChannelTest, LayoutAddressing)
{
    PrimeProbeLayout layout = tlbLayout(8);
    layout.firstSet = 2;
    // Spy: the page of set firstSet + groupSet, in-page slot groupSet.
    EXPECT_EQ(layout.addr(0x100000, 5, 0, 5),
              0x100000 + 7 * 4096u + 5 * 64u);
    // Trojan way 3 on the same set: numSets pages further on, at slot
    // channelSets + groupSet, so the two sides never share a line.
    EXPECT_EQ(layout.addr(0, 5, 3, 8 + 5),
              (7 + 3 * 16) * 4096u + 13 * 64u);
    EXPECT_ANY_THROW(layout.addr(0, 8, 0, 0));
    EXPECT_ANY_THROW(layout.addr(0, 5, layout.primeDepth, 8 + 5));
}

TEST(TlbChannelTest, LayoutValidationAppliesToBothSides)
{
    EXPECT_NO_THROW(PrimeProbeTrojan(trojanWith(tlbLayout(16)),
                                     "tlb-trojan"));
    EXPECT_NO_THROW(PrimeProbeSpy(spyWith(tlbLayout(16)), "tlb-spy"));
    for (const std::size_t sets : {std::size_t{0}, std::size_t{7},
                                   std::size_t{18}}) {
        EXPECT_ANY_THROW(PrimeProbeTrojan(trojanWith(tlbLayout(sets)),
                                          "tlb-trojan"))
            << sets;
        EXPECT_ANY_THROW(PrimeProbeSpy(spyWith(tlbLayout(sets)),
                                       "tlb-spy"))
            << sets;
    }
}

TEST(TlbChannelTest, ZeroWaysThrows)
{
    PrimeProbeLayout layout = tlbLayout(16);
    layout.primeDepth = 0;
    EXPECT_ANY_THROW(PrimeProbeTrojan(trojanWith(layout), "tlb-trojan"));
    EXPECT_ANY_THROW(PrimeProbeSpy(spyWith(layout), "tlb-spy"));
}

TEST(TlbChannelTest, SlotsMustFitInOnePage)
{
    // 2 * 64 sets * 64-byte slots = 8 KB > one 4 KB page.
    PrimeProbeLayout layout = tlbLayout(16);
    layout.numSets = 128;
    layout.channelSets = 64;
    EXPECT_ANY_THROW(PrimeProbeTrojan(trojanWith(layout), "tlb-trojan"));
    EXPECT_ANY_THROW(PrimeProbeSpy(spyWith(layout), "tlb-spy"));
    layout.channelSets = 32;
    EXPECT_NO_THROW(PrimeProbeSpy(spyWith(layout), "tlb-spy"));
}

// ---------------------------------------------------------------------
// Action-stream pins.  Each unit's sender and spy is built through its
// registry descriptor and driven directly — no machine run — with a
// synthetic clock and scripted latencies.  The hashes cover every
// emitted action (kind plus address, op count, cycle count or sleep
// target) and the spy's samples, decoded slots and slot means, so any
// change to what a channel issues or decodes shows up here.
// ---------------------------------------------------------------------

std::uint64_t
mixHash(std::uint64_t h, std::uint64_t v)
{
    // splitmix64 finaliser over the running state.
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return h;
}

/** Latency of a timed action: a per-slot plateau (every third slot is
 *  slow, so the contention spies see both symbol levels) plus a
 *  step-seeded jitter (so the prime/probe G1/G0 ratios straddle 1). */
Cycles
scriptedLatency(const ChannelTiming& t, Tick now, std::uint64_t step)
{
    const bool slow = t.bitIndexAt(now) % 3 == 0;
    return (slow ? 520 : 180) + mixHash(step, now) % 113;
}

/** Drive `w` for `steps` actions; returns the action-stream hash. */
std::uint64_t
driveActions(Workload& w, const ChannelTiming& t, std::size_t steps)
{
    ExecView view;
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < steps; ++i) {
        const Action a = w.nextAction(view);
        h = mixHash(h, static_cast<std::uint64_t>(a.kind));
        Cycles lat = 0;
        switch (a.kind) {
          case ActionKind::Compute:
            h = mixHash(h, a.cycles);
            lat = a.cycles;
            break;
          case ActionKind::MemRead:
          case ActionKind::MemWrite:
          case ActionKind::LockedAccess:
            h = mixHash(h, a.addr);
            lat = scriptedLatency(t, view.now, i);
            break;
          case ActionKind::DivideBatch:
          case ActionKind::MultiplyBatch:
            h = mixHash(h, a.count);
            lat = scriptedLatency(t, view.now, i) / 2;
            break;
          case ActionKind::SleepUntil:
            h = mixHash(h, a.until);
            view.now = std::max(view.now + 1, a.until);
            break;
          case ActionKind::Halt:
            return mixHash(h, i);
        }
        view.now += lat;
        view.lastLatency = lat;
    }
    return h;
}

std::uint64_t
spyOutputHash(const ChannelSpy& spy)
{
    std::uint64_t h = mixHash(0, spy.samples().size());
    for (double s : spy.samples())
        h = mixHash(h, std::bit_cast<std::uint64_t>(s));
    for (const auto& [slot, bit] : spy.decodedSlots())
        h = mixHash(mixHash(h, slot), bit ? 1 : 0);
    for (const auto& [slot, mean] : spy.slotMeans())
        h = mixHash(mixHash(h, slot),
                    std::bit_cast<std::uint64_t>(mean));
    return h;
}

struct PinnedStreams
{
    std::uint64_t trojan = 0;
    std::uint64_t spy = 0;
    std::uint64_t decode = 0;
    std::size_t decodedSlots = 0;
};

PinnedStreams
runPinnedUnit(const char* unit, bool evasive)
{
    const UnitDescriptor* d = UnitRegistry::instance().byName(unit);
    EXPECT_NE(d, nullptr) << unit;
    if (d == nullptr)
        return {};
    UnitRunContext ctx;
    ctx.message = Message::fromBits(
        {true, false, true, true, false, false, true, false, true});
    ctx.timing.start = 3000;
    ctx.timing.bandwidthBps = 12500.0; // 200k ticks per bit
    ctx.timing.maxSignalTicks = 150000;
    if (evasive) {
        ctx.timing.evasion.strategy = EvasionStrategy::DutyCycle;
        ctx.timing.evasion.seed = 5;
    }
    ctx.seed = 3;
    ctx.channelSets = 64;
    ctx.linesPerSet = 2;
    ctx.cacheNoiseEvery = 5;
    ctx.cacheDormantNoiseGap = 7000;
    ctx.roundsPerBit = 2;
    ctx.tlbChannelSets = 16;
    ctx.busEvasionPeriod = evasive ? 9000 : 0;

    MachineParams mp;
    if (d->configureMachine)
        d->configureMachine(mp, ctx);
    Machine m(mp);
    d->buildWorkload(m, ctx);

    Workload* trojan = nullptr;
    Workload* spyWorkload = nullptr;
    for (const auto& p : m.scheduler().processes()) {
        if (dynamic_cast<ChannelSpy*>(&p->workload()))
            spyWorkload = &p->workload();
        else
            trojan = &p->workload();
    }
    EXPECT_NE(trojan, nullptr) << unit;
    EXPECT_NE(spyWorkload, nullptr) << unit;
    if (trojan == nullptr || spyWorkload == nullptr)
        return {};

    PinnedStreams out;
    out.trojan = driveActions(*trojan, ctx.timing, 4000);
    out.spy = driveActions(*spyWorkload, ctx.timing, 30000);
    const auto& spy = dynamic_cast<const ChannelSpy&>(*spyWorkload);
    out.decode = spyOutputHash(spy);
    out.decodedSlots = spy.decodedSlots().size();
    return out;
}

struct StreamPin
{
    const char* unit;
    bool evasive;
    std::uint64_t trojan;
    std::uint64_t spy;
    std::uint64_t decode;
    std::size_t decodedSlots;
};

TEST(ChannelActionStreamTest, EveryUnitMatchesItsPinnedStream)
{
    const StreamPin pins[] = {
        {"bus", false, 0x35cb74b27d3741c9ull, 0xcc51c209c71a5e51ull,
         0x7ba523645a10d758ull, 58},
        {"bus", true, 0x6fa48e83af1322eaull, 0x6dd81c8ec5cffa1dull,
         0x890b9821f45b3de4ull, 116},
        {"divider", false, 0xdac2a0a144c3276bull, 0x754f2a11ccd3fae7ull,
         0x12e6540d004e3b64ull, 16},
        {"divider", true, 0x8856bfd6398b9de8ull, 0xb3e3b701681edd64ull,
         0x80f77f4c3798ca18ull, 31},
        {"multiplier", false, 0x025bee1453903817ull, 0x69cf92f34937e46bull,
         0x3b5a96df438a9cffull, 16},
        {"multiplier", true, 0x9999049876561f98ull, 0x00bbea30cfdbb15aull,
         0x51852b599a239cfeull, 31},
        {"cache", false, 0x2af3eb5d34513be4ull, 0x194820622aa334d4ull,
         0x718c373679419882ull, 72},
        {"cache", true, 0xa4c36908fcb92499ull, 0xef6c98ad3d86d157ull,
         0xa315c8bf500dae7eull, 52},
        {"tlb", false, 0xd21407b3455b366bull, 0x984c426ce0f94fb9ull,
         0xe53836a560c85521ull, 833},
        {"tlb", true, 0x633ee74218e20be2ull, 0xb2f202e6ef82fec7ull,
         0x129123cd5453bdd8ull, 833},
    };
    for (const StreamPin& pin : pins) {
        const PinnedStreams got = runPinnedUnit(pin.unit, pin.evasive);
        const std::string label =
            std::string(pin.unit) + (pin.evasive ? " (evasive)" : "");
        EXPECT_GT(got.decodedSlots, 3u) << label;
        EXPECT_EQ(got.trojan, pin.trojan) << label;
        EXPECT_EQ(got.spy, pin.spy) << label;
        EXPECT_EQ(got.decode, pin.decode) << label;
        EXPECT_EQ(got.decodedSlots, pin.decodedSlots) << label;
    }
}

} // namespace
} // namespace cchunter
