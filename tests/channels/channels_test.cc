#include <gtest/gtest.h>

#include <memory>

#include "channels/bus_channel.hh"
#include "channels/cache_channel.hh"
#include "channels/divider_channel.hh"
#include "sim/machine.hh"

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

    CacheChannelLayout layout;
    layout.l2NumSets = 4096;
    layout.channelSets = 128;

    CacheTrojanParams tp;
    tp.timing = t;
    tp.message = Message::fromBits({true});
    tp.layout = layout;
    tp.roundsPerBit = 8;
    auto trojan = std::make_unique<CacheTrojan>(tp);
    auto* traw = trojan.get();
    m.addProcess(std::move(trojan), 0);

    CacheSpyParams sp;
    sp.timing = t;
    sp.layout = layout;
    sp.roundsPerBit = 8;
    sp.noiseEvery = 0;
    m.addProcess(std::make_unique<CacheSpy>(sp), 1);

    m.run(t.bitTicks());
    // 8 rounds x 64 sets primed per round.
    EXPECT_NEAR(static_cast<double>(traw->primesIssued()), 8.0 * 64.0,
                64.0);
}

TEST(CacheChannelTest, LayoutAddressing)
{
    CacheChannelLayout layout;
    layout.l2NumSets = 4096;
    layout.channelSets = 512;
    EXPECT_EQ(layout.setsPerGroup(), 256u);
    // G1 set 0 and G0 set 0 are channelSets/2 sets apart.
    const Addr g1 = layout.addrFor(0, true, 0, 0);
    const Addr g0 = layout.addrFor(0, false, 0, 0);
    EXPECT_EQ(g0 - g1, 256u * 64u);
    // Lines with the same idx share the set: stride = sets * lineSize.
    layout.linesPerSet = 2;
    const Addr l1 = layout.addrFor(0, true, 3, 1);
    EXPECT_EQ(l1, 3 * 64 + 4096 * 64u);
    EXPECT_ANY_THROW(layout.addrFor(0, true, 300, 0));
}

TEST(CacheChannelTest, SpyDecodesBitsViaLatencyRatio)
{
    MachineParams mp;
    mp.mem.l2 = CacheGeometry{256 * 1024, 1, 64}; // direct-mapped
    Machine m(mp);
    ChannelTiming t = fastTiming(100.0); // 25 M ticks per bit
    const Message msg = Message::fromBits(
        {true, false, true, true, false, false, true, false});

    CacheChannelLayout layout;
    layout.l2NumSets = 4096;
    layout.channelSets = 128;

    CacheTrojanParams tp;
    tp.timing = t;
    tp.message = msg;
    tp.layout = layout;
    m.addProcess(std::make_unique<CacheTrojan>(tp), 0);

    CacheSpyParams sp;
    sp.timing = t;
    sp.layout = layout;
    sp.noiseEvery = 0;
    auto spy = std::make_unique<CacheSpy>(sp);
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

TEST(CacheChannelTest, OddChannelSetsThrow)
{
    CacheTrojanParams tp;
    tp.timing = fastTiming();
    tp.message = Message::fromBits({true});
    tp.layout.channelSets = 511;
    EXPECT_ANY_THROW(CacheTrojan{tp});
}

TEST(CacheChannelTest, ChannelBeyondL2Throws)
{
    CacheTrojanParams tp;
    tp.timing = fastTiming();
    tp.message = Message::fromBits({true});
    tp.layout.l2NumSets = 64;
    tp.layout.channelSets = 128;
    EXPECT_ANY_THROW(CacheTrojan{tp});
}

} // namespace
} // namespace cchunter
