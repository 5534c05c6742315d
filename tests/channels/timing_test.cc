#include <gtest/gtest.h>

#include <algorithm>

#include "channels/timing.hh"
#include "util/rng.hh"

namespace cchunter
{
namespace
{

/**
 * The schedule written field by field, each field re-deriving the bit
 * period: the oracle for ChannelTiming::slotAt.
 */
struct PerFieldSchedule
{
    const ChannelTiming& t;

    Tick
    bitStart(std::size_t i) const
    {
        return t.start + static_cast<Tick>(i) * t.bitTicks();
    }

    Tick
    activeTicks(std::size_t i) const
    {
        if (t.evasion.strategy != EvasionStrategy::DutyCycle)
            return t.signalTicks();
        const double duty =
            t.evasion.dutyMin +
            t.evasion.bitUnit(i) * (t.evasion.dutyMax - t.evasion.dutyMin);
        const double active = static_cast<double>(t.signalTicks()) * duty;
        return std::max<Tick>(1, static_cast<Tick>(active));
    }

    Tick
    signalStart(std::size_t i) const
    {
        if (t.evasion.strategy != EvasionStrategy::RandomGaps &&
            t.evasion.strategy != EvasionStrategy::LowAndSlow)
            return bitStart(i);
        const Tick slot = t.bitTicks();
        const Tick active = activeTicks(i);
        const Tick slack = slot > active ? slot - active : 0;
        const double span =
            static_cast<double>(slack) * t.evasion.gapJitter;
        return bitStart(i) +
               static_cast<Tick>(span * t.evasion.bitUnit(i));
    }

    Tick
    signalEnd(std::size_t i) const
    {
        return signalStart(i) + activeTicks(i);
    }
};

/** The slot of bit i, queried at its first tick. */
BitSlot
slotOf(const ChannelTiming& t, std::size_t i)
{
    return t.slotAt(t.start + static_cast<Tick>(i) * t.bitTicks());
}

Tick
activeTicks(const BitSlot& s)
{
    return s.signalEnd - s.signalStart;
}

/** @return true when `now` lies inside its bit's signal window. */
bool
inSignalWindow(const ChannelTiming& t, Tick now)
{
    const BitSlot s = t.slotAt(now);
    return now >= t.start && now >= s.signalStart && now < s.signalEnd;
}

TEST(ChannelTimingTest, BitTicksFromBandwidth)
{
    ChannelTiming t;
    t.bandwidthBps = 10.0;
    // 2.5 GHz / 10 bps = 250 M ticks per bit.
    EXPECT_EQ(t.bitTicks(), 250000000u);
    t.bandwidthBps = 1000.0;
    EXPECT_EQ(t.bitTicks(), 2500000u);
}

TEST(ChannelTimingTest, SignalWindowCapped)
{
    ChannelTiming t;
    t.bandwidthBps = 0.1; // 25 G ticks per bit
    t.maxSignalTicks = 25000000;
    EXPECT_EQ(t.signalTicks(), 25000000u);
    t.maxSignalTicks = 0;
    EXPECT_EQ(t.signalTicks(), t.bitTicks());
}

TEST(ChannelTimingTest, SignalCapAboveBitClamps)
{
    ChannelTiming t;
    t.bandwidthBps = 1000.0; // 2.5 M per bit
    t.maxSignalTicks = 25000000;
    EXPECT_EQ(t.signalTicks(), t.bitTicks());
}

TEST(ChannelTimingTest, BitIndexing)
{
    ChannelTiming t;
    t.start = 1000;
    t.bandwidthBps = 1000.0; // bit = 2.5M
    EXPECT_EQ(t.bitIndexAt(0), 0u);
    EXPECT_EQ(t.bitIndexAt(1000), 0u);
    EXPECT_EQ(t.bitIndexAt(1000 + 2500000 - 1), 0u);
    EXPECT_EQ(t.bitIndexAt(1000 + 2500000), 1u);
    EXPECT_EQ(t.slotAt(1000 + 2 * 2500000).nextStart,
              1000u + 3 * 2500000u);
}

TEST(ChannelTimingTest, InSignalWindow)
{
    ChannelTiming t;
    t.start = 0;
    t.bandwidthBps = 10.0;     // bit = 250M
    t.maxSignalTicks = 1000000; // 1M signal window
    EXPECT_TRUE(inSignalWindow(t, 0));
    EXPECT_TRUE(inSignalWindow(t, 999999));
    EXPECT_FALSE(inSignalWindow(t, 1000000));
    EXPECT_TRUE(inSignalWindow(t, 250000000));
}

TEST(ChannelTimingTest, InvalidBandwidthThrows)
{
    ChannelTiming t;
    t.bandwidthBps = 0.0;
    EXPECT_ANY_THROW(t.bitTicks());
}

TEST(ChannelTimingTest, VeryHighBandwidthClampsToOneTick)
{
    ChannelTiming t;
    t.bandwidthBps = 1e12;
    EXPECT_GE(t.bitTicks(), 1u);
}

TEST(ChannelTimingTest, NonePlanIsScheduleIdentity)
{
    // A default plan must leave every query bit-identical to the
    // classic arithmetic -- the whole non-evasive stack rides on it.
    ChannelTiming t;
    t.start = 500;
    t.bandwidthBps = 1000.0;
    t.maxSignalTicks = 100000;
    for (std::size_t i = 0; i < 16; ++i) {
        const BitSlot s = slotOf(t, i);
        const Tick bit_start = t.start + i * t.bitTicks();
        EXPECT_EQ(s.index, i);
        EXPECT_EQ(s.signalStart, bit_start);
        EXPECT_EQ(activeTicks(s), t.signalTicks());
        EXPECT_EQ(s.signalEnd, bit_start + t.signalTicks());
        EXPECT_EQ(s.nextStart, bit_start + t.bitTicks());
    }
}

TEST(ChannelTimingTest, RandomGapsJitterWithinTheSlot)
{
    ChannelTiming t;
    t.bandwidthBps = 1000.0;    // bit = 2.5M
    t.maxSignalTicks = 100000;  // plenty of idle slack to jitter in
    t.evasion.strategy = EvasionStrategy::RandomGaps;
    t.evasion.seed = 7;
    bool moved = false;
    for (std::size_t i = 0; i < 64; ++i) {
        // The jittered window stays inside its own bit slot, keeps
        // the classic length, and actually moves for some bits.
        const BitSlot s = slotOf(t, i);
        const Tick bit_start = t.start + i * t.bitTicks();
        EXPECT_GE(s.signalStart, bit_start) << i;
        EXPECT_LE(s.signalEnd, s.nextStart) << i;
        EXPECT_EQ(activeTicks(s), t.signalTicks()) << i;
        moved = moved || s.signalStart != bit_start;
    }
    EXPECT_TRUE(moved);
}

TEST(ChannelTimingTest, DutyCycleDrawsWithinTheConfiguredRange)
{
    ChannelTiming t;
    t.bandwidthBps = 1000.0;
    t.evasion.strategy = EvasionStrategy::DutyCycle;
    t.evasion.seed = 11;
    t.evasion.dutyMin = 0.25;
    t.evasion.dutyMax = 0.75;
    const double window = static_cast<double>(t.signalTicks());
    bool varied = false;
    for (std::size_t i = 0; i < 64; ++i) {
        const Tick active = activeTicks(slotOf(t, i));
        EXPECT_GE(static_cast<double>(active),
                  t.evasion.dutyMin * window - 1.0)
            << i;
        EXPECT_LE(static_cast<double>(active),
                  t.evasion.dutyMax * window + 1.0)
            << i;
        varied = varied || active != activeTicks(slotOf(t, 0));
    }
    EXPECT_TRUE(varied);
}

TEST(ChannelTimingTest, LowAndSlowStretchesSlotsNotBursts)
{
    ChannelTiming classic;
    classic.bandwidthBps = 1000.0;
    classic.maxSignalTicks = 100000;
    ChannelTiming slow = classic;
    slow.evasion.strategy = EvasionStrategy::LowAndSlow;
    slow.evasion.stretch = 16;
    slow.evasion.gapJitter = 0.0; // isolate the stretch
    // The slot grows by the stretch factor; the burst length does not
    // (the rate drops, the footprint per burst stays the same).
    EXPECT_EQ(slow.bitTicks(), 16 * classic.bitTicks());
    EXPECT_EQ(slow.signalTicks(), classic.signalTicks());
    EXPECT_EQ(slotOf(slow, 0).nextStart, slow.start + slow.bitTicks());
    EXPECT_EQ(activeTicks(slotOf(slow, 0)), classic.signalTicks());
}

TEST(ChannelTimingTest, EvasionScheduleIsSeedDeterministic)
{
    // Both ends of the colluding pair derive the schedule from the
    // shared plan alone; same seed => same schedule, different seed
    // => (almost surely) a different one.
    ChannelTiming a;
    a.bandwidthBps = 1000.0;
    a.maxSignalTicks = 100000;
    a.evasion.strategy = EvasionStrategy::RandomGaps;
    a.evasion.seed = 3;
    ChannelTiming b = a;
    bool diverged = false;
    ChannelTiming c = a;
    c.evasion.seed = 4;
    for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_EQ(slotOf(a, i).signalStart, slotOf(b, i).signalStart) << i;
        EXPECT_EQ(slotOf(a, i).signalEnd, slotOf(b, i).signalEnd) << i;
        diverged =
            diverged || slotOf(a, i).signalStart != slotOf(c, i).signalStart;
    }
    EXPECT_TRUE(diverged);
}

TEST(ChannelTimingTest, SlotAtMatchesThePerFieldScheduleForEveryStrategy)
{
    for (const EvasionStrategy strategy :
         {EvasionStrategy::None, EvasionStrategy::RandomGaps,
          EvasionStrategy::DutyCycle, EvasionStrategy::LowAndSlow}) {
        ChannelTiming t;
        t.start = 12345;
        t.bandwidthBps = 1000.0;
        t.maxSignalTicks = 300000;
        t.evasion.strategy = strategy;
        t.evasion.seed = 9;
        t.evasion.stretch = 4;
        const PerFieldSchedule ref{t};
        Rng rng(static_cast<std::uint64_t>(strategy) + 1);
        for (int k = 0; k < 2000; ++k) {
            // Ticks before the start, and across the first 64 slots.
            const Tick now = rng.nextBelow(64 * t.bitTicks() + t.start);
            const BitSlot s = t.slotAt(now);
            const std::size_t i = t.bitIndexAt(now);
            ASSERT_EQ(s.index, i) << int(strategy) << " at " << now;
            ASSERT_EQ(s.signalStart, ref.signalStart(i))
                << int(strategy) << " at " << now;
            ASSERT_EQ(s.signalEnd, ref.signalEnd(i))
                << int(strategy) << " at " << now;
            ASSERT_EQ(s.nextStart, ref.bitStart(i + 1))
                << int(strategy) << " at " << now;
        }
    }
}

} // namespace
} // namespace cchunter
