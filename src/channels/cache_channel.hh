/**
 * @file
 * The shared-L2-cache covert timing channel (paper section IV-C, after
 * Xu et al.).
 *
 * Trojan and spy agree (during synchronization) on two groups of cache
 * sets, G1 and G0.  To transmit '1' the trojan visits G1 and replaces
 * the constituent blocks (evicting the spy's lines); for '0' it visits
 * G0.  The spy then probes *both* groups, timing them: the group whose
 * accesses miss (higher latency) names the transmitted bit, and the
 * probe simultaneously re-installs the spy's lines for the next round.
 *
 * Each prime step evicts a spy line (a T->S conflict miss) and each
 * probe step of the primed group re-evicts a trojan line (S->T), so the
 * labelled conflict-miss train oscillates with a period close to the
 * total number of channel sets — the signature figure 8 detects.
 */

#ifndef CCHUNTER_CHANNELS_CACHE_CHANNEL_HH
#define CCHUNTER_CHANNELS_CACHE_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "channels/channel_spy.hh"
#include "channels/message.hh"
#include "channels/timing.hh"
#include "sim/workload.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace cchunter
{

/**
 * Geometry of the agreed-on set groups, shared by both sides.
 */
struct CacheChannelLayout
{
    std::size_t l2NumSets = 4096; //!< sets in the monitored L2
    std::size_t lineSize = 64;
    std::size_t channelSets = 512; //!< total sets across G1 and G0
    std::size_t firstSet = 0;      //!< first set used by the channel
    std::size_t linesPerSet = 1;   //!< lines each side maps per set

    std::size_t
    setsPerGroup() const
    {
        return channelSets / 2;
    }

    /** Distinct lines one side touches per prime of one group. */
    std::size_t
    linesPerGroup() const
    {
        return setsPerGroup() * linesPerSet;
    }

    /**
     * Address of the `line`-th line the caller maps onto the `idx`-th
     * set of a group.  Adding multiples of (l2NumSets * lineSize)
     * changes the tag while preserving the set index.
     */
    Addr addrFor(Addr base, bool group1, std::size_t idx,
                 std::size_t line) const;
};

/** Configuration of the cache trojan. */
struct CacheTrojanParams
{
    ChannelTiming timing;
    Message message;
    CacheChannelLayout layout;
    bool repeat = true;
    Addr addrBase = 0x40000000; //!< trojan's private tag space
    /**
     * Prime/probe rounds per bit.  Reliable transmission needs "a
     * certain number of conflicts per second" (paper section VI-A):
     * both sides repeat the prime/probe cycle throughout the signal
     * window, so even one bit produces many oscillation periods.
     */
    std::size_t roundsPerBit = 1;
};

/**
 * The transmitting side of the cache channel.
 */
class CacheTrojan : public Workload
{
  public:
    explicit CacheTrojan(CacheTrojanParams params);

    Action nextAction(const ExecView& view) override;
    std::string name() const override { return "cache-trojan"; }

    std::uint64_t primesIssued() const { return primesIssued_; }

  private:
    CacheTrojanParams params_;
    std::size_t lastBit_ = SIZE_MAX;
    std::uint64_t lastRoundKey_ = UINT64_MAX;
    std::size_t primeCursor_ = 0;
    std::uint64_t primesIssued_ = 0;
};

/** Configuration of the cache spy. */
struct CacheSpyParams
{
    ChannelTiming timing;
    CacheChannelLayout layout;
    Addr addrBase = 0x80000000; //!< spy's private tag space
    Addr noiseBase = 0xc0000000; //!< "surrounding code" noise region
    /** Issue one random (noise) access every N probes; 0 disables.
     *  Models the random conflict misses of surrounding code that
     *  shift the autocorrelation peak slightly beyond the set count. */
    std::size_t noiseEvery = 0;
    /**
     * While dormant (outside the probe window), issue one random
     * "cover program" access every this-many ticks; 0 disables.  On
     * very low-bandwidth channels these accesses interleave random
     * conflict labels between the sparse signalling episodes, diluting
     * whole-series autocorrelation (the effect paper figure 11
     * counters with finer observation windows).
     */
    Tick dormantNoiseGap = 0;
    std::size_t maxBits = 0; //!< stop after N bits (0 = forever)
    std::uint64_t seed = 99;
    /** Prime/probe rounds per bit; must match the trojan's. */
    std::size_t roundsPerBit = 1;
};

/**
 * The receiving side of the cache channel (prime+probe timing).
 */
class CacheSpy : public Workload, public ChannelSpy
{
  public:
    explicit CacheSpy(CacheSpyParams params);

    Action nextAction(const ExecView& view) override;
    std::string name() const override { return "cache-spy"; }

    /** G1/G0 access-time ratios, one per bit (paper figure 7). */
    const std::vector<double>& samples() const override
    {
        return ratios_;
    }

    Message decoded() const override;

    /** (bit-slot index, decoded value) pairs, in decode order. */
    const std::vector<std::pair<std::size_t, bool>>& decodedSlots()
        const override
    {
        return decodedSlots_;
    }

  private:
    void finishBit();

    CacheSpyParams params_;
    Rng rng_;
    std::vector<double> ratios_;
    std::vector<std::pair<std::size_t, bool>> decodedSlots_;
    std::size_t lastBit_ = SIZE_MAX;
    std::uint64_t lastRoundKey_ = UINT64_MAX;
    std::size_t probeCursor_ = 0;
    bool pendingMeasure_ = false;
    bool measuringG1_ = false;
    double g1Sum_ = 0.0;
    std::size_t g1Count_ = 0;
    double g0Sum_ = 0.0;
    std::size_t g0Count_ = 0;
    std::size_t sinceNoise_ = 0;
    Tick nextDormantRead_ = 0;
    bool done_ = false;
};

} // namespace cchunter

#endif // CCHUNTER_CHANNELS_CACHE_CHANNEL_HH
