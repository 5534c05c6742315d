/**
 * @file
 * The prime+probe covert timing channel, over any set-indexed shared
 * structure: the shared L2 (paper section IV-C, after Xu et al.) and
 * the per-core TLB (TLBleed-style, between SMT siblings).
 *
 * Trojan and spy agree (during synchronization) on two groups of sets,
 * G1 and G0.  To transmit '1' the trojan fills every set of G1 —
 * primeDepth lines (cache) or pages (TLB) per set — evicting the spy's
 * entries; for '0' it fills G0.  The spy then probes *both* groups,
 * timing them: the group whose accesses miss (higher latency) names the
 * transmitted bit, and the probe re-installs the spy's entries for the
 * next round.
 *
 * Each prime step evicts a spy entry (a T->S conflict) and each probe
 * step of the primed group re-evicts a trojan entry (S->T), so the
 * labelled conflict train oscillates with a period close to the number
 * of channel sets — the signature figure 8 detects.
 *
 * A unit differs from another only in its PrimeProbeLayout.  Every
 * address is
 *
 *     base + (set + depth * numSets) * setStride + slot * slotStride
 *
 * where set = firstSet + groupSet, groupSet in [0, channelSets) indexes
 * G1 then G0, depth selects the line/page mapped onto that set (adding
 * numSets * setStride changes the tag and keeps the set index), and the
 * in-page slot is groupSet for the spy and channelSets + groupSet for
 * the trojan.  With slotStride = 64 the two sides never share a cache
 * line, so a TLB probe's latency difference is purely TLB-induced.
 */

#ifndef CCHUNTER_CHANNELS_PRIME_PROBE_HH
#define CCHUNTER_CHANNELS_PRIME_PROBE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "channels/channel_spy.hh"
#include "channels/message.hh"
#include "channels/timing.hh"
#include "sim/workload.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace cchunter
{

/**
 * Geometry of the agreed-on set groups, shared by both sides.  The
 * defaults are the paper's cache channel on a direct-mapped 256 KB L2.
 */
struct PrimeProbeLayout
{
    std::size_t numSets = 4096;    //!< sets in the monitored structure
    std::size_t setStride = 64;    //!< bytes between adjacent sets
    std::size_t slotStride = 0;    //!< in-page slot stride (0 = none)
    std::size_t channelSets = 512; //!< total sets across G1 and G0
    std::size_t firstSet = 0;      //!< first set used by the channel
    std::size_t primeDepth = 1;    //!< entries the trojan fills per set
    std::size_t probeDepth = 1;    //!< entries the spy probes per set

    std::size_t
    setsPerGroup() const
    {
        return channelSets / 2;
    }

    /** Address of entry `depth` on channel set `groupSet` at in-page
     *  slot `slot` (see the file comment).  Panics on a set or depth
     *  outside the layout. */
    Addr
    addr(Addr base, std::size_t groupSet, std::size_t depth,
         std::size_t slot) const
    {
        if (groupSet >= channelSets)
            panic("PrimeProbeLayout: set index out of range");
        if (depth >= std::max(primeDepth, probeDepth))
            panic("PrimeProbeLayout: depth index out of range");
        const Addr set = firstSet + groupSet;
        return base + (set + depth * numSets) * setStride +
               slot * slotStride;
    }

    /** Fatal, naming `who`, unless the sets are even, >= 2 and inside
     *  the structure, both depths are positive and, with slots, both
     *  sides' slots fit in one page. */
    void validate(const std::string& who) const;
};

/** Configuration of the prime+probe trojan. */
struct PrimeProbeTrojanParams
{
    ChannelTiming timing;
    Message message;
    PrimeProbeLayout layout;
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
 * The transmitting side: fills G1 or G0 during the first half of each
 * round.
 */
class PrimeProbeTrojan : public Workload
{
  public:
    /** @param name workload name, e.g. "cache-trojan". */
    PrimeProbeTrojan(PrimeProbeTrojanParams params, std::string name);

    Action nextAction(const ExecView& view) override;
    std::string name() const override { return name_; }

    std::uint64_t primesIssued() const { return primesIssued_; }

  private:
    PrimeProbeTrojanParams params_;
    std::string name_;
    std::uint64_t lastRoundKey_ = UINT64_MAX;
    std::size_t primeCursor_ = 0;
    std::uint64_t primesIssued_ = 0;
};

/** Configuration of the prime+probe spy. */
struct PrimeProbeSpyParams
{
    ChannelTiming timing;
    PrimeProbeLayout layout;
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
    std::uint64_t seed = 99;
    /** Prime/probe rounds per bit; must match the trojan's. */
    std::size_t roundsPerBit = 1;
};

/**
 * The receiving side: probes G1 then G0 during the second half of each
 * round and decodes each bit from the G1/G0 mean-latency ratio.
 */
class PrimeProbeSpy : public Workload, public ChannelSpy
{
  public:
    /** @param name workload name, e.g. "cache-spy". */
    PrimeProbeSpy(PrimeProbeSpyParams params, std::string name);

    Action nextAction(const ExecView& view) override;
    std::string name() const override { return name_; }

    /** G1/G0 access-time ratios, one per bit (paper figure 7). */
    const std::vector<double>& samples() const override
    {
        return ratios_;
    }

    const std::vector<std::pair<std::size_t, bool>>& decodedSlots()
        const override
    {
        return decodedSlots_;
    }

  private:
    void finishBit();

    PrimeProbeSpyParams params_;
    std::string name_;
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
};

} // namespace cchunter

#endif // CCHUNTER_CHANNELS_PRIME_PROBE_HH
