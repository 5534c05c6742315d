/**
 * @file
 * The shared-TLB covert timing channel (TLBleed-style prime/probe
 * between SMT siblings sharing a per-core TLB).
 *
 * Trojan and spy agree on two groups of TLB sets, G1 and G0.  To
 * transmit '1' the trojan touches one page per way in every set of G1,
 * filling those sets and displacing the spy's translations; for '0' it
 * fills G0.  The spy keeps one page resident per set of both groups and
 * probes them each round, timing the accesses: the group whose
 * translations walk (higher latency) names the transmitted bit, and the
 * probe re-installs the spy's entries for the next round.
 *
 * Every trojan fill that displaces a spy translation is a T->S
 * cross-context displacement and every probe of the primed group
 * re-displaces a trojan entry (S->T), so the labelled conflict train
 * oscillates with a period close to the number of channel sets —
 * the same signature the cache channel exhibits, on a different shared
 * structure.
 *
 * Addresses are laid out so each page additionally owns a distinct
 * cache-line slot inside the page (spy slots disjoint from trojan
 * slots), keeping the probe working set L1-resident and the timing
 * difference purely TLB-induced.
 */

#ifndef CCHUNTER_CHANNELS_TLB_CHANNEL_HH
#define CCHUNTER_CHANNELS_TLB_CHANNEL_HH

#include <cstdint>
#include <utility>
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
 * Geometry of the agreed-on TLB set groups, shared by both sides.
 */
struct TlbChannelLayout
{
    std::size_t tlbNumSets = 64; //!< sets in the monitored TLB
    std::size_t tlbWays = 4;     //!< associativity (trojan fill depth)
    std::size_t pageBytes = 4096;
    std::size_t lineBytes = 64;   //!< cache-line slot stride
    std::size_t channelSets = 32; //!< total sets across G1 and G0
    std::size_t firstSet = 0;     //!< first TLB set used

    std::size_t
    setsPerGroup() const
    {
        return channelSets / 2;
    }

    /** Pages the trojan touches per prime of one group. */
    std::size_t
    pagesPerGroup() const
    {
        return setsPerGroup() * tlbWays;
    }

    /**
     * Address of the trojan's `way`-th page mapped onto the `idx`-th
     * set of a group.  Adding multiples of (tlbNumSets * pageBytes)
     * changes the page while preserving the TLB set index.
     */
    Addr trojanAddr(Addr base, bool group1, std::size_t idx,
                    std::size_t way) const;

    /** Address of the spy's single resident page for the `idx`-th set
     *  of a group. */
    Addr spyAddr(Addr base, bool group1, std::size_t idx) const;

    void validate(const char* who) const;
};

/** Configuration of the TLB trojan. */
struct TlbTrojanParams
{
    ChannelTiming timing;
    Message message;
    TlbChannelLayout layout;
    bool repeat = true;
    Addr addrBase = 0x40000000; //!< trojan's private page space
    /** Prime/probe rounds per bit (see CacheTrojanParams). */
    std::size_t roundsPerBit = 1;
};

/**
 * The transmitting side of the TLB channel.
 */
class TlbTrojan : public Workload
{
  public:
    explicit TlbTrojan(TlbTrojanParams params);

    Action nextAction(const ExecView& view) override;
    std::string name() const override { return "tlb-trojan"; }

    std::uint64_t primesIssued() const { return primesIssued_; }

  private:
    TlbTrojanParams params_;
    std::uint64_t lastRoundKey_ = UINT64_MAX;
    std::size_t primeCursor_ = 0;
    std::uint64_t primesIssued_ = 0;
};

/** Configuration of the TLB spy. */
struct TlbSpyParams
{
    ChannelTiming timing;
    TlbChannelLayout layout;
    Addr addrBase = 0x80000000;  //!< spy's private page space
    Addr noiseBase = 0xc0000000; //!< "surrounding code" noise region
    /** Issue one random (noise) access every N probes; 0 disables. */
    std::size_t noiseEvery = 0;
    /** Dormant-phase cover-program read gap in ticks; 0 disables. */
    Tick dormantNoiseGap = 0;
    std::size_t maxBits = 0; //!< stop after N bits (0 = forever)
    std::uint64_t seed = 99;
    /** Prime/probe rounds per bit; must match the trojan's. */
    std::size_t roundsPerBit = 1;
};

/**
 * The receiving side of the TLB channel (prime+probe timing).
 */
class TlbSpy : public Workload, public ChannelSpy
{
  public:
    explicit TlbSpy(TlbSpyParams params);

    Action nextAction(const ExecView& view) override;
    std::string name() const override { return "tlb-spy"; }

    /** G1/G0 access-time ratios, one per bit. */
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

    TlbSpyParams params_;
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

#endif // CCHUNTER_CHANNELS_TLB_CHANNEL_HH
