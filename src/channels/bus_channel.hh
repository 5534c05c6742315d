/**
 * @file
 * The memory-bus covert timing channel (paper section IV-A).
 *
 * To transmit '1' the trojan repeatedly performs atomic unaligned
 * accesses spanning two cache lines; each asserts the bus lock and puts
 * the bus in a contended state.  To transmit '0' it leaves the bus
 * idle.  The spy continuously generates cache misses and times them:
 * inflated average latency within a bit slot decodes as '1'.
 */

#ifndef CCHUNTER_CHANNELS_BUS_CHANNEL_HH
#define CCHUNTER_CHANNELS_BUS_CHANNEL_HH

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

/** Configuration of the bus trojan. */
struct BusTrojanParams
{
    ChannelTiming timing;
    Message message;
    bool repeat = true;        //!< retransmit the message cyclically
    Cycles lockPeriod = 5000;  //!< spacing between locked accesses
    Addr addrBase = 0x10000000; //!< trojan-private address region
    /**
     * Evasion attempt (paper section III): while *not* signalling, the
     * trojan emits decoy locks with this mean spacing (0 disables),
     * jittered randomly, hoping to drown the burst pattern.  The
     * paper's point — reproduced by bench_ext_evasion — is that the
     * decoys corrupt the spy's decoding long before they blur the
     * detector's statistics.
     */
    Cycles evasionLockPeriod = 0;
    std::uint64_t seed = 17;   //!< evasion jitter stream
};

/**
 * The transmitting side of the bus channel.
 */
class BusTrojan : public Workload
{
  public:
    explicit BusTrojan(BusTrojanParams params);

    Action nextAction(const ExecView& view) override;
    std::string name() const override { return "bus-trojan"; }

    /** Locked accesses issued so far. */
    std::uint64_t locksIssued() const { return locksIssued_; }

    /** Bits whose signal window has begun. */
    std::size_t bitsSignalled() const { return bitsSignalled_; }

  private:
    Addr nextUnalignedAddr();

    BusTrojanParams params_;
    Rng rng_;
    Tick nextDecoyAt_ = 0;
    Tick nextLockAt_ = 0;
    std::size_t lastBit_ = SIZE_MAX;
    std::uint64_t locksIssued_ = 0;
    std::size_t bitsSignalled_ = 0;
    unsigned addrCursor_ = 0;
};

/** Configuration of the bus spy. */
struct BusSpyParams
{
    ChannelTiming timing;       //!< must match the trojan's timing
    std::size_t sampleAccesses = 32; //!< misses averaged per sample
    Cycles decodeThreshold = 450;    //!< fallback mean separating 0 / 1
    /**
     * Self-calibrating decode: once the observed slot means span a
     * sufficient range, the threshold becomes their midpoint (real
     * spies calibrate against the live baseline, which shifts with
     * background load).
     */
    bool adaptiveDecode = true;
    Addr addrBase = 0x20000000;      //!< spy-private streaming region
    std::size_t regionBytes = 8 * 1024 * 1024;
    std::size_t maxBits = 0;  //!< stop after N bits (0 = run forever)
};

/**
 * The receiving side: times memory accesses to sense bus contention.
 */
class BusSpy : public Workload, public ChannelSpy
{
  public:
    explicit BusSpy(BusSpyParams params);

    Action nextAction(const ExecView& view) override;
    std::string name() const override { return "bus-spy"; }

    /** Average-latency samples (the series of paper figure 2). */
    const std::vector<double>& samples() const override
    {
        return samples_;
    }

    /** Bits decoded so far. */
    Message decoded() const override;

    /** (bit-slot index, decoded value) pairs, in decode order. */
    const std::vector<std::pair<std::size_t, bool>>& decodedSlots()
        const override
    {
        return decodedSlots_;
    }

    /** (bit-slot index, mean observed latency) pairs, per decoded
     *  slot. */
    const std::vector<std::pair<std::size_t, double>>& slotMeans()
        const override
    {
        return slotMeans_;
    }

  private:
    void finishSlot();
    double currentThreshold() const;

    BusSpyParams params_;
    std::vector<double> samples_;
    std::vector<std::pair<std::size_t, bool>> decodedSlots_;
    std::vector<std::pair<std::size_t, double>> slotMeans_;
    double minSlotMean_ = 0.0;
    double maxSlotMean_ = 0.0;
    bool haveSlotMeans_ = false;
    bool pendingMeasure_ = false;
    double sampleSum_ = 0.0;
    std::size_t sampleCount_ = 0;
    double slotSum_ = 0.0;
    std::size_t slotCount_ = 0;
    std::size_t currentSlot_ = 0;
    std::uint64_t addrCursor_ = 0;
    bool done_ = false;
};

} // namespace cchunter

#endif // CCHUNTER_CHANNELS_BUS_CHANNEL_HH
