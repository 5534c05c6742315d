/**
 * @file
 * The memory hierarchy: per-context L1s, per-core shared L2s (shared by
 * the core's SMT contexts), a single shared memory bus, and DRAM.
 *
 * The L2 is inclusive of its L1s: when the L2 evicts a line it
 * back-invalidates the copies in the core's L1s, so an L2 conflict
 * eviction (the cache covert channel's mechanism) is observable by the
 * victim as a full miss.  Each L2 block carries one L1-presence bit per
 * SMT thread, a superset of the L1s that hold its line, so a
 * back-invalidation visits only those L1s.  The superset holds because
 * every L1 fill goes through access() or lockedAccess(); the l1() and
 * l2() references are for monitors and statistics, not for fills.
 */

#ifndef CCHUNTER_MEM_MEM_SYSTEM_HH
#define CCHUNTER_MEM_MEM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/memory_bus.hh"
#include "mem/tlb.hh"
#include "util/types.hh"

namespace cchunter
{

/** Latency and geometry configuration for the hierarchy. */
struct MemSystemParams
{
    unsigned numCores = 4;
    unsigned threadsPerCore = 2;
    CacheGeometry l1{32 * 1024, 8, 64};
    CacheGeometry l2{256 * 1024, 8, 64};
    Cycles l1HitCycles = 2;
    Cycles l2HitCycles = 12;
    BusParams bus;
    DramParams dram;

    /** Per-core TLB shared by the core's SMT contexts; disabled by
     *  default so existing scenarios see no timing change. */
    TlbParams tlb;
};

/** Outcome of one memory access through the hierarchy. */
struct MemAccessOutcome
{
    Cycles latency = 0;
    bool l1Hit = false;
    bool l2Hit = false;
    Cycles tlbWalkCycles = 0; //!< walk latency included in `latency`

    bool
    missedAll() const
    {
        return !l1Hit && !l2Hit;
    }
};

/**
 * The full memory hierarchy shared by all cores.
 */
class MemSystem
{
  public:
    explicit MemSystem(MemSystemParams params = {});

    /** Regular load/store at `addr` by hardware context `ctx`. */
    MemAccessOutcome access(ContextId ctx, Addr addr, bool write,
                            Tick now);

    /**
     * Atomic unaligned access spanning two lines: touches both lines
     * and asserts the bus lock.
     */
    MemAccessOutcome lockedAccess(ContextId ctx, Addr addr, Tick now);

    /** The L1 cache private to a hardware context. */
    Cache& l1(ContextId ctx);

    /** The L2 cache shared by a core's contexts. */
    Cache& l2(unsigned core);

    /** The L2 serving a given hardware context. */
    Cache& l2ForContext(ContextId ctx);

    MemoryBus& bus() { return bus_; }
    Dram& dram() { return dram_; }

    /** True when per-core TLBs are modelled. */
    bool tlbEnabled() const { return !tlbs_.empty(); }

    /** The TLB shared by a core's contexts (TLBs must be enabled). */
    Tlb& tlb(unsigned core);

    unsigned numCores() const { return params_.numCores; }
    unsigned numContexts() const
    {
        return params_.numCores * params_.threadsPerCore;
    }

    /** Core owning a hardware context. */
    unsigned
    coreOf(ContextId ctx) const
    {
        return ctx / params_.threadsPerCore;
    }

    const MemSystemParams& params() const { return params_; }

  private:
    MemSystemParams params_;
    /** Translate `addr` and charge walk cycles into `out`. */
    void translate(MemAccessOutcome& out, unsigned core, ContextId ctx,
                   Addr addr, Tick now);

    /** Account for `ctx`'s access `r2` to its core's L2: set its
     *  presence bit on a hit; on a fill, back-invalidate the victim
     *  from the L1s whose bit is set, then leave only `ctx`'s bit. */
    void trackL2(unsigned core, ContextId ctx, const CacheAccessResult& r2);

    std::vector<std::unique_ptr<Cache>> l1s_; //!< one per context
    std::vector<std::unique_ptr<Cache>> l2s_; //!< one per core
    std::vector<std::unique_ptr<Tlb>> tlbs_;  //!< per core, if enabled
    /** Per L2 block, core-major: bit t set when thread t's L1 may hold
     *  the block's line. */
    std::vector<std::uint8_t> l1Presence_;
    std::size_t l2Blocks_ = 0;
    MemoryBus bus_;
    Dram dram_;
};

} // namespace cchunter

#endif // CCHUNTER_MEM_MEM_SYSTEM_HH
