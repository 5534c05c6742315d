#include "mem/mem_system.hh"

#include <bit>
#include <string>

#include "util/logging.hh"

namespace cchunter
{

MemSystem::MemSystem(MemSystemParams params)
    : params_(params), bus_(params.bus), dram_(params.dram)
{
    if (params_.numCores == 0 || params_.threadsPerCore == 0)
        fatal("MemSystem: need at least one core and one thread");
    if (params_.threadsPerCore > 8)
        fatal("MemSystem: at most 8 threads per core (one L1-presence "
              "bit each), got ", params_.threadsPerCore);
    const unsigned contexts = numContexts();
    if (contexts > 8)
        warn("MemSystem: more than 8 contexts; the paper's 3-bit owner "
             "metadata would not suffice");
    for (unsigned c = 0; c < contexts; ++c)
        l1s_.push_back(std::make_unique<Cache>(
            "l1." + std::to_string(c), params_.l1));
    for (unsigned c = 0; c < params_.numCores; ++c)
        l2s_.push_back(std::make_unique<Cache>(
            "l2." + std::to_string(c), params_.l2));
    l2Blocks_ = params_.l2.numBlocks();
    l1Presence_.assign(params_.numCores * l2Blocks_, 0);
    if (params_.tlb.enabled)
        for (unsigned c = 0; c < params_.numCores; ++c)
            tlbs_.push_back(std::make_unique<Tlb>(
                "tlb." + std::to_string(c), params_.tlb));
}

Tlb&
MemSystem::tlb(unsigned core)
{
    if (core >= tlbs_.size())
        panic("MemSystem::tlb: TLBs disabled or core out of range");
    return *tlbs_[core];
}

void
MemSystem::translate(MemAccessOutcome& out, unsigned core,
                     ContextId ctx, Addr addr, Tick now)
{
    if (tlbs_.empty())
        return;
    const TlbOutcome t = tlbs_[core]->translate(addr, ctx, now);
    out.tlbWalkCycles += t.latency;
    out.latency += t.latency;
}

void
MemSystem::trackL2(unsigned core, ContextId ctx, const CacheAccessResult& r2)
{
    const unsigned first = core * params_.threadsPerCore;
    const auto self = static_cast<std::uint8_t>(1u << (ctx - first));
    std::uint8_t& present = l1Presence_[core * l2Blocks_ + r2.block];
    if (r2.hit) {
        present |= self;
        return;
    }
    if (r2.evicted)
        for (unsigned bits = present; bits != 0; bits &= bits - 1)
            l1s_[first + std::countr_zero(bits)]->invalidate(
                r2.evictedLineAddr);
    present = self;
}

Cache&
MemSystem::l1(ContextId ctx)
{
    if (ctx >= l1s_.size())
        panic("MemSystem::l1: context out of range");
    return *l1s_[ctx];
}

Cache&
MemSystem::l2(unsigned core)
{
    if (core >= l2s_.size())
        panic("MemSystem::l2: core out of range");
    return *l2s_[core];
}

Cache&
MemSystem::l2ForContext(ContextId ctx)
{
    return l2(coreOf(ctx));
}

MemAccessOutcome
MemSystem::access(ContextId ctx, Addr addr, bool write, Tick now)
{
    MemAccessOutcome out;
    Cache& l1c = l1(ctx);
    const unsigned core = coreOf(ctx);
    Cache& l2c = l2(core);

    // Address translation precedes the cache lookup; a TLB miss adds
    // the page-walk latency on top of whatever the hierarchy charges.
    translate(out, core, ctx, addr, now);

    const CacheAccessResult r1 = l1c.access(addr, ctx, now);
    if (r1.hit) {
        out.l1Hit = true;
        out.latency += params_.l1HitCycles;
        return out;
    }
    // L1 miss: evicted L1 lines need no write-back handling in this
    // timing model.  An L2 fill may evict another line, which
    // inclusion invalidates in this core's L1s.
    const CacheAccessResult r2 = l2c.access(addr, ctx, now);
    trackL2(core, ctx, r2);
    if (r2.hit) {
        out.l2Hit = true;
        out.latency += params_.l1HitCycles + params_.l2HitCycles;
        return out;
    }
    // Fetch from DRAM across the shared bus.
    const Tick bus_done = bus_.transfer(ctx, now);
    const Cycles dram_lat = dram_.access(addr);
    const Tick done = bus_done + dram_lat;
    out.latency += static_cast<Cycles>(done - now) +
                   params_.l2HitCycles + params_.l1HitCycles;
    return out;
}

MemAccessOutcome
MemSystem::lockedAccess(ContextId ctx, Addr addr, Tick now)
{
    MemAccessOutcome out;
    // Touch both lines the unaligned access spans so that the cache
    // state reflects the two-line footprint.
    Cache& l1c = l1(ctx);
    const unsigned core = coreOf(ctx);
    Cache& l2c = l2(core);
    const Addr second = addr + l1c.geometry().lineSize;
    translate(out, core, ctx, addr, now);
    if (!tlbs_.empty() &&
        tlbs_[core]->pageNumber(second) != tlbs_[core]->pageNumber(addr))
        translate(out, core, ctx, second, now);
    for (Addr a : {addr, second}) {
        l1c.access(a, ctx, now);
        trackL2(core, ctx, l2c.access(a, ctx, now));
    }
    // The locked transaction itself: exclusive bus ownership.
    const Tick done = bus_.lockedTransfer(ctx, now);
    const Cycles dram_lat = dram_.access(addr);
    out.latency += static_cast<Cycles>(done - now) + dram_lat;
    return out;
}

} // namespace cchunter
