#include "mem/tlb.hh"

#include <bit>

#include "util/logging.hh"

namespace cchunter
{

Tlb::Tlb(std::string name, TlbParams params)
    : name_(std::move(name)), params_(params)
{
    if (params_.entries == 0 || params_.associativity == 0 ||
        params_.pageBytes == 0)
        fatal("Tlb ", name_, ": zero entries, associativity or page "
              "size");
    if (params_.entries % params_.associativity != 0)
        fatal("Tlb ", name_,
              ": entries must be a multiple of associativity");
    if (params_.pageBytes < 2 || !std::has_single_bit(params_.pageBytes))
        fatal("Tlb ", name_, ": page size ", params_.pageBytes,
              " must be a power of two");
    if (!std::has_single_bit(params_.numSets()))
        fatal("Tlb ", name_, ": set count ", params_.numSets(),
              " must be a power of two");
    pageShift_ =
        static_cast<unsigned>(std::countr_zero(params_.pageBytes));
    setMask_ = params_.numSets() - 1;
    pages_.assign(params_.entries, invalidPage);
    ages_.assign(params_.entries, 0);
    owners_.assign(params_.entries, invalidContext);
}

TlbOutcome
Tlb::translate(Addr addr, ContextId ctx, Tick now)
{
    TlbOutcome out;
    const std::uint64_t page = pageNumber(addr);
    const std::size_t base = setIndex(addr) * params_.associativity;
    const std::size_t end = base + params_.associativity;

    // One pass, as in Cache::access: the hit, else the first
    // minimum-age way (the first invalid one, else the LRU one).
    std::size_t victim = base;
    for (std::size_t e = base; e < end; ++e) {
        if (pages_[e] == page) {
            ages_[e] = ++useCounter_;
            owners_[e] = ctx;
            ++hits_;
            out.hit = true;
            return out;
        }
        if (ages_[e] < ages_[victim])
            victim = e;
    }

    // Miss: walk the page table and fill.  A displacement of another
    // context's entry is the auditable conflict.
    ++misses_;
    out.latency = params_.missCycles;
    if (pages_[victim] != invalidPage && owners_[victim] != ctx) {
        ++conflicts_;
        const TlbConflict conflict{now, ctx, owners_[victim]};
        for (const auto& listener : listeners_)
            listener(conflict);
    }
    pages_[victim] = page;
    owners_[victim] = ctx;
    ages_[victim] = ++useCounter_;
    return out;
}

bool
Tlb::probe(Addr addr) const
{
    const std::uint64_t page = pageNumber(addr);
    const std::size_t base = setIndex(addr) * params_.associativity;
    for (std::size_t e = base; e < base + params_.associativity; ++e)
        if (pages_[e] == page)
            return true;
    return false;
}

void
Tlb::flush()
{
    pages_.assign(pages_.size(), invalidPage);
    ages_.assign(ages_.size(), 0);
}

void
Tlb::addConflictListener(TlbConflictListener listener)
{
    listeners_.push_back(std::move(listener));
}

} // namespace cchunter
