#include "mem/cache.hh"

#include <bit>

#include "util/logging.hh"

namespace cchunter
{

Cache::Cache(std::string name, CacheGeometry geometry)
    : name_(std::move(name)), geom_(geometry)
{
    if (geom_.lineSize < 2 || !std::has_single_bit(geom_.lineSize))
        fatal("Cache ", name_, ": line size must be a power of two");
    if (geom_.associativity == 0)
        fatal("Cache ", name_, ": associativity must be positive");
    if (geom_.sizeBytes % (geom_.lineSize * geom_.associativity) != 0)
        fatal("Cache ", name_, ": size not divisible into sets");
    if (geom_.numSets() == 0)
        fatal("Cache ", name_, ": zero sets");
    if (!std::has_single_bit(geom_.numSets()))
        fatal("Cache ", name_, ": set count ", geom_.numSets(),
              " must be a power of two");
    lineShift_ = static_cast<unsigned>(std::countr_zero(geom_.lineSize));
    setMask_ = geom_.numSets() - 1;
    tags_.assign(geom_.numBlocks(), invalidTag);
    ages_.assign(geom_.numBlocks(), 0);
    owners_.assign(geom_.numBlocks(), invalidContext);
}

std::size_t
Cache::findBlock(Addr addr) const
{
    const Addr line = lineAddr(addr);
    const std::size_t base = setIndex(addr) * geom_.associativity;
    for (std::size_t b = base; b < base + geom_.associativity; ++b)
        if (tags_[b] == line)
            return b;
    return tags_.size();
}

CacheAccessResult
Cache::access(Addr addr, ContextId ctx, Tick now)
{
    CacheAccessResult result;
    const Addr line = lineAddr(addr);
    const std::size_t base = setIndex(addr) * geom_.associativity;
    const std::size_t end = base + geom_.associativity;

    // One pass: the hit, else the victim.  Invalid ways keep age 0 and
    // valid ones are aged from 1, so the first minimum-age way is the
    // first invalid way, or the least-recently-used one when the set
    // is full.
    std::size_t victim = base;
    for (std::size_t b = base; b < end; ++b) {
        if (tags_[b] == line) {
            result.hit = true;
            result.block = b;
            ages_[b] = ++useCounter_;
            owners_[b] = ctx;
            ++hits_;
            if (monitor_)
                monitor_->onAccess(b, line, ctx, now);
            return result;
        }
        if (ages_[b] < ages_[victim])
            victim = b;
    }

    // Miss: fill the victim.
    ++misses_;
    const bool had_victim = tags_[victim] != invalidTag;
    result.block = victim;
    if (had_victim) {
        result.evicted = true;
        result.evictedLineAddr = tags_[victim];
        result.evictedOwner = owners_[victim];
        ++evictions_;
    }
    if (monitor_) {
        monitor_->onMiss(line, ctx, result.evictedOwner, had_victim, now);
        if (had_victim)
            monitor_->onEvict(victim, result.evictedLineAddr,
                              result.evictedOwner, now);
    }
    tags_[victim] = line;
    owners_[victim] = ctx;
    ages_[victim] = ++useCounter_;
    if (monitor_)
        monitor_->onAccess(victim, line, ctx, now);
    return result;
}

bool
Cache::probe(Addr addr) const
{
    return findBlock(addr) != tags_.size();
}

bool
Cache::invalidate(Addr addr)
{
    const std::size_t b = findBlock(addr);
    if (b == tags_.size())
        return false;
    tags_[b] = invalidTag;
    ages_[b] = 0;
    return true;
}

void
Cache::flush()
{
    tags_.assign(tags_.size(), invalidTag);
    ages_.assign(ages_.size(), 0);
}

ContextId
Cache::ownerOf(Addr addr) const
{
    const std::size_t b = findBlock(addr);
    return b == tags_.size() ? invalidContext : owners_[b];
}

} // namespace cchunter
