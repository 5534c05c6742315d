/**
 * @file
 * A per-core set-associative TLB model shared by the core's SMT
 * contexts, with per-entry owner metadata and a conflict hook for the
 * CC-Auditor.
 *
 * Like the caches, the TLB is purely structural: it decides hits,
 * misses and victims, and MemSystem composes the page-walk latency into
 * the access.  A fill that displaces a valid entry owned by a
 * *different* hardware context is a cross-context displacement — the
 * conflict event a TLB-set covert channel (TLBleed-style prime/probe
 * between SMT siblings) modulates, and the series the oscillation
 * detector audits.
 *
 * The TLB is disabled by default (TlbParams::enabled == false); a
 * disabled TLB adds zero latency and emits no events, so existing
 * scenarios are bit-identical.
 */

#ifndef CCHUNTER_MEM_TLB_HH
#define CCHUNTER_MEM_TLB_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "util/types.hh"

namespace cchunter
{

/** Geometry and latency configuration of one TLB. */
struct TlbParams
{
    /** Build per-core TLBs and charge walk latency when true. */
    bool enabled = false;

    /** Total entries (entries / associativity sets). */
    std::size_t entries = 256;

    std::size_t associativity = 4;

    /** Page size, a power of two like numSets(); the set index is
     *  pageNumber % numSets. */
    std::size_t pageBytes = 4096;

    /** Page-walk latency charged on a TLB miss. */
    Cycles missCycles = 30;

    std::size_t
    numSets() const
    {
        return entries / associativity;
    }
};

/** A cross-context displacement: a fill evicted another context's
 *  translation. */
struct TlbConflict
{
    Tick time = 0;
    ContextId replacer = invalidContext; //!< context requesting the fill
    ContextId victim = invalidContext;   //!< owner of the evicted entry
};

using TlbConflictListener = std::function<void(const TlbConflict&)>;

/** Outcome of one translation. */
struct TlbOutcome
{
    bool hit = false;
    Cycles latency = 0; //!< 0 on a hit, missCycles on a walk
};

/**
 * Set-associative, true-LRU TLB with per-entry owner context metadata,
 * laid out and scanned like Cache: power-of-two page size and set
 * count, separate page/age/owner arrays, one pass per translation.
 */
class Tlb
{
  public:
    /** Fatal unless the page size (at least 2) and the set count are
     *  powers of two. */
    Tlb(std::string name, TlbParams params);

    /** Translate `addr` for context `ctx`; fills on a miss. */
    TlbOutcome translate(Addr addr, ContextId ctx, Tick now);

    /** @return true if the page's translation is resident. */
    bool probe(Addr addr) const;

    /** Invalidate every entry (e.g. a full TLB shootdown). */
    void flush();

    /** Observe cross-context displacements. */
    void addConflictListener(TlbConflictListener listener);

    const std::string& name() const { return name_; }
    const TlbParams& params() const { return params_; }
    std::size_t numSets() const { return params_.numSets(); }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t conflicts() const { return conflicts_; }

    /** Page number of a byte address. */
    std::uint64_t
    pageNumber(Addr addr) const
    {
        return addr >> pageShift_;
    }

    /** Set index of a byte address. */
    std::size_t
    setIndex(Addr addr) const
    {
        return static_cast<std::size_t>(pageNumber(addr)) & setMask_;
    }

  private:
    /** Page of an invalid entry; no address has this page number. */
    static constexpr std::uint64_t invalidPage =
        std::numeric_limits<std::uint64_t>::max();

    std::string name_;
    TlbParams params_;
    unsigned pageShift_ = 0;
    std::size_t setMask_ = 0;
    // Set-major entry storage, one array per field.
    std::vector<std::uint64_t> pages_; //!< page number or invalidPage
    std::vector<std::uint64_t> ages_;  //!< use sequence; 0 when invalid
    std::vector<ContextId> owners_;
    std::vector<TlbConflictListener> listeners_;
    std::uint64_t useCounter_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t conflicts_ = 0;
};

} // namespace cchunter

#endif // CCHUNTER_MEM_TLB_HH
