#include "cache/cache.hh"

#include "common/logging.hh"

namespace trb
{

Cache::Cache(const CacheParams &params) : params_(params)
{
    std::size_t lines = params.sizeBytes / kLineBytes;
    trb_assert(params.ways >= 1 && lines % params.ways == 0,
               "cache lines must divide into ways: ", params.name);
    sets_ = lines / params.ways;
    trb_assert((sets_ & (sets_ - 1)) == 0,
               "cache set count must be a power of two: ", params.name);
    setMask_ = sets_ - 1;
    tags_.assign(lines, kInvalidTag);
    dirty_.assign(lines, 0);
    // Each policy keeps only its own replacement state.
    if (params.policy == ReplPolicy::Lru)
        lru_.assign(lines, 0);
    else
        rrpv_.assign(lines, 3);
}

std::size_t
Cache::probeSlot(Addr addr) const
{
    const std::size_t base = setBase(addr);
    const Addr tag = tagOf(addr);
    for (std::size_t s = base; s < base + params_.ways; ++s)
        if (tags_[s] == tag)
            return s;
    return kNoSlot;
}

std::size_t
Cache::accessSlot(Addr addr, bool write)
{
    ++accesses_;
    std::size_t s = probeSlot(addr);
    if (s == kNoSlot) {
        ++misses_;
        return kNoSlot;
    }
    touch(s, 0);
    if (write)
        dirty_[s] = 1;
    return s;
}

std::size_t
Cache::pickVictim(std::size_t base)
{
    const std::size_t end = base + params_.ways;
    if (params_.policy == ReplPolicy::Lru) {
        // The first free way, else the oldest stamp, in one pass.
        std::size_t victim = base;
        for (std::size_t s = base; s < end; ++s) {
            if (tags_[s] == kInvalidTag)
                return s;
            if (lru_[s] < lru_[victim])
                victim = s;
        }
        return victim;
    }

    // SRRIP: the first free way, else the first line with maximal RRPV,
    // aging the set as needed.
    for (;;) {
        std::size_t distant = kNoSlot;
        for (std::size_t s = base; s < end; ++s) {
            if (tags_[s] == kInvalidTag)
                return s;
            if (distant == kNoSlot && rrpv_[s] >= 3)
                distant = s;
        }
        if (distant != kNoSlot)
            return distant;
        for (std::size_t s = base; s < end; ++s)
            ++rrpv_[s];
    }
}

std::size_t
Cache::insert(Addr addr, bool write, bool prefetched, Eviction *evicted)
{
#ifndef NDEBUG
    trb_assert(probeSlot(addr) == kNoSlot,
               "inserting a resident line: ", params_.name);
#endif
    ++insertions_;
    std::size_t s = pickVictim(setBase(addr));
    Eviction ev;
    if (tags_[s] != kInvalidTag) {
        ev.valid = true;
        ev.dirty = dirty_[s] != 0;
        ev.addr = tags_[s] * kLineBytes;
        if (ev.dirty)
            ++writebacks_;
    }
    if (evicted)
        *evicted = ev;
    tags_[s] = tagOf(addr);
    dirty_[s] = write;
    touch(s, prefetched ? 3 : 2);
    return s;
}

bool
Cache::invalidate(Addr addr)
{
    std::size_t s = probeSlot(addr);
    if (s == kNoSlot)
        return false;
    bool dirty = dirty_[s] != 0;
    tags_[s] = kInvalidTag;
    dirty_[s] = 0;
    return dirty;
}

} // namespace trb
