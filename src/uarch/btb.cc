#include "uarch/btb.hh"

#include "common/logging.hh"

namespace trb
{

Btb::Btb(std::size_t entries, unsigned ways) : ways_(ways)
{
    trb_assert(ways >= 1 && entries % ways == 0,
               "BTB entries must divide evenly into ways");
    std::size_t sets = entries / ways;
    trb_assert((sets & (sets - 1)) == 0, "BTB set count must be power of 2");
    setMask_ = sets - 1;
    tags_.assign(entries, kInvalidTag);
    targets_.assign(entries, 0);
    lru_.assign(entries, 0);
    types_.assign(entries, BranchType::NotBranch);
}

BtbEntryView
Btb::lookup(Addr pc)
{
    ++lookups_;
    const std::size_t base = setBase(pc);
    const Addr tag = tagOf(pc);
    for (std::size_t s = base; s < base + ways_; ++s) {
        if (tags_[s] == tag) {
            lru_[s] = ++clock_;
            ++hits_;
            return {true, targets_[s], types_[s]};
        }
    }
    return {};
}

void
Btb::update(Addr pc, Addr target, BranchType type)
{
    // The matching entry, else the first empty one, else the LRU one.
    const std::size_t base = setBase(pc);
    const Addr tag = tagOf(pc);
    std::size_t victim = base;
    for (std::size_t s = base; s < base + ways_; ++s) {
        if (tags_[s] == tag || tags_[s] == kInvalidTag) {
            victim = s;
            break;
        }
        if (lru_[s] < lru_[victim])
            victim = s;
    }
    tags_[victim] = tag;
    targets_[victim] = target;
    types_[victim] = type;
    lru_[victim] = ++clock_;
}

} // namespace trb
