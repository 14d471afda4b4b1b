#include "cache/set_assoc_cache.h"

#include "common/bitutils.h"
#include "common/logging.h"

namespace ndpext {

SetAssocCache::SetAssocCache(std::uint32_t sets, std::uint32_t ways)
    : sets_(sets), ways_(ways),
      entries_(static_cast<std::size_t>(sets) * ways)
{
    NDP_ASSERT(sets > 0 && ways > 0);
}

SetAssocCache
SetAssocCache::fromCapacity(std::uint64_t capacity_bytes,
                            std::uint32_t line_bytes, std::uint32_t ways)
{
    NDP_ASSERT(line_bytes > 0 && ways > 0);
    const std::uint64_t lines = capacity_bytes / line_bytes;
    NDP_ASSERT(lines >= ways, "capacity too small: ", capacity_bytes);
    return SetAssocCache(static_cast<std::uint32_t>(lines / ways), ways);
}

SetAssocCache::Entry*
SetAssocCache::find(std::uint64_t key)
{
    const std::size_t base =
        static_cast<std::size_t>(setOf(key)) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Entry& e = entries_[base + w];
        if (e.valid && e.key == key) {
            return &e;
        }
    }
    return nullptr;
}

const SetAssocCache::Entry*
SetAssocCache::find(std::uint64_t key) const
{
    return const_cast<SetAssocCache*>(this)->find(key);
}

bool
SetAssocCache::access(std::uint64_t key, bool is_write)
{
    Entry* e = find(key);
    if (e != nullptr) {
        e->lastUse = ++useClock_;
        e->dirty = e->dirty || is_write;
        ++hits_;
        return true;
    }
    ++misses_;
    return false;
}

bool
SetAssocCache::contains(std::uint64_t key) const
{
    return find(key) != nullptr;
}

SetAssocCache::Eviction
SetAssocCache::insert(std::uint64_t key, bool dirty)
{
    NDP_ASSERT(find(key) == nullptr, "double insert of key ", key);
    const std::size_t base =
        static_cast<std::size_t>(setOf(key)) * ways_;
    Entry* victim = &entries_[base];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Entry& e = entries_[base + w];
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < victim->lastUse) {
            victim = &e;
        }
    }

    Eviction ev;
    if (victim->valid) {
        ev.valid = true;
        ev.key = victim->key;
        ev.dirty = victim->dirty;
    }
    victim->key = key;
    victim->valid = true;
    victim->dirty = dirty;
    victim->lastUse = ++useClock_;
    return ev;
}

bool
SetAssocCache::invalidate(std::uint64_t key)
{
    Entry* e = find(key);
    if (e == nullptr) {
        return false;
    }
    e->valid = false;
    e->dirty = false;
    return true;
}

std::uint64_t
SetAssocCache::invalidateAll()
{
    std::uint64_t dropped = 0;
    for (auto& e : entries_) {
        if (e.valid) {
            ++dropped;
            e.valid = false;
            e.dirty = false;
        }
    }
    return dropped;
}

SramCache::SramCache(std::uint64_t capacity_bytes, std::uint32_t line_bytes,
                     std::uint32_t ways)
    : lineBytes_(line_bytes),
      tags_(SetAssocCache::fromCapacity(capacity_bytes, line_bytes, ways))
{
}

bool
SramCache::access(Addr addr, bool is_write)
{
    const std::uint64_t line = addr / lineBytes_;
    if (tags_.access(line, is_write)) {
        return true;
    }
    tags_.insert(line, is_write);
    return false;
}

} // namespace ndpext
