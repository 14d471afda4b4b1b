/**
 * @file
 * Checkpoint/restore byte-stream primitives and the on-disk image format.
 *
 * A checkpoint is a versioned, CRC-checksummed binary image of all
 * deterministic simulator state, snapshotted at an epoch barrier (the
 * only point where no core is mid-step and no packet is in flight
 * between components). Each component declares its checkpointed fields
 * once, in one `checkpoint(ckpt::Archive&)` pass that saves them through
 * a Writer or loads them through a Reader; `NdpSystem` orchestrates the
 * full image.
 *
 * File layout (little-endian):
 *
 *     magic      8 B   "NDPXCKPT"
 *     version    u32   kCheckpointVersion
 *     configHash u64   hash of SystemConfig + policy + workload identity
 *     epoch      u64   completed epochs at the snapshot
 *     payload    u64   payload byte count
 *     crc32      u32   CRC-32 (IEEE) of the payload
 *     payload    ...   section-tagged component state
 *
 * Saving is crash-safe: the image is written to `<path>.tmp`, fsynced,
 * and atomically renamed over `<path>`, so a checkpoint file either does
 * not exist or is complete. Loading validates magic, version, size, CRC
 * and config hash and reports failures as recoverable errors (the file
 * is user input); *structural* mismatches after the CRC passes indicate
 * an internal bug and are asserts.
 *
 * Determinism notes: doubles are stored as raw IEEE-754 bit patterns,
 * and unordered containers are serialized in sorted key order, so a
 * byte-identical machine state always produces a byte-identical payload.
 */

#ifndef NDPEXT_SIM_CHECKPOINT_H
#define NDPEXT_SIM_CHECKPOINT_H

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/histogram.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/breakdown.h"

namespace ndpext {
namespace ckpt {

constexpr std::uint32_t kCheckpointVersion = 8;
constexpr char kCheckpointMagic[8] = {'N', 'D', 'P', 'X',
                                      'C', 'K', 'P', 'T'};

/** Integer and enum types an Archive stores at an explicit width. */
template <typename T>
concept Wire = (std::integral<T> && !std::same_as<T, bool>)
    || std::is_enum_v<T>;

/** The word types a bulk run stores: u32 and u64. */
template <typename T>
concept RunWord = std::same_as<T, std::uint32_t>
    || std::same_as<T, std::uint64_t>;

/** CRC-32 (IEEE 802.3, reflected) of a byte range. */
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/** Append-only little-endian byte stream. */
class Writer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    void
    u32(std::uint32_t v)
    {
        put(v);
    }

    void
    u64(std::uint64_t v)
    {
        put(v);
    }

    /** Doubles travel as raw bit patterns: restore is bit-exact. */
    void
    d(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string& s)
    {
        u64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    /**
     * `n` words from `p`: the bytes `n` u32() or u64() calls write, in
     * one insert. The words may be the fields of an array of structs
     * made only of T fields; they are read through memcpy.
     */
    template <RunWord T>
    void
    words(const T* p, std::size_t n)
    {
        const auto* bytes = reinterpret_cast<const std::uint8_t*>(p);
        if constexpr (std::endian::native == std::endian::little) {
            buf_.insert(buf_.end(), bytes, bytes + n * sizeof(T));
        } else {
            for (std::size_t i = 0; i < n; ++i) {
                T v;
                std::memcpy(&v, bytes + i * sizeof(T), sizeof(T));
                put(v);
            }
        }
    }

    /**
     * Section tag: a structural marker the reader asserts on, so a
     * producer/consumer mismatch fails loudly at the divergence point
     * instead of silently misinterpreting downstream bytes.
     */
    void
    section(std::uint32_t tag)
    {
        u32(0x5EC70000u | (tag & 0xFFFFu));
    }

    const std::vector<std::uint8_t>& bytes() const { return buf_; }

    /** Drop the bytes but keep the buffer for the next stream. */
    void clear() { buf_.clear(); }

  private:
    /** Append `v` little-endian in one insert. */
    template <typename T>
    void
    put(T v)
    {
        std::uint8_t le[sizeof(T)];
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            le[i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
        buf_.insert(buf_.end(), le, le + sizeof(T));
    }

    std::vector<std::uint8_t> buf_;
};

/**
 * Reader over a CRC-validated payload. Structural mismatches (overrun,
 * wrong section tag) mean the producer and consumer disagree -- an
 * internal bug, not recoverable user input -- hence asserts.
 */
class Reader
{
  public:
    explicit Reader(const std::vector<std::uint8_t>& buf)
        : data_(buf.data()), size_(buf.size())
    {
    }

    std::uint8_t
    u8()
    {
        NDP_ASSERT(pos_ + 1 <= size_, "checkpoint payload overrun");
        return data_[pos_++];
    }

    bool
    b()
    {
        return u8() != 0;
    }

    std::uint32_t
    u32()
    {
        NDP_ASSERT(pos_ + 4 <= size_, "checkpoint payload overrun");
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
        }
        return v;
    }

    std::uint64_t
    u64()
    {
        NDP_ASSERT(pos_ + 8 <= size_, "checkpoint payload overrun");
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
        }
        return v;
    }

    double
    d()
    {
        const std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        NDP_ASSERT(n <= size_ - pos_, "checkpoint payload overrun");
        std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    /** `n` words into `p`, the inverse of Writer::words. */
    template <RunWord T>
    void
    words(T* p, std::size_t n)
    {
        NDP_ASSERT(n <= remaining() / sizeof(T), "checkpoint payload overrun");
        if (n == 0) {
            return;
        }
        auto* bytes = reinterpret_cast<std::uint8_t*>(p);
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(bytes, data_ + pos_, n * sizeof(T));
            pos_ += n * sizeof(T);
        } else {
            for (std::size_t i = 0; i < n; ++i) {
                const auto v = static_cast<T>(sizeof(T) == 4 ? u32() : u64());
                std::memcpy(bytes + i * sizeof(T), &v, sizeof(T));
            }
        }
    }

    void
    section(std::uint32_t tag)
    {
        const std::uint32_t got = u32();
        NDP_ASSERT(got == (0x5EC70000u | (tag & 0xFFFFu)),
                   "checkpoint section mismatch: expected tag ", tag,
                   " got word ", got);
    }

    bool atEnd() const { return pos_ == size_; }
    std::size_t remaining() const { return size_ - pos_; }

  private:
    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/**
 * One pass over a component's checkpointed state, built over a Writer
 * (save) or a Reader (load). A component names each field once, in one
 * `checkpoint(Archive&)` function: saving writes the field, loading
 * assigns it, so the two directions cannot drift apart. Work that only
 * a restore needs (rebuilding derived views, dropping memoized
 * pointers) sits in the same function under `if (ar.loading())`.
 *
 * Saving must not mutate: every call reads its argument on save and
 * assigns it only on load. The direction is chosen at run time, so a
 * virtual hook stays one virtual function.
 *
 * Every element of a sequence or map writes at least one byte, so a
 * count read from an image is bounded by the bytes left before any
 * container grows (count()).
 */
class Archive
{
  public:
    explicit Archive(Writer& w) : w_(&w) {}
    explicit Archive(Reader& r) : r_(&r) {}

    bool loading() const { return r_ != nullptr; }

    /** Integer or enum fields, stored at the width the call names. */
    template <typename T>
        requires Wire<T>
    void
    u8(T& v)
    {
        if (loading()) {
            v = static_cast<T>(r_->u8());
        } else {
            w_->u8(static_cast<std::uint8_t>(v));
        }
    }

    template <typename T>
        requires Wire<T>
    void
    u32(T& v)
    {
        if (loading()) {
            v = static_cast<T>(r_->u32());
        } else {
            w_->u32(static_cast<std::uint32_t>(v));
        }
    }

    template <typename T>
        requires Wire<T>
    void
    u64(T& v)
    {
        if (loading()) {
            v = static_cast<T>(r_->u64());
        } else {
            w_->u64(static_cast<std::uint64_t>(v));
        }
    }

    void
    b(bool& v)
    {
        if (loading()) {
            v = r_->b();
        } else {
            w_->b(v);
        }
    }

    void
    d(double& v)
    {
        if (loading()) {
            v = r_->d();
        } else {
            w_->d(v);
        }
    }

    void
    str(std::string& s)
    {
        if (loading()) {
            s = r_->str();
        } else {
            w_->str(s);
        }
    }

    void
    section(std::uint32_t tag)
    {
        if (loading()) {
            r_->section(tag);
        } else {
            w_->section(tag);
        }
    }

    /**
     * A contiguous run of `n` u32 or u64 words, as `n` u32() or u64()
     * calls store it, copied in one step. A load asserts that the run
     * fits in the bytes left before it writes a word.
     */
    template <RunWord T>
    void
    words(T* p, std::size_t n)
    {
        if (loading()) {
            r_->words(p, n);
        } else {
            w_->words(p, n);
        }
    }

    /**
     * The element count of a sequence or map (u64). On load it must not
     * exceed the bytes left, since every element writes at least one.
     */
    void
    count(std::uint64_t& n)
    {
        u64(n);
        if (loading()) {
            NDP_ASSERT(n <= r_->remaining(), "checkpoint count ", n,
                       " exceeds the ", r_->remaining(), " bytes left");
        }
    }

    /** A count fixed by configuration: saved, and asserted on load. */
    void
    expect(std::uint64_t n, const char* what)
    {
        std::uint64_t got = n;
        u64(got);
        NDP_ASSERT(got == n, what, ": image has ", got, ", expected ", n);
    }

    /** A presence bit fixed by configuration: saved, asserted on load. */
    void
    expectFlag(bool present, const char* what)
    {
        bool got = present;
        b(got);
        NDP_ASSERT(got == present, what);
    }

    /**
     * A sequence: its size, then `each(element)` for every element.
     * Loading replaces the contents with that many default elements
     * first.
     */
    template <typename C, typename Fn>
    void
    seq(C& c, Fn&& each)
    {
        std::uint64_t n = c.size();
        count(n);
        if (loading()) {
            c.clear();
            c.resize(n);
        }
        for (auto& e : c) {
            each(e);
        }
    }

    /** vector<bool> has no element references: pass each bit by copy. */
    template <typename Fn>
    void
    seq(std::vector<bool>& v, Fn&& each)
    {
        std::uint64_t n = v.size();
        count(n);
        if (loading()) {
            v.assign(n, false);
        }
        for (std::size_t i = 0; i < n; ++i) {
            bool e = v[i];
            each(e);
            if (loading()) {
                v[i] = e;
            }
        }
    }

    /**
     * A map or set in ascending key order: its size, then `each(key,
     * value)` (a set: `each(key)`) per entry. The callback names the key
     * too; saving passes it a copy, loading inserts what it read.
     */
    template <typename M, typename Fn>
    void
    map(M& m, Fn&& each)
    {
        constexpr bool kIsMap = requires { typename M::mapped_type; };
        std::uint64_t n = m.size();
        count(n);
        if (loading()) {
            m.clear();
            for (std::uint64_t i = 0; i < n; ++i) {
                typename M::key_type k{};
                if constexpr (kIsMap) {
                    typename M::mapped_type v{};
                    each(k, v);
                    m.emplace(std::move(k), std::move(v));
                } else {
                    each(k);
                    m.insert(std::move(k));
                }
            }
            return;
        }
        const auto visit = [&](auto& entry) {
            if constexpr (kIsMap) {
                typename M::key_type k = entry.first;
                each(k, entry.second);
            } else {
                typename M::key_type k = entry;
                each(k);
            }
        };
        if constexpr (requires { typename M::key_compare; }) {
            for (auto& entry : m) {
                visit(entry);
            }
        } else {
            // Unordered containers: sort, so equal states give equal bytes.
            std::vector<decltype(&*m.begin())> sorted;
            sorted.reserve(m.size());
            for (auto& entry : m) {
                sorted.push_back(&entry);
            }
            std::sort(sorted.begin(), sorted.end(),
                      [](const auto* a, const auto* b) {
                          if constexpr (kIsMap) {
                              return a->first < b->first;
                          } else {
                              return *a < *b;
                          }
                      });
            for (auto* entry : sorted) {
                visit(*entry);
            }
        }
    }

    /** An xoshiro generator's four state words. */
    void
    rng(Rng& g)
    {
        std::uint64_t s[4];
        g.state(s);
        for (std::uint64_t& word : s) {
            u64(word);
        }
        if (loading()) {
            g.setState(s);
        }
    }

    /** A histogram's bins and moments (the bucket width is config). */
    void
    hist(Histogram& h)
    {
        std::vector<std::uint64_t> bins;
        if (!loading()) {
            bins = h.bins();
        }
        std::uint64_t overflow = h.overflow();
        std::uint64_t n = h.count();
        double sum = h.sum();
        double lo = h.minValue();
        double hi = h.maxValue();
        seq(bins, [this](std::uint64_t& v) { u64(v); });
        u64(overflow);
        u64(n);
        d(sum);
        d(lo);
        d(hi);
        if (loading()) {
            NDP_ASSERT(bins.size() == h.bins().size(),
                       "latency histogram shape mismatch");
            h.restore(std::move(bins), overflow, n, sum, lo, hi);
        }
    }

    /** The six latency-breakdown buckets: the stages, then requests. */
    void
    bd(LatencyBreakdown& v)
    {
        for (const ServiceStage& s : kServiceStages) {
            u64(v.*s.field);
        }
        u64(v.requests);
    }

    /** A stream-id list (u32 each). */
    void
    sids(std::vector<StreamId>& v)
    {
        seq(v, [this](StreamId& sid) { u32(sid); });
    }

  private:
    Writer* w_ = nullptr;
    Reader* r_ = nullptr;
};

/** Parsed checkpoint file header (everything before the payload). */
struct CheckpointHeader
{
    std::uint32_t version = 0;
    std::uint64_t configHash = 0;
    std::uint64_t epoch = 0;
    std::uint64_t payloadSize = 0;
    std::uint32_t payloadCrc = 0;
};

/**
 * Write `payload` as a complete checkpoint image via atomic
 * temp-file + fsync + rename. Returns false with a diagnostic in
 * `*error` on I/O failure (the destination is left untouched).
 */
bool saveCheckpoint(const std::string& path, std::uint64_t config_hash,
                    std::uint64_t epoch,
                    const std::vector<std::uint8_t>& payload,
                    std::string* error);

/**
 * Load and fully validate a checkpoint image: magic, version, size,
 * CRC, and (when `expected_config_hash` is nonzero) the config hash.
 * All failures are recoverable user-input errors reported in `*error`
 * with the offending file named; nothing asserts.
 */
bool loadCheckpoint(const std::string& path,
                    std::uint64_t expected_config_hash,
                    CheckpointHeader* header,
                    std::vector<std::uint8_t>* payload, std::string* error);

/**
 * Header + CRC validation only (no config hash, no payload returned):
 * the supervisor uses this to pick the newest *valid* checkpoint
 * without being able to reconstruct the config hash.
 */
bool probeCheckpoint(const std::string& path, CheckpointHeader* header,
                     std::string* error);

/**
 * Scan the directory of `prefix` for `<prefix>.<epoch>.ckpt` images and
 * return the highest-epoch one that passes full header + CRC
 * validation, silently skipping newer images that fail (a crash while
 * no checkpoint was mid-write cannot corrupt one, but disk-level damage
 * can; the supervisor falls back to the previous valid image). Returns
 * false with a diagnostic if no valid checkpoint exists.
 */
bool findLatestValidCheckpoint(const std::string& prefix,
                               std::string* path, CheckpointHeader* header,
                               std::string* error);

/** FNV-1a over a serialized byte stream (config-hash helper). */
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes);

} // namespace ckpt
} // namespace ndpext

#endif // NDPEXT_SIM_CHECKPOINT_H
