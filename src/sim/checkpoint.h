/**
 * @file
 * Checkpoint/restore byte-stream primitives and the on-disk image format.
 *
 * A checkpoint is a versioned, CRC-checksummed binary image of all
 * deterministic simulator state, snapshotted at an epoch barrier (the
 * only point where no core is mid-step and no packet is in flight
 * between components). Components implement
 * `serialize(ckpt::Writer&)` / `deserialize(ckpt::Reader&)` hooks over
 * these primitives; `NdpSystem` orchestrates the full image.
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

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"

namespace ndpext {
namespace ckpt {

constexpr std::uint32_t kCheckpointVersion = 3;
constexpr char kCheckpointMagic[8] = {'N', 'D', 'P', 'X',
                                      'C', 'K', 'P', 'T'};

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
        for (int i = 0; i < 4; ++i) {
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        }
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        }
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

    template <typename T, typename Fn>
    void
    vec(const std::vector<T>& v, Fn&& each)
    {
        u64(v.size());
        for (const T& e : v) {
            each(e);
        }
    }

    void
    vecU64(const std::vector<std::uint64_t>& v)
    {
        vec(v, [this](std::uint64_t e) { u64(e); });
    }

    void
    vecU32(const std::vector<std::uint32_t>& v)
    {
        vec(v, [this](std::uint32_t e) { u32(e); });
    }

    void
    vecD(const std::vector<double>& v)
    {
        vec(v, [this](double e) { d(e); });
    }

    void
    vecB(const std::vector<bool>& v)
    {
        u64(v.size());
        for (const bool e : v) {
            b(e);
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

  private:
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
        NDP_ASSERT(pos_ + n <= size_, "checkpoint payload overrun");
        std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    template <typename Fn>
    void
    vec(Fn&& each)
    {
        const std::uint64_t n = u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            each(i);
        }
    }

    std::vector<std::uint64_t>
    vecU64()
    {
        std::vector<std::uint64_t> v;
        vec([&](std::uint64_t) { v.push_back(u64()); });
        return v;
    }

    std::vector<std::uint32_t>
    vecU32()
    {
        std::vector<std::uint32_t> v;
        vec([&](std::uint64_t) { v.push_back(u32()); });
        return v;
    }

    std::vector<double>
    vecD()
    {
        std::vector<double> v;
        vec([&](std::uint64_t) { v.push_back(d()); });
        return v;
    }

    std::vector<bool>
    vecB()
    {
        std::vector<bool> v;
        vec([&](std::uint64_t) { v.push_back(b()); });
        return v;
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
    std::size_t pos() const { return pos_; }

  private:
    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
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
