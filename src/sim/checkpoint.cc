#include "sim/checkpoint.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include "common/parse.h"

namespace ndpext {
namespace ckpt {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables: [0] is the bytewise table, and [k][i] is the CRC
 * register after byte i is followed by k zero bytes.
 */
CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
        }
    }
    return t;
}

std::string
errnoString()
{
    return std::strerror(errno);
}

std::uint32_t
getU32(const std::uint8_t* p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    }
    return v;
}

std::uint64_t
getU64(const std::uint8_t* p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    return v;
}

constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 8 + 4;

bool
readHeaderAndMaybePayload(const std::string& path, CheckpointHeader* header,
                          std::vector<std::uint8_t>* payload,
                          std::string* error)
{
    const auto fail = [&](const std::string& why) {
        if (error != nullptr) {
            *error = "checkpoint '" + path + "': " + why;
        }
        return false;
    };

    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        return fail("cannot open: " + errnoString());
    }
    std::uint8_t head[kHeaderBytes];
    if (std::fread(head, 1, kHeaderBytes, f) != kHeaderBytes) {
        std::fclose(f);
        return fail("truncated header (file smaller than "
                    + std::to_string(kHeaderBytes) + " bytes)");
    }
    if (std::memcmp(head, kCheckpointMagic, 8) != 0) {
        std::fclose(f);
        return fail("bad magic (not a NDPXCKPT checkpoint file)");
    }
    CheckpointHeader h;
    h.version = getU32(head + 8);
    h.configHash = getU64(head + 12);
    h.epoch = getU64(head + 20);
    h.payloadSize = getU64(head + 28);
    h.payloadCrc = getU32(head + 36);
    if (h.version != kCheckpointVersion) {
        std::fclose(f);
        return fail("unsupported version " + std::to_string(h.version)
                    + " (this build reads version "
                    + std::to_string(kCheckpointVersion) + ")");
    }

    std::vector<std::uint8_t> body(h.payloadSize);
    if (h.payloadSize > 0
        && std::fread(body.data(), 1, body.size(), f) != body.size()) {
        std::fclose(f);
        return fail("truncated payload (expected "
                    + std::to_string(h.payloadSize) + " bytes)");
    }
    // Trailing garbage means the file is not the image we wrote.
    std::uint8_t extra;
    if (std::fread(&extra, 1, 1, f) == 1) {
        std::fclose(f);
        return fail("trailing bytes after payload");
    }
    std::fclose(f);

    const std::uint32_t crc = crc32(body.data(), body.size());
    if (crc != h.payloadCrc) {
        return fail("CRC mismatch (payload corrupted): stored "
                    + std::to_string(h.payloadCrc) + ", computed "
                    + std::to_string(crc));
    }
    if (header != nullptr) {
        *header = h;
    }
    if (payload != nullptr) {
        *payload = std::move(body);
    }
    return true;
}

} // namespace

std::uint32_t
crc32(const std::uint8_t* data, std::size_t size)
{
    static const CrcTables t = makeCrcTables();
    std::uint32_t c = 0xFFFFFFFFu;
    // Eight bytes a step: fold the register into the first four, then
    // look up each byte by how many bytes follow it in the step.
    for (; size >= 8; data += 8, size -= 8) {
        const std::uint32_t lo = c ^ getU32(data);
        const std::uint32_t hi = getU32(data + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu]
            ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu]
            ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu]
            ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size) {
        c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFu;
}

std::uint64_t
fnv1a(const std::vector<std::uint8_t>& bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

bool
saveCheckpoint(const std::string& path, std::uint64_t config_hash,
               std::uint64_t epoch, const std::vector<std::uint8_t>& payload,
               std::string* error)
{
    const auto fail = [&](const std::string& why) {
        if (error != nullptr) {
            *error = "cannot save checkpoint '" + path + "': " + why;
        }
        return false;
    };

    Writer head;
    for (const char c : kCheckpointMagic) {
        head.u8(static_cast<std::uint8_t>(c));
    }
    head.u32(kCheckpointVersion);
    head.u64(config_hash);
    head.u64(epoch);
    head.u64(payload.size());
    head.u32(crc32(payload.data(), payload.size()));

    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        return fail("open '" + tmp + "': " + errnoString());
    }
    // The header, then the payload straight from the caller's buffer.
    const auto writeAll = [fd](const std::uint8_t* data, std::size_t size) {
        while (size > 0) {
            const ssize_t n = ::write(fd, data, size);
            if (n < 0) {
                return false;
            }
            data += n;
            size -= static_cast<std::size_t>(n);
        }
        return true;
    };
    // Remove the temp file on failure; errno is read before the clean-up
    // calls can overwrite it.
    const auto abandon = [&](const char* what, bool close_fd) {
        const std::string why = std::string(what) + ": " + errnoString();
        if (close_fd) {
            ::close(fd);
        }
        ::unlink(tmp.c_str());
        return fail(why);
    };
    if (!writeAll(head.bytes().data(), head.bytes().size())
        || !writeAll(payload.data(), payload.size())) {
        return abandon("write", true);
    }
    if (::fsync(fd) != 0) {
        return abandon("fsync", true);
    }
    if (::close(fd) != 0) {
        return abandon("close", false);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        return abandon("rename", false);
    }
    return true;
}

bool
loadCheckpoint(const std::string& path, std::uint64_t expected_config_hash,
               CheckpointHeader* header, std::vector<std::uint8_t>* payload,
               std::string* error)
{
    CheckpointHeader h;
    if (!readHeaderAndMaybePayload(path, &h, payload, error)) {
        return false;
    }
    if (expected_config_hash != 0 && h.configHash != expected_config_hash) {
        if (error != nullptr) {
            *error = "checkpoint '" + path
                + "': config mismatch (checkpoint was taken with a "
                  "different system configuration, policy, workload or "
                  "fault schedule; stored hash "
                + std::to_string(h.configHash) + ", this run's hash "
                + std::to_string(expected_config_hash) + ")";
        }
        return false;
    }
    if (header != nullptr) {
        *header = h;
    }
    return true;
}

bool
probeCheckpoint(const std::string& path, CheckpointHeader* header,
                std::string* error)
{
    return readHeaderAndMaybePayload(path, header, nullptr, error);
}

bool
findLatestValidCheckpoint(const std::string& prefix, std::string* path,
                          CheckpointHeader* header, std::string* error)
{
    const auto slash = prefix.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : prefix.substr(0, slash);
    const std::string base =
        slash == std::string::npos ? prefix : prefix.substr(slash + 1);

    // Collect candidate epochs from names matching <base>.<digits>.ckpt.
    std::vector<std::uint64_t> epochs;
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) {
        if (error != nullptr) {
            *error = "cannot scan checkpoint directory '" + dir
                + "': " + errnoString();
        }
        return false;
    }
    while (const dirent* ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name.size() <= base.size() + 6
            || name.compare(0, base.size() + 1, base + ".") != 0
            || name.compare(name.size() - 5, 5, ".ckpt") != 0) {
            continue;
        }
        // A name whose epoch is not a 64-bit count does not match.
        std::uint64_t epoch = 0;
        if (!parseCount(std::string_view(name).substr(
                            base.size() + 1, name.size() - base.size() - 6),
                        &epoch)) {
            continue;
        }
        epochs.push_back(epoch);
    }
    ::closedir(d);
    std::sort(epochs.rbegin(), epochs.rend());

    std::string tried;
    for (const std::uint64_t epoch : epochs) {
        const std::string candidate =
            prefix + "." + std::to_string(epoch) + ".ckpt";
        std::string why;
        if (probeCheckpoint(candidate, header, &why)) {
            if (path != nullptr) {
                *path = candidate;
            }
            return true;
        }
        tried += "\n  " + why;
    }
    if (error != nullptr) {
        *error = "no valid checkpoint matching '" + prefix
            + ".<epoch>.ckpt'" + (tried.empty() ? "" : ":" + tried);
    }
    return false;
}

} // namespace ckpt
} // namespace ndpext
