/**
 * @file
 * The table of built-in memory backends.
 *
 * memBackends() holds one row per backend implementation: name,
 * description, tunable schema and factory. CLI frontends enumerate it
 * for `--list-mem-backends`, SystemConfig::validate checks names,
 * tunable keys, their ranges and the cross-tunable rules against it
 * (with an edit-distance did-you-mean on unknown names), and
 * createMemBackend() in mem/mem_backend.h constructs by name. Adding a
 * backend is one row in mem_backend_registry.cc.
 */

#ifndef NDPEXT_MEM_MEM_BACKEND_REGISTRY_H
#define NDPEXT_MEM_MEM_BACKEND_REGISTRY_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/named_table.h"
#include "mem/mem_backend.h"

namespace ndpext {

/** One backend implementation. */
struct MemBackendInfo
{
    std::string name;
    std::string description;
    /** Declared tunables; unknown keys are a validation error. */
    std::vector<Tunable> tunables;
    std::function<std::unique_ptr<MemBackend>(const MemBackendConfig&,
                                              std::uint64_t core_freq_mhz)>
        factory;
    /** Rules across tunables, run once each is in range: the
     *  diagnostic, or "" when they hold. Null when there are none. */
    std::function<std::string(const MemBackendConfig&,
                              std::uint64_t core_freq_mhz)>
        crossCheck = nullptr;
};

/** The built-in backends, sorted by name. */
const NamedTable<MemBackendInfo>& memBackends();

} // namespace ndpext

#endif // NDPEXT_MEM_MEM_BACKEND_REGISTRY_H
