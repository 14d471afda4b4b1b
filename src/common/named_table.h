/**
 * @file
 * A fixed table of built-in implementations, keyed by name.
 *
 * The memory-backend and arrival-process tables are each one NamedTable,
 * so lookup, the sorted name list (CLI listings) and the did-you-mean
 * suggestion for unknown names are one implementation. Adding an
 * implementation is one row where its table is defined.
 */

#ifndef NDPEXT_COMMON_NAMED_TABLE_H
#define NDPEXT_COMMON_NAMED_TABLE_H

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/suggest.h"

namespace ndpext {

/** One tunable an implementation accepts as `key=value` in its spec. */
struct Tunable
{
    std::string key;
    std::string description;
};

/** Rows of any struct with a `std::string name`, sorted by name. */
template <typename Row>
class NamedTable
{
  public:
    /**
     * Sort `rows` by name. A duplicate name is a fatal error naming the
     * table's `kind` ("memory backend", "arrival process").
     */
    NamedTable(const char* kind, std::vector<Row> rows)
        : rows_(std::move(rows))
    {
        std::sort(rows_.begin(), rows_.end(),
                  [](const Row& a, const Row& b) { return a.name < b.name; });
        for (std::size_t i = 1; i < rows_.size(); ++i) {
            if (rows_[i].name == rows_[i - 1].name) {
                NDP_FATAL("duplicate ", kind, " name: ", rows_[i].name);
            }
        }
    }

    /** Lookup by exact name; nullptr if absent. */
    const Row*
    find(const std::string& name) const
    {
        for (const Row& row : rows_) {
            if (row.name == name) {
                return &row;
            }
        }
        return nullptr;
    }

    /** Every row, sorted by name. */
    const std::vector<Row>& rows() const { return rows_; }

    /** Every name, sorted. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        out.reserve(rows_.size());
        for (const Row& row : rows_) {
            out.push_back(row.name);
        }
        return out;
    }

    /**
     * Closest name to `name` by Levenshtein distance, for did-you-mean
     * diagnostics. Empty if nothing is within max(2, len/3) edits.
     */
    std::string
    suggest(const std::string& name) const
    {
        return closestName(name, names());
    }

  private:
    std::vector<Row> rows_;
};

} // namespace ndpext

#endif // NDPEXT_COMMON_NAMED_TABLE_H
