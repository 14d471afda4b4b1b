/**
 * @file
 * A fixed table of built-in implementations, keyed by name.
 *
 * The memory-backend and arrival-process tables are each one NamedTable,
 * so lookup, the sorted name list (CLI listings), the did-you-mean
 * suggestion for unknown names and the check of a spec's tunables are
 * one implementation. Adding an implementation is one row where its
 * table is defined.
 */

#ifndef NDPEXT_COMMON_NAMED_TABLE_H
#define NDPEXT_COMMON_NAMED_TABLE_H

#include <algorithm>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/parse.h"
#include "common/suggest.h"

namespace ndpext {

/** One tunable an implementation accepts as `key=value` in its spec. */
struct Tunable
{
    std::string key;
    std::string description;
    /** The values its model accepts. */
    ValueRange range;
};

/**
 * Check a spec's tunables against the ones its table row declares: each
 * key is declared (else a did-you-mean, or a pointer to `listing`), and
 * each value is a number in its key's range. Values are the text the
 * user typed (memory backends) or numbers parsed already (arrival
 * processes). `what` names the row in the diagnostic.
 */
template <typename Value>
bool
checkTunables(const std::vector<Tunable>& declared,
              const std::vector<std::pair<std::string, Value>>& given,
              const std::string& what, const std::string& listing,
              std::string* error)
{
    for (const auto& [key, value] : given) {
        const auto it = std::find_if(
            declared.begin(), declared.end(),
            [&key = key](const Tunable& t) { return t.key == key; });
        if (it == declared.end()) {
            std::vector<std::string> keys;
            for (const Tunable& t : declared) {
                keys.push_back(t.key);
            }
            const std::string hint = closestName(key, keys);
            *error = what + " has no tunable '" + key + "'"
                + (hint.empty() ? " (see " + listing + ")"
                                : " (did you mean '" + hint + "'?)");
            return false;
        }
        double v = 0.0;
        bool numeric = true;
        if constexpr (std::is_same_v<Value, std::string>) {
            numeric = parseReal(value, -kMaxReal, kMaxReal, &v);
        } else {
            v = value;
        }
        if (!numeric || !it->range.contains(v)) {
            std::ostringstream os;
            os << what << ": " << key << "=" << value << " must be "
               << it->range.describe();
            *error = os.str();
            return false;
        }
    }
    return true;
}

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
