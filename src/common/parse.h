/**
 * @file
 * The one grammar for every number a user types: ndpext_sim flags, the
 * --fault / --tenant / --mem-backend specs, trace files and the tools'
 * options. Each parser reads the whole text (no leading space or
 * trailing text, and no sign on a count) and returns false on bad input,
 * leaving *out untouched, so the caller can name its flag, key or
 * file:line in the diagnostic.
 */

#ifndef NDPEXT_COMMON_PARSE_H
#define NDPEXT_COMMON_PARSE_H

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ndpext {

inline constexpr double kMaxReal = std::numeric_limits<double>::max();

/** Decimal digits only, with a value <= max. */
bool parseCount(std::string_view text, std::uint64_t max,
                std::uint64_t* out);

/** parseCount bounded by what the unsigned type T holds. */
template <typename T>
bool
parseCount(std::string_view text, T* out)
{
    std::uint64_t v = 0;
    if (!parseCount(text, std::numeric_limits<T>::max(), &v)) {
        return false;
    }
    *out = static_cast<T>(v);
    return true;
}

/** A count with an optional K/M/G suffix in either case (5M =
 *  5,000,000); a product past 2^64 - 1 is rejected. */
bool parseCycles(std::string_view text, std::uint64_t* out);

/** A count, or 0x and hex digits. A decimal with a leading zero is
 *  rejected, since C's base-0 rule reads it as octal. */
bool parseAddress(std::string_view text, std::uint64_t* out);

/** The whole string in strtod grammar, finite, within [lo, hi]. */
bool parseReal(std::string_view text, double lo, double hi, double* out);

/** Split "k=v,k=v", skipping empty items. False at the first item that
 *  is not key=value with both non-empty; *bad gets that item. */
bool splitKeyValues(std::string_view spec,
                    std::vector<std::pair<std::string, std::string>>* pairs,
                    std::string* bad);

/** The values a tunable accepts: [lo, hi], or [lo, hi) if hiOpen. */
struct ValueRange
{
    double lo = 0.0;
    double hi = kMaxReal;
    /** Whole numbers only (keep hi <= 2^53, where doubles are exact). */
    bool integer = false;
    bool hiOpen = false;

    bool contains(double v) const;
    /** "an integer in [1, 4294967295]", "a number >= 1", ... */
    std::string describe() const;
};

} // namespace ndpext

#endif // NDPEXT_COMMON_PARSE_H
