#include "common/parse.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ndpext {

namespace {

/** Digits of `base` only (no sign, space or prefix), value <= max. */
bool
parseDigits(std::string_view text, int base, std::uint64_t max,
            std::uint64_t* out)
{
    std::uint64_t v = 0;
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v, base);
    if (ec != std::errc() || stop != end || v > max) {
        return false;
    }
    *out = v;
    return true;
}

} // namespace

bool
parseCount(std::string_view text, std::uint64_t max, std::uint64_t* out)
{
    return parseDigits(text, 10, max, out);
}

bool
parseCycles(std::string_view text, std::uint64_t* out)
{
    constexpr std::uint64_t kScale[] = {1'000, 1'000'000, 1'000'000'000};
    const std::size_t suffix = text.empty()
        ? std::string_view::npos
        : std::string_view("KMGkmg").find(text.back());
    std::uint64_t scale = 1;
    if (suffix != std::string_view::npos) {
        text.remove_suffix(1);
        scale = kScale[suffix % 3];
    }
    std::uint64_t v = 0;
    if (!parseCount(text, std::numeric_limits<std::uint64_t>::max() / scale,
                    &v)) {
        return false;
    }
    *out = v * scale;
    return true;
}

bool
parseAddress(std::string_view text, std::uint64_t* out)
{
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    if (text.size() > 2 && text[0] == '0'
        && (text[1] == 'x' || text[1] == 'X')) {
        return parseDigits(text.substr(2), 16, max, out);
    }
    if (text.size() > 1 && text[0] == '0') {
        return false; // octal under C's base-0 rule
    }
    return parseCount(text, max, out);
}

bool
parseReal(std::string_view text, double lo, double hi, double* out)
{
    // strtod skips leading space; the whole text must be the number.
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
        return false;
    }
    const std::string s(text);
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || !std::isfinite(v) || v < lo
        || v > hi) {
        return false;
    }
    *out = v;
    return true;
}

bool
splitKeyValues(std::string_view spec,
               std::vector<std::pair<std::string, std::string>>* pairs,
               std::string* error)
{
    while (!spec.empty()) {
        const std::string_view item = spec.substr(0, spec.find(','));
        spec.remove_prefix(std::min(spec.size(), item.size() + 1));
        if (item.empty()) {
            continue;
        }
        const std::size_t eq = item.find('=');
        if (eq == std::string_view::npos || eq == 0
            || eq + 1 == item.size()) {
            *error = "expected key=value, got '" + std::string(item) + "'";
            return false;
        }
        const std::string_view key = item.substr(0, eq);
        for (const auto& pair : *pairs) {
            if (pair.first == key) {
                *error = "key '" + std::string(key) + "' is given twice";
                return false;
            }
        }
        pairs->emplace_back(key, item.substr(eq + 1));
    }
    return true;
}

bool
ValueRange::contains(double v) const
{
    return v >= lo && (hiOpen ? v < hi : v <= hi)
        && (!integer || v == std::floor(v));
}

std::string
ValueRange::describe() const
{
    char buf[96];
    if (hi == kMaxReal) {
        std::snprintf(buf, sizeof(buf), "%s >= %.17g",
                      integer ? "an integer" : "a number", lo);
    } else {
        std::snprintf(buf, sizeof(buf), "%s in [%.17g, %.17g%c",
                      integer ? "an integer" : "a number", lo, hi,
                      hiOpen ? ')' : ']');
    }
    return buf;
}

} // namespace ndpext
