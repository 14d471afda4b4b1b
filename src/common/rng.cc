#include "common/rng.h"

#include <array>
#include <cmath>

#include "common/logging.h"

namespace ndpext {

namespace {

/** A 256-bit generator state as a vector over GF(2). */
using StateBits = std::array<std::uint64_t, 4>;

/** A 256x256 GF(2) matrix as its columns: col[j] is the image of bit j. */
using StateMatrix = std::array<StateBits, 256>;

StateBits
apply(const StateMatrix& m, const StateBits& v)
{
    StateBits out{};
    for (std::size_t j = 0; j < 256; ++j) {
        const std::uint64_t mask = 0 - ((v[j / 64] >> (j % 64)) & 1);
        for (std::size_t k = 0; k < 4; ++k) {
            out[k] ^= m[j][k] & mask;
        }
    }
    return out;
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // Seed the four lanes through splitmix64 as recommended by the
    // xoshiro authors; avoids the all-zero state.
    std::uint64_t z = seed;
    for (auto& lane : s_) {
        z += 0x9e3779b97f4a7c15ULL;
        lane = mix64(z);
    }
}

void
Rng::discard(std::uint64_t n)
{
    // next() updates the state by XORs, shifts and rotations only, so
    // one step is a GF(2) matrix T; its column j is one step of unit
    // state bit j. Square-and-multiply applies T^n.
    StateMatrix t{}; // T^(2^i) at bit i of n
    for (std::size_t j = 0; j < 256; ++j) {
        StateBits unit{};
        unit[j / 64] = 1ULL << (j % 64);
        Rng r;
        r.setState(unit.data());
        r.next();
        r.state(t[j].data());
    }
    StateBits s{s_[0], s_[1], s_[2], s_[3]};
    for (;;) {
        if ((n & 1) != 0) {
            s = apply(t, s);
        }
        n >>= 1;
        if (n == 0) {
            break;
        }
        StateMatrix squared{};
        for (std::size_t j = 0; j < 256; ++j) {
            squared[j] = apply(t, t[j]);
        }
        t = squared;
    }
    setState(s.data());
}

ZipfSampler::ZipfSampler(std::uint64_t n, double theta, std::uint64_t seed)
    : n_(n), theta_(theta), rng_(seed)
{
    NDP_ASSERT(n > 0);
    NDP_ASSERT(theta > 0.0 && theta < 1.0, "theta=", theta);
    double zeta2 = 0.0;
    for (std::uint64_t i = 1; i <= 2 && i <= n; ++i) {
        zeta2 += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    zetan_ = 0.0;
    // Exact zeta for small n; integral approximation beyond 10k terms.
    const std::uint64_t exact = n < 10000 ? n : 10000;
    for (std::uint64_t i = 1; i <= exact; ++i) {
        zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    if (n > exact) {
        // integral of x^-theta from `exact` to n
        zetan_ += (std::pow(static_cast<double>(n), 1.0 - theta)
                   - std::pow(static_cast<double>(exact), 1.0 - theta))
            / (1.0 - theta);
    }
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta))
        / (1.0 - zeta2 / zetan_);
}

std::uint64_t
ZipfSampler::next()
{
    const double u = rng_.nextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) {
        return 0;
    }
    if (uz < 1.0 + std::pow(0.5, theta_)) {
        return 1;
    }
    const double frac =
        std::pow(eta_ * u - eta_ + 1.0, alpha_);
    std::uint64_t v = static_cast<std::uint64_t>(
        static_cast<double>(n_) * frac);
    return v >= n_ ? n_ - 1 : v;
}

} // namespace ndpext
