/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator and the workload generators is
 * drawn from seeded xoshiro256** instances so every run is reproducible.
 */

#ifndef NDPEXT_COMMON_RNG_H
#define NDPEXT_COMMON_RNG_H

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace ndpext {

/** Finalizer from splitmix64; also used as the simulator's hash mixer. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * xoshiro256** 1.0 -- fast, high-quality, deterministic.
 *
 * The draw methods are defined inline: workload generation makes
 * hundreds of millions of calls and the out-of-line call overhead
 * dominated graph construction. The generated sequences are identical
 * to the previous out-of-line definitions (same state transitions).
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 1);

    /** Uniform 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform in [0, bound). bound must be nonzero. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        NDP_ASSERT(bound > 0);
        // Modulo bias is negligible for the bounds used here (<< 2^63).
        return next() % bound;
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /**
     * Advance the state as if next() had been called n times, in
     * O(log n) 256x256 GF(2) matrix squarings of the (linear) state
     * transition.
     */
    void discard(std::uint64_t n);

    /** Bernoulli draw. */
    bool
    nextBool(double p_true)
    {
        return nextDouble() < p_true;
    }

    /** Raw generator state, for checkpoint/restore. */
    void
    state(std::uint64_t out[4]) const
    {
        for (int i = 0; i < 4; ++i) {
            out[i] = s_[i];
        }
    }

    void
    setState(const std::uint64_t in[4])
    {
        for (int i = 0; i < 4; ++i) {
            s_[i] = in[i];
        }
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

/**
 * Zipfian sampler over [0, n) with parameter theta, using the classic
 * Gray-et-al rejection-inversion free approximation (precomputed zeta).
 * Models the skewed popularity of embedding rows / graph vertices.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double theta, std::uint64_t seed);

    std::uint64_t next();

    std::uint64_t domain() const { return n_; }

  private:
    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
    Rng rng_;
};

/** Fisher-Yates shuffle driven by the given Rng. */
template <typename T>
void
shuffle(std::vector<T>& v, Rng& rng)
{
    for (std::size_t i = v.size(); i > 1; --i) {
        std::size_t j = rng.nextBounded(i);
        std::swap(v[i - 1], v[j]);
    }
}

} // namespace ndpext

#endif // NDPEXT_COMMON_RNG_H
