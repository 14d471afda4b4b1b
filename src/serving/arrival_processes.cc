/**
 * @file
 * Built-in arrival processes: fixed, poisson, bursty (MMPP-2), diurnal.
 *
 * All of them draw from a seeded xoshiro Rng and emit integer cycle gaps
 * (>= 1), so a process is a pure function of (params, seed, #draws) and
 * serving runs are bit-identical across thread counts and kill-resume.
 */

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "serving/arrival_process.h"

namespace ndpext {
namespace {

/** Round a positive double gap to an integer cycle count >= 1. */
Cycles
toGap(double cycles)
{
    if (!(cycles > 1.0)) {
        return 1;
    }
    return static_cast<Cycles>(std::llround(cycles));
}

/** Standard-exponential draw (mean 1), strictly positive. */
double
expDraw(Rng& rng)
{
    // 1 - nextDouble() is in (0, 1], so the log argument never hits 0.
    return -std::log(1.0 - rng.nextDouble());
}

void
serializeRng(ckpt::Writer& w, const Rng& rng)
{
    std::uint64_t s[4];
    rng.state(s);
    for (int i = 0; i < 4; ++i) {
        w.u64(s[i]);
    }
}

void
deserializeRng(ckpt::Reader& r, Rng& rng)
{
    std::uint64_t s[4];
    for (int i = 0; i < 4; ++i) {
        s[i] = r.u64();
    }
    rng.setState(s);
}

/** Deterministic constant inter-arrival gap (tests, calibration). */
class FixedArrival final : public ArrivalProcess
{
  public:
    FixedArrival(const ArrivalParams& p, std::uint64_t seed)
        : gap_(toGap(p.periodCycles))
    {
        (void)seed;
    }

    Cycles nextGap() override { return gap_; }

    void serialize(ckpt::Writer& w) const override { w.u64(gap_); }
    void deserialize(ckpt::Reader& r) override { gap_ = r.u64(); }

  private:
    Cycles gap_;
};

/** Memoryless arrivals: exponential gaps with the configured mean. */
class PoissonArrival final : public ArrivalProcess
{
  public:
    PoissonArrival(const ArrivalParams& p, std::uint64_t seed)
        : period_(p.periodCycles), rng_(seed)
    {
    }

    Cycles
    nextGap() override
    {
        return toGap(period_ * expDraw(rng_));
    }

    void
    serialize(ckpt::Writer& w) const override
    {
        w.d(period_);
        serializeRng(w, rng_);
    }

    void
    deserialize(ckpt::Reader& r) override
    {
        period_ = r.d();
        deserializeRng(r, rng_);
    }

  private:
    double period_;
    Rng rng_;
};

/**
 * Two-state Markov-modulated Poisson process: exponential dwell times in
 * a calm and a burst state, Poisson arrivals at a state-dependent rate.
 * Rates are scaled so the long-run mean rate equals 1/period:
 *   rate_calm * (1 - frac + frac * factor) = 1 / period.
 */
class BurstyArrival final : public ArrivalProcess
{
  public:
    BurstyArrival(const ArrivalParams& p, std::uint64_t seed) : rng_(seed)
    {
        const double factor = p.get("burst-factor", 8.0);
        const double frac = p.get("burst-frac", 0.15);
        const double burstDwell = p.get("burst-cycles", 100'000.0);
        rateCalm_ = (1.0 / p.periodCycles)
            / (1.0 - frac + frac * factor);
        rateBurst_ = factor * rateCalm_;
        meanBurstDwell_ = burstDwell;
        // Calm dwell chosen so the burst state occupies `frac` of time.
        meanCalmDwell_ = burstDwell * (1.0 - frac) / frac;
        dwellLeft_ = meanCalmDwell_ * expDraw(rng_);
    }

    Cycles
    nextGap() override
    {
        // One exponential unit of "arrival work", consumed across the
        // piecewise-constant rate -- an exact MMPP sample.
        double work = expDraw(rng_);
        double gap = 0.0;
        for (;;) {
            const double rate = burst_ ? rateBurst_ : rateCalm_;
            const double needed = work / rate;
            if (needed <= dwellLeft_) {
                gap += needed;
                dwellLeft_ -= needed;
                return toGap(gap);
            }
            work -= dwellLeft_ * rate;
            gap += dwellLeft_;
            burst_ = !burst_;
            dwellLeft_ = (burst_ ? meanBurstDwell_ : meanCalmDwell_)
                * expDraw(rng_);
        }
    }

    void
    serialize(ckpt::Writer& w) const override
    {
        w.d(rateCalm_);
        w.d(rateBurst_);
        w.d(meanCalmDwell_);
        w.d(meanBurstDwell_);
        w.d(dwellLeft_);
        w.b(burst_);
        serializeRng(w, rng_);
    }

    void
    deserialize(ckpt::Reader& r) override
    {
        rateCalm_ = r.d();
        rateBurst_ = r.d();
        meanCalmDwell_ = r.d();
        meanBurstDwell_ = r.d();
        dwellLeft_ = r.d();
        burst_ = r.b();
        deserializeRng(r, rng_);
    }

  private:
    double rateCalm_ = 0.0;
    double rateBurst_ = 0.0;
    double meanCalmDwell_ = 0.0;
    double meanBurstDwell_ = 0.0;
    double dwellLeft_ = 0.0;
    bool burst_ = false;
    Rng rng_;
};

/**
 * Diurnal rate trace: a non-homogeneous Poisson process whose rate
 * follows 1/period * (1 + amp * sin(2*pi*t / day-cycles)), sampled with
 * Lewis-Shedler thinning against the peak rate.
 */
class DiurnalArrival final : public ArrivalProcess
{
  public:
    DiurnalArrival(const ArrivalParams& p, std::uint64_t seed)
        : baseRate_(1.0 / p.periodCycles),
          amp_(p.get("amp", 0.8)),
          dayCycles_(p.get("day-cycles", 2'000'000.0)),
          rng_(seed)
    {
    }

    Cycles
    nextGap() override
    {
        const double rateMax = baseRate_ * (1.0 + amp_);
        const double start = t_;
        for (;;) {
            t_ += expDraw(rng_) / rateMax;
            const double rate = baseRate_
                * (1.0
                   + amp_
                       * std::sin(2.0 * 3.141592653589793 * t_
                                  / dayCycles_));
            if (rng_.nextDouble() * rateMax < rate) {
                const Cycles gap = toGap(t_ - start);
                t_ = start + static_cast<double>(gap);
                return gap;
            }
        }
    }

    void
    serialize(ckpt::Writer& w) const override
    {
        w.d(baseRate_);
        w.d(amp_);
        w.d(dayCycles_);
        w.d(t_);
        serializeRng(w, rng_);
    }

    void
    deserialize(ckpt::Reader& r) override
    {
        baseRate_ = r.d();
        amp_ = r.d();
        dayCycles_ = r.d();
        t_ = r.d();
        deserializeRng(r, rng_);
    }

  private:
    double baseRate_;
    double amp_;
    double dayCycles_;
    double t_ = 0.0;
    Rng rng_;
};

template <typename T>
std::function<std::unique_ptr<ArrivalProcess>(const ArrivalParams&,
                                              std::uint64_t)>
factoryOf()
{
    return [](const ArrivalParams& p, std::uint64_t seed) {
        return std::make_unique<T>(p, seed);
    };
}

} // namespace

const NamedTable<ArrivalInfo>&
arrivalProcesses()
{
    static const NamedTable<ArrivalInfo> table{
        "arrival process",
        {
            {
                "bursty",
                "two-state MMPP: calm/burst phases with exponential dwell",
                {
                    {"burst-factor",
                     "rate multiplier while bursting (default 8)"},
                    {"burst-frac", "long-run fraction of time bursting "
                                   "(default 0.15)"},
                    {"burst-cycles",
                     "mean burst dwell in cycles (default 100000)"},
                },
                factoryOf<BurstyArrival>(),
            },
            {
                "diurnal",
                "sinusoidal rate trace (non-homogeneous Poisson, thinned)",
                {
                    {"amp", "peak-to-mean rate modulation in [0,1) "
                            "(default 0.8)"},
                    {"day-cycles",
                     "diurnal period in cycles (default 2000000)"},
                },
                factoryOf<DiurnalArrival>(),
            },
            {
                "fixed",
                "deterministic constant inter-arrival gap",
                {},
                factoryOf<FixedArrival>(),
            },
            {
                "poisson",
                "memoryless arrivals with exponential inter-arrival gaps",
                {},
                factoryOf<PoissonArrival>(),
            },
        },
    };
    return table;
}

std::unique_ptr<ArrivalProcess>
createArrivalProcess(const std::string& name, const ArrivalParams& params,
                     std::uint64_t seed)
{
    const ArrivalInfo* info = arrivalProcesses().find(name);
    if (info == nullptr) {
        NDP_FATAL("unknown arrival process: ", name,
                  " (validate configs with SystemConfig::validate first)");
    }
    std::unique_ptr<ArrivalProcess> process = info->factory(params, seed);
    NDP_ASSERT(process != nullptr, "arrival factory returned null");
    return process;
}

} // namespace ndpext
