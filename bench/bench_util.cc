#include "bench_util.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/logging.h"
#include "telemetry/json_out.h"

namespace ndpext {
namespace bench {

BenchArgs
BenchArgs::parse(int argc, char** argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            args.quick = true;
        } else if (arg.rfind("--mem=", 0) == 0) {
            const std::string mem = arg.substr(6);
            if (mem == "hbm") {
                args.memType = NdpMemType::Hbm3;
            } else if (mem == "hmc") {
                args.memType = NdpMemType::Hmc2;
            } else {
                NDP_FATAL("unknown --mem value: ", mem);
            }
        } else if (arg.rfind("--exp=", 0) == 0) {
            args.exp = arg.substr(6);
        } else if (arg.rfind("--workloads=", 0) == 0) {
            std::stringstream ss(arg.substr(12));
            std::string item;
            while (std::getline(ss, item, ',')) {
                args.workloads.push_back(item);
            }
        } else if (arg.rfind("--stats-json=", 0) == 0) {
            args.statsJson = arg.substr(13);
        } else {
            NDP_FATAL("unknown argument: ", arg,
                      " (expected --quick, --mem=, --exp=, --workloads=,"
                      " --stats-json=)");
        }
    }
    return args;
}

SystemConfig
benchConfig(const BenchArgs& args)
{
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.memType = args.memType;
    cfg.finalize();
    return cfg;
}

WorkloadParams
benchWorkloadParams(const BenchArgs& args, std::uint32_t num_cores)
{
    WorkloadParams p;
    p.numCores = num_cores;
    p.footprintBytes = 96_MiB; // 1.5x the 64 MB aggregate DRAM cache
    p.accessesPerCore = args.quick ? 8000 : 20000;
    p.seed = 42;
    return p;
}

Workload&
preparedWorkload(const std::string& name, const BenchArgs& args,
                 std::uint32_t num_cores)
{
    struct Key
    {
        std::string name;
        bool quick;
        std::uint32_t cores;

        bool
        operator<(const Key& o) const
        {
            return std::tie(name, quick, cores)
                < std::tie(o.name, o.quick, o.cores);
        }
    };
    static std::map<Key, std::unique_ptr<Workload>> cache;
    const Key key{name, args.quick, num_cores};
    auto it = cache.find(key);
    if (it == cache.end()) {
        auto w = makeWorkload(name);
        w->prepare(benchWorkloadParams(args, num_cores));
        it = cache.emplace(key, std::move(w)).first;
    }
    return *it->second;
}

RunResult
runPolicy(const SystemConfig& cfg, PolicyKind policy,
          const Workload& workload)
{
    return runPolicy(cfg, policy, workload, nullptr);
}

RunResult
runPolicy(const SystemConfig& cfg, PolicyKind policy,
          const Workload& workload, Telemetry* telemetry)
{
    NdpSystem sys(cfg, policy);
    if (telemetry != nullptr) {
        sys.attachTelemetry(telemetry);
    }
    return sys.run(workload);
}

RunResult
runHost(const Workload& workload)
{
    HostParams hp;
    // Scale the host LLC with the rest of the memory system: the paper
    // pits a 32 MB LLC against >16 GB footprints (~600:1); the scaled
    // 96 MiB footprint gets a 256 kB LLC (384:1, still host-favorable).
    hp.llcBankBytes = 4_KiB;
    hp.numCores = workload.params().numCores;
    // Host mesh follows the core count (numCores must be a square grid
    // at the default 64; other counts use an 8-wide mesh).
    if (hp.numCores == 64) {
        hp.meshX = hp.meshY = 8;
    } else {
        hp.meshX = 8;
        hp.meshY = (hp.numCores + 7) / 8;
        hp.numCores = hp.meshX * hp.meshY;
    }
    HostSystem host(hp);
    return host.run(workload);
}

const std::vector<std::string>&
analysisWorkloads()
{
    static const std::vector<std::string> kSet = {"recsys", "mv", "hotspot",
                                                  "pr", "bfs"};
    return kSet;
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty()) {
        return 0.0;
    }
    double log_sum = 0.0;
    for (const double v : values) {
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

/** Insertion-ordered process-wide results for --stats-json. */
std::vector<std::pair<std::string, double>>&
statRecords()
{
    static std::vector<std::pair<std::string, double>> records;
    return records;
}

} // namespace

void
recordStat(const std::string& name, double value)
{
    for (auto& [existing, v] : statRecords()) {
        if (existing == name) {
            v = value; // last write wins (e.g. a rerun sub-experiment)
            return;
        }
    }
    statRecords().emplace_back(name, value);
}

int
finishStats(const BenchArgs& args)
{
    if (args.statsJson.empty()) {
        return 0;
    }
    std::string error;
    const bool ok = writeFileAtomic(
        args.statsJson,
        [](std::ostream& out) {
            out << "{\n  \"stats\": {";
            bool first = true;
            for (const auto& [name, value] : statRecords()) {
                out << (first ? "\n    " : ",\n    ")
                    << jsonout::str(name) << ": " << jsonout::num(value);
                first = false;
            }
            out << "\n  }\n}\n";
        },
        &error);
    if (!ok) {
        std::fprintf(stderr, "cannot write --stats-json file '%s': %s\n",
                     args.statsJson.c_str(), error.c_str());
        return 1;
    }
    return 0;
}

Table::Table(std::vector<std::string> columns)
    : columns_(std::move(columns))
{
}

void
Table::addRow(const std::string& label, const std::vector<double>& values)
{
    for (std::size_t i = 0; i < values.size() && i < columns_.size(); ++i) {
        std::string name = label;
        name += '.';
        name += columns_[i];
        recordStat(name, values[i]);
    }
    rows_.emplace_back(label, values);
}

void
Table::print() const
{
    std::printf("%-14s", "");
    for (const auto& col : columns_) {
        std::printf(" %12s", col.c_str());
    }
    std::printf("\n");
    for (const auto& [label, values] : rows_) {
        std::printf("%-14s", label.c_str());
        for (const double v : values) {
            std::printf(" %12.3f", v);
        }
        std::printf("\n");
    }
}

} // namespace bench
} // namespace ndpext
