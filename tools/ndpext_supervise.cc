/**
 * @file
 * Kill-resume supervisor for ndpext_sim: launches the simulator with
 * checkpointing enabled, detects abnormal exits (crash, OOM kill, power
 * loss of the child), and relaunches from the newest *valid* checkpoint
 * until the run completes or the retry budget is exhausted.
 *
 *     ndpext_supervise [options] --checkpoint=PREFIX -- <sim> <args...>
 *
 * The supervisor appends `--checkpoint=PREFIX` to every attempt and
 * `--resume=<newest valid image>` to retries, so the wrapped command
 * line must not pass those flags itself. Because checkpoint images are
 * written atomically and validated (CRC + config hash) before use, a
 * kill at any instant loses at most the epochs since the last barrier;
 * corrupt images are skipped in favor of the previous valid one.
 *
 * `--kill-after-ms=T` is a chaos-testing hook: the supervisor itself
 * SIGKILLs each attempt T milliseconds after launch. Progress still
 * converges because every attempt resumes from the checkpoint frontier
 * of the previous one. CI uses this to prove crash recovery end to end.
 *
 * The simulator rewrites `PREFIX.heartbeat.json` at every epoch barrier
 * (the supervisor's PREFIX, since it owns the checkpoint flags). The
 * supervisor reads it two ways: on each retry it reports the epoch the
 * run had reached and an ETA extrapolated from the heartbeat's own
 * rate, and with `--hang-after-ms=T` it watches the file's mtime while
 * the child runs -- a child that is alive but has not refreshed its
 * heartbeat for T ms is declared hung, SIGKILLed, and the supervisor
 * fails fast (retrying a deterministic hang would hang again).
 */

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/parse.h"
#include "sim/checkpoint.h"
#include "telemetry/tiny_json.h"

namespace {

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options] --checkpoint=PREFIX -- <sim> <args...>\n"
        "\n"
        "Supervise a checkpointing ndpext_sim run: launch it, and on\n"
        "abnormal exit resume from the newest valid checkpoint image.\n"
        "\n"
        "options:\n"
        "  --checkpoint=PREFIX   checkpoint path prefix (required);\n"
        "                        appended to the child command line\n"
        "  --checkpoint-every=N  forwarded to the child (default: its\n"
        "                        own default)\n"
        "  --max-retries=N       relaunch budget after failures\n"
        "                        (default 5)\n"
        "  --kill-after-ms=T     chaos hook: SIGKILL each attempt T ms\n"
        "                        after launch (default: off)\n"
        "  --hang-after-ms=T     declare the child hung when its\n"
        "                        PREFIX.heartbeat.json has not been\n"
        "                        refreshed for T ms while the child is\n"
        "                        still alive; SIGKILL it and fail fast\n"
        "                        (default: off)\n",
        argv0);
    std::exit(2);
}

struct Options
{
    std::string checkpoint;
    std::string checkpointEvery;
    std::uint64_t maxRetries = 5;
    std::uint64_t killAfterMs = 0;
    std::uint64_t hangAfterMs = 0;
    std::vector<std::string> child;
};

bool
parseFlag(const std::string& arg, const char* name, std::string* value)
{
    const std::string key = std::string(name) + "=";
    if (arg.compare(0, key.size(), key) != 0) {
        return false;
    }
    *value = arg.substr(key.size());
    return true;
}

/**
 * Longest --kill-after-ms / --hang-after-ms: half the steady clock's
 * range (about 146 years), so launch time plus the limit, in the
 * clock's signed 64-bit nanoseconds, cannot wrap into the past.
 */
constexpr std::uint64_t kMaxWaitMs =
    std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::duration::max())
        .count()
    / 2;

std::uint64_t
count(const std::string& value, const char* flag, const char* argv0,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    std::uint64_t v = 0;
    if (!ndpext::parseCount(value, max, &v)) {
        std::fprintf(stderr, "%s: bad value for %s: '%s' (at most %llu)\n",
                     argv0, flag, value.c_str(),
                     static_cast<unsigned long long>(max));
        std::exit(2);
    }
    return v;
}

Options
parseArgs(int argc, char** argv)
{
    Options opt;
    int i = 1;
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--") {
            ++i;
            break;
        } else if (parseFlag(arg, "--checkpoint", &value)) {
            opt.checkpoint = value;
        } else if (parseFlag(arg, "--checkpoint-every", &value)) {
            opt.checkpointEvery = value;
        } else if (parseFlag(arg, "--max-retries", &value)) {
            opt.maxRetries = count(value, "--max-retries", argv[0]);
        } else if (parseFlag(arg, "--kill-after-ms", &value)) {
            opt.killAfterMs =
                count(value, "--kill-after-ms", argv[0], kMaxWaitMs);
            if (opt.killAfterMs == 0) {
                std::fprintf(stderr, "%s: --kill-after-ms must be > 0\n",
                             argv[0]);
                std::exit(2);
            }
        } else if (parseFlag(arg, "--hang-after-ms", &value)) {
            opt.hangAfterMs =
                count(value, "--hang-after-ms", argv[0], kMaxWaitMs);
            if (opt.hangAfterMs == 0) {
                std::fprintf(stderr, "%s: --hang-after-ms must be > 0\n",
                             argv[0]);
                std::exit(2);
            }
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         arg.c_str());
            usage(argv[0]);
        }
    }
    for (; i < argc; ++i) {
        opt.child.emplace_back(argv[i]);
    }
    if (opt.checkpoint.empty()) {
        std::fprintf(stderr, "%s: --checkpoint=PREFIX is required\n",
                     argv[0]);
        usage(argv[0]);
    }
    if (opt.child.empty()) {
        std::fprintf(stderr, "%s: no child command after '--'\n", argv[0]);
        usage(argv[0]);
    }
    for (const std::string& arg : opt.child) {
        if (arg.compare(0, 13, "--checkpoint=") == 0
            || arg.compare(0, 9, "--resume=") == 0
            || arg.compare(0, 19, "--checkpoint-every=") == 0) {
            std::fprintf(stderr,
                         "%s: the child command must not pass '%s'; the "
                         "supervisor manages checkpoint flags itself\n",
                         argv[0], arg.c_str());
            std::exit(2);
        }
    }
    return opt;
}

/** Heartbeat mtime in milliseconds since the Unix epoch (0 = no file). */
std::uint64_t
heartbeatMtimeMs(const std::string& path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
        return 0;
    }
    return static_cast<std::uint64_t>(st.st_mtim.tv_sec) * 1000
        + static_cast<std::uint64_t>(st.st_mtim.tv_nsec) / 1000000;
}

/**
 * Report the last heartbeat the previous attempt left behind: how far
 * it got and -- from the heartbeat's own wall-clock/cycle stamps -- a
 * rough ETA to the serving horizon. Best effort: silent when the file
 * is missing or unparseable (the checkpoint is the source of truth).
 */
void
reportLastHeartbeat(const std::string& hb_path)
{
    std::ifstream in(hb_path, std::ios::binary);
    if (!in) {
        return;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const ndpext::json::ValuePtr hb = ndpext::json::parse(ss.str());
    if (hb == nullptr) {
        return;
    }
    std::string eta = "unknown";
    const double cycles = hb->num("cycles");
    const double horizon = hb->num("horizonCycles");
    const double progressed = cycles - hb->num("startCycles");
    const double elapsed_ms =
        hb->num("wallUnixMs") - hb->num("startUnixMs");
    if (horizon > cycles && progressed > 0.0 && elapsed_ms > 0.0) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "~%.1fs to horizon",
                      (horizon - cycles) * elapsed_ms / progressed / 1e3);
        eta = buf;
    } else if (horizon > 0.0 && cycles >= horizon) {
        eta = "past horizon (draining)";
    }
    std::fprintf(stderr,
                 "ndpext_supervise: last heartbeat: epoch %llu, cycle "
                 "%llu, ETA %s\n",
                 static_cast<unsigned long long>(hb->num("epoch")),
                 static_cast<unsigned long long>(cycles), eta.c_str());
}

struct AttemptResult
{
    int status = 0;
    /** The supervisor killed the child for a stale heartbeat. */
    bool hung = false;
    /** Milliseconds without a heartbeat refresh when declared hung. */
    std::uint64_t staleMs = 0;
};

/**
 * Run one attempt to completion (or until the chaos kill or the
 * hang detector fires). Returns the child's wait status via waitpid
 * semantics, plus whether the hang detector killed it.
 */
AttemptResult
runAttempt(const std::vector<std::string>& args, std::uint64_t kill_after_ms,
           std::uint64_t hang_after_ms, const std::string& hb_path)
{
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        std::fprintf(stderr, "ndpext_supervise: fork: %s\n",
                     std::strerror(errno));
        std::exit(1);
    }
    if (pid == 0) {
        ::execvp(argv[0], argv.data());
        std::fprintf(stderr, "ndpext_supervise: exec '%s': %s\n", argv[0],
                     std::strerror(errno));
        ::_exit(127);
    }

    if (kill_after_ms > 0 || hang_after_ms > 0) {
        // Polling mode: chaos kill after a fixed slice, and/or the hang
        // detector watching the heartbeat file's mtime. A completed
        // child is reaped normally.
        const auto start = std::chrono::steady_clock::now();
        const auto kill_deadline =
            start + std::chrono::milliseconds(kill_after_ms);
        // Baseline for "no heartbeat yet": launch time. A pre-existing
        // heartbeat from the previous attempt only counts once the
        // child refreshes it.
        std::uint64_t last_mtime =
            hang_after_ms > 0 ? heartbeatMtimeMs(hb_path) : 0;
        auto last_progress = start;
        for (;;) {
            int status = 0;
            const pid_t done = ::waitpid(pid, &status, WNOHANG);
            if (done == pid) {
                return {status, false, 0};
            }
            const auto now = std::chrono::steady_clock::now();
            if (kill_after_ms > 0 && now >= kill_deadline) {
                ::kill(pid, SIGKILL);
                break;
            }
            if (hang_after_ms > 0) {
                const std::uint64_t mtime = heartbeatMtimeMs(hb_path);
                if (mtime != 0 && mtime != last_mtime) {
                    last_mtime = mtime;
                    last_progress = now;
                }
                const auto stale = now - last_progress;
                if (stale >= std::chrono::milliseconds(hang_after_ms)) {
                    ::kill(pid, SIGKILL);
                    AttemptResult res;
                    res.hung = true;
                    res.staleMs = static_cast<std::uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::milliseconds>(stale)
                            .count());
                    while (::waitpid(pid, &res.status, 0) < 0
                           && errno == EINTR) {
                    }
                    return res;
                }
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) {
            std::fprintf(stderr, "ndpext_supervise: waitpid: %s\n",
                         std::strerror(errno));
            std::exit(1);
        }
    }
    return {status, false, 0};
}

std::string
describeStatus(int status)
{
    if (WIFEXITED(status)) {
        return "exit code " + std::to_string(WEXITSTATUS(status));
    }
    if (WIFSIGNALED(status)) {
        return std::string("signal ") + std::to_string(WTERMSIG(status))
            + " (" + strsignal(WTERMSIG(status)) + ")";
    }
    return "wait status " + std::to_string(status);
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opt = parseArgs(argc, argv);

    std::vector<std::string> base = opt.child;
    base.push_back("--checkpoint=" + opt.checkpoint);
    if (!opt.checkpointEvery.empty()) {
        base.push_back("--checkpoint-every=" + opt.checkpointEvery);
    }

    const std::string hb_path = opt.checkpoint + ".heartbeat.json";
    for (std::uint64_t attempt = 0;; ++attempt) {
        std::vector<std::string> args = base;
        std::string resumed_from;
        if (attempt > 0) {
            reportLastHeartbeat(hb_path);
            // Retries resume from the newest image that passes header +
            // CRC validation; a corrupt newest image falls back to the
            // previous one. The child revalidates against its config
            // hash, so a stale image from another run still fails fast.
            std::string path;
            std::string error;
            ndpext::ckpt::CheckpointHeader header;
            if (ndpext::ckpt::findLatestValidCheckpoint(opt.checkpoint,
                                                        &path, &header,
                                                        &error)) {
                args.push_back("--resume=" + path);
                resumed_from = path;
                std::fprintf(stderr,
                             "ndpext_supervise: attempt %llu resumes "
                             "from '%s' (epoch %llu)\n",
                             static_cast<unsigned long long>(attempt + 1),
                             path.c_str(),
                             static_cast<unsigned long long>(header.epoch));
            } else {
                std::fprintf(stderr,
                             "ndpext_supervise: attempt %llu restarts "
                             "from scratch: %s\n",
                             static_cast<unsigned long long>(attempt + 1),
                             error.c_str());
            }
        }

        const AttemptResult res =
            runAttempt(args, opt.killAfterMs, opt.hangAfterMs, hb_path);
        if (res.hung) {
            // A deterministic simulator that stops heartbeating while
            // alive is wedged (deadlock, livelock, or a filesystem that
            // swallowed the heartbeat); a retry would wedge the same
            // way, so surface it instead of burning the budget.
            std::fprintf(
                stderr,
                "ndpext_supervise: attempt %llu hung: child was alive "
                "but '%s' saw no refresh for %llu ms "
                "(--hang-after-ms=%llu); SIGKILLed it. Inspect the "
                "child with ndpext_report watch, raise --hang-after-ms "
                "if epochs legitimately take longer, or resume manually "
                "from the newest checkpoint.\n",
                static_cast<unsigned long long>(attempt + 1),
                hb_path.c_str(),
                static_cast<unsigned long long>(res.staleMs),
                static_cast<unsigned long long>(opt.hangAfterMs));
            reportLastHeartbeat(hb_path);
            return 1;
        }
        const int status = res.status;
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            if (attempt > 0) {
                std::fprintf(stderr,
                             "ndpext_supervise: run completed after "
                             "%llu retr%s\n",
                             static_cast<unsigned long long>(attempt),
                             attempt == 1 ? "y" : "ies");
            }
            return 0;
        }
        std::fprintf(stderr, "ndpext_supervise: attempt %llu failed: %s\n",
                     static_cast<unsigned long long>(attempt + 1),
                     describeStatus(status).c_str());
        // Usage errors and bad-checkpoint rejections are deterministic:
        // relaunching cannot help, so fail fast instead of burning the
        // retry budget. Crashes and kills are the retryable class.
        if (WIFEXITED(status)
            && (WEXITSTATUS(status) == 2 || WEXITSTATUS(status) == 127)) {
            std::fprintf(stderr,
                         "ndpext_supervise: child failure is not "
                         "retryable, giving up\n");
            return 1;
        }
        if (WIFEXITED(status) && WEXITSTATUS(status) == 1
            && !resumed_from.empty()) {
            // A resume the child rejected (config mismatch) would loop
            // forever picking the same image; surface it instead.
            std::fprintf(stderr,
                         "ndpext_supervise: child rejected resume image "
                         "'%s', giving up\n",
                         resumed_from.c_str());
            return 1;
        }
        if (attempt >= opt.maxRetries) {
            std::fprintf(stderr,
                         "ndpext_supervise: retry budget (%llu) "
                         "exhausted, giving up\n",
                         static_cast<unsigned long long>(opt.maxRetries));
            return 1;
        }
    }
}
