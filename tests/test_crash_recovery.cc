/**
 * Crash-recovery chaos test: repeatedly SIGKILL a checkpointing run at
 * randomized points, resuming each attempt from the newest valid image
 * (the supervisor's strategy), and assert that the final resumed run is
 * bit-identical to an uninterrupted golden run. This exercises the full
 * kill-at-any-instant story end to end: atomic image writes, newest-
 * valid discovery, and epoch-barrier restore.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/checkpoint.h"
#include "system/ndp_system.h"
#include "test_util.h"
#include "workloads/workload.h"

namespace ndpext {
namespace {

SystemConfig
tinyConfig()
{
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.stacksX = 2;
    cfg.stacksY = 1;
    cfg.unitsX = 2;
    cfg.unitsY = 2; // 8 units
    cfg.unitCacheBytes = 256_KiB;
    cfg.runtime.epochCycles = 20'000;
    cfg.finalize();
    return cfg;
}

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.numCores = 8;
    p.footprintBytes = 16_MiB;
    p.accessesPerCore = 4000;
    p.seed = 7;
    return p;
}

/**
 * One attempt: fork a child that resumes from the newest valid image
 * (if any), runs with per-epoch checkpointing, and exits 0 on
 * completion. The parent kills it after `kill_after` unless it finishes
 * first. Returns true when the child completed the run.
 */
bool
runAttempt(const Workload& w, const std::string& prefix,
           std::chrono::milliseconds kill_after)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        NdpSystem sys(tinyConfig(), PolicyKind::NdpExt);
        sys.setCheckpointing(prefix, 1);
        std::string image;
        std::string error;
        if (ckpt::findLatestValidCheckpoint(prefix, &image, nullptr,
                                            &error)) {
            if (!sys.setResume(image, w, &error)) {
                ::_exit(3);
            }
        }
        sys.run(w);
        ::_exit(0);
    }
    if (pid < 0) {
        ADD_FAILURE() << "fork failed";
        return false;
    }

    const auto deadline = std::chrono::steady_clock::now() + kill_after;
    int status = 0;
    for (;;) {
        const pid_t done = ::waitpid(pid, &status, WNOHANG);
        if (done == pid) {
            EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
                << "child failed with status " << status;
            return true;
        }
        if (std::chrono::steady_clock::now() >= deadline) {
            ::kill(pid, SIGKILL);
            while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
            }
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

TEST(CrashRecovery, KillAnywhereConvergesToGolden)
{
    auto w = makeWorkload("pr");
    w->prepare(tinyParams());

    NdpSystem goldenSys(tinyConfig(), PolicyKind::NdpExt);
    const RunResult golden = goldenSys.run(*w);

    // Fresh directory per invocation: a stale frontier from a previous
    // test run would let the first attempt resume straight to the end.
    const std::string prefix = freshPrefix("chaos");
    std::mt19937 rng(20260808);
    std::uniform_int_distribution<int> slice(5, 40);

    // Chaos phase: kill the run at short randomized slices. Each
    // attempt resumes from the checkpoint frontier of the previous
    // ones, so progress is monotone even under constant kills. An
    // attempt may finish inside its slice once the frontier is near the
    // end; that just ends the phase early.
    bool completed = false;
    int kills = 0;
    for (int attempt = 0; attempt < 25 && !completed; ++attempt) {
        completed = runAttempt(
            *w, prefix, std::chrono::milliseconds(slice(rng)));
        if (!completed) {
            ++kills;
        }
    }
    EXPECT_GT(kills, 0) << "no attempt was actually killed; the chaos "
                           "slice is too generous to test recovery";

    // Completion phase: one undisturbed attempt resumes from whatever
    // frontier the kills left behind and must finish.
    if (!completed) {
        completed = runAttempt(*w, prefix, std::chrono::hours(1));
    }
    ASSERT_TRUE(completed) << "run failed to complete from the frontier";

    // A checkpoint frontier must exist, and resuming from it in-process
    // must reproduce the uninterrupted result bit for bit.
    std::string image;
    std::string error;
    ckpt::CheckpointHeader header;
    ASSERT_TRUE(
        ckpt::findLatestValidCheckpoint(prefix, &image, &header, &error))
        << error;
    EXPECT_GE(header.epoch, 1u);

    NdpSystem resumed(tinyConfig(), PolicyKind::NdpExt);
    ASSERT_TRUE(resumed.setResume(image, *w, &error)) << error;
    const RunResult got = resumed.run(*w);

    EXPECT_EQ(golden.cycles, got.cycles);
    EXPECT_EQ(golden.accesses, got.accesses);
    EXPECT_EQ(golden.l1Hits, got.l1Hits);
    EXPECT_EQ(golden.bd.requests, got.bd.requests);
    EXPECT_EQ(golden.bd.dramCache, got.bd.dramCache);
    EXPECT_EQ(golden.bd.extMem, got.bd.extMem);
    EXPECT_DOUBLE_EQ(golden.missRate, got.missRate);
    EXPECT_DOUBLE_EQ(golden.energy.totalNj(), got.energy.totalNj());
    EXPECT_EQ(golden.writeExceptions, got.writeExceptions);
    EXPECT_EQ(golden.reconfigurations, got.reconfigurations);
    expectSameStats(golden, got);
}

} // namespace
} // namespace ndpext
