/**
 * @file
 * The one way to start worker threads: a pool sized by the CPUs this
 * process may run on, numbered tasks, and the calling thread as the
 * fallback for any thread the OS refuses.
 */

#ifndef NDPEXT_COMMON_WORKERS_H
#define NDPEXT_COMMON_WORKERS_H

#include <cstdint>
#include <functional>

namespace ndpext {

/**
 * CPUs this process may run on: its affinity mask, not every CPU on the
 * machine (or the count a test set with setUsableCpusForTest()).
 */
std::uint64_t usableCpus();

/**
 * Test entry: make usableCpus() return `count`, so a test can run a
 * parallel phase at a chosen worker count on any host. 0 restores the
 * affinity mask.
 */
void setUsableCpusForTest(std::uint64_t count);

/**
 * Run task(w) for every w in [0, workers), workers >= 1, and return
 * once every task has returned. Tasks 1.. each get a std::jthread; the
 * calling thread runs task 0, after every task whose thread the OS
 * refused. The first exception a task throws, by task number, is
 * rethrown here.
 */
void runWorkers(std::uint64_t workers,
                const std::function<void(std::uint64_t)>& task);

} // namespace ndpext

#endif // NDPEXT_COMMON_WORKERS_H
