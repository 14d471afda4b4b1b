#include "common/workers.h"

#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

#include <sched.h>

#include "common/logging.h"

namespace ndpext {

namespace {

std::atomic<std::uint64_t> cpusForTest{0};

} // namespace

std::uint64_t
usableCpus()
{
    if (const std::uint64_t n = cpusForTest.load(); n != 0) {
        return n;
    }
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return static_cast<std::uint64_t>(CPU_COUNT(&set));
    }
    return std::thread::hardware_concurrency();
}

void
setUsableCpusForTest(std::uint64_t count)
{
    cpusForTest.store(count);
}

void
runWorkers(std::uint64_t workers,
           const std::function<void(std::uint64_t)>& task)
{
    NDP_ASSERT(workers >= 1);
    std::vector<std::exception_ptr> errors(workers);
    const auto run = [&](std::uint64_t w) {
        try {
            task(w);
        } catch (...) {
            errors[w] = std::current_exception();
        }
    };
    {
        std::vector<std::jthread> pool;
        pool.reserve(workers - 1);
        std::uint64_t w = 1;
        try {
            for (; w < workers; ++w) {
                pool.emplace_back(run, w);
            }
        } catch (const std::system_error&) {
            // The OS refused a thread; this thread runs the tasks left.
        }
        for (; w < workers; ++w) {
            run(w);
        }
        run(0);
    } // joins the pool
    for (const std::exception_ptr& e : errors) {
        if (e) {
            std::rethrow_exception(e);
        }
    }
}

} // namespace ndpext
