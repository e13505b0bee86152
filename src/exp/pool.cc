#include "exp/pool.hh"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/log.hh"

namespace kelp {
namespace exp {

int
hardwareJobs()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

int
resolveJobs(int requested)
{
    return requested >= 1 ? requested : hardwareJobs();
}

void
runJobs(int jobCount, int workers,
        const std::function<void(int)> &work,
        const std::function<void(int)> &commit)
{
    KELP_EXPECTS(jobCount >= 0, "runJobs: negative job count");
    KELP_EXPECTS(static_cast<bool>(work), "runJobs: null work function");
    if (jobCount == 0)
        return;

    const int effective = std::min(resolveJobs(workers), jobCount);
    if (effective <= 1) {
        // Reference path: a plain serial loop. The parallel path
        // below must be byte-identical to this one.
        for (int i = 0; i < jobCount; ++i) {
            work(i);
            if (commit)
                commit(i);
        }
        return;
    }

    std::atomic<int> nextJob{0};
    std::atomic<bool> cancel{false};
    std::vector<std::exception_ptr> errors(jobCount);
    std::vector<char> done(jobCount, 0);
    std::mutex doneMutex;
    std::condition_variable doneCv;

    auto workerLoop = [&]() {
        for (;;) {
            const int i = nextJob.fetch_add(1);
            if (i >= jobCount || cancel.load())
                return;
            std::exception_ptr err;
            try {
                work(i);
            } catch (...) {
                err = std::current_exception();
            }
            {
                std::lock_guard<std::mutex> lk(doneMutex);
                errors[i] = err;
                done[i] = 1;
            }
            doneCv.notify_all();
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(effective);
    for (int t = 0; t < effective; ++t)
        threads.emplace_back(workerLoop);

    // Commit on the calling thread in strict index order. On the
    // first failed job, stop committing, drain the workers, and
    // rethrow -- the same exception a serial loop would have thrown
    // first.
    std::exception_ptr firstError;
    for (int i = 0; i < jobCount && !firstError; ++i) {
        {
            std::unique_lock<std::mutex> lk(doneMutex);
            doneCv.wait(lk, [&] { return done[i] != 0; });
            firstError = errors[i];
        }
        if (!firstError && commit)
            commit(i);
    }
    if (firstError)
        cancel.store(true);
    for (auto &t : threads)
        t.join();
    if (firstError)
        std::rethrow_exception(firstError);
}

namespace {

std::mutex &
initMutex()
{
    static std::mutex m;
    return m;
}

} // namespace

InitGuard::InitGuard()
{
    initMutex().lock();
}

InitGuard::~InitGuard()
{
    initMutex().unlock();
}

} // namespace exp
} // namespace kelp
