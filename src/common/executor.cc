#include "common/executor.hh"

#include <algorithm>

#include "common/logging.hh"

namespace compaqt::common
{

Executor::Executor(int workers, int callers)
    : workers_(workers)
{
    COMPAQT_REQUIRE(callers >= 1 && workers >= callers,
                    "executor needs a caller and a worker per caller");
    threads_.reserve(static_cast<std::size_t>(workers - callers));
    for (int t = callers; t < workers; ++t)
        threads_.emplace_back([this] { helpUntil([this] { return stop_; }); });
}

int
Executor::defaultWorkerCount()
{
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<int>(hc);
}

Executor::~Executor()
{
    {
        std::lock_guard lock(mu_);
        stop_ = true;
    }
    notify();
    for (auto &t : threads_)
        t.join();
}

void
Executor::drain(std::unique_lock<std::mutex> &lock, Batch &batch,
                std::size_t worker)
{
    std::size_t ran = 0;
    std::exception_ptr error;
    for (;;) {
        const std::size_t i = batch.next.fetch_add(1);
        if (i >= batch.n)
            break;
        try {
            (*batch.fn)(worker, i);
        } catch (...) {
            if (!error)
                error = std::current_exception();
        }
        ++ran;
    }
    lock.lock();
    // Every job is claimed: the batch takes no more threads.
    std::erase_if(open_, [&](const auto &b) { return b.get() == &batch; });
    if (error && !batch.error)
        batch.error = error;
    batch.completed += ran;
    if (batch.completed == batch.n)
        batch.done.notify_all();
}

void
Executor::helpUntil(const std::function<bool()> &ready)
{
    std::unique_lock lock(mu_);
    while (!ready()) {
        if (open_.empty()) {
            Sleeper me;
            me.ready = &ready;
            sleepers_.push_back(&me);
            me.cv.wait(lock, [&] { return me.woken; });
            continue;
        }
        const std::shared_ptr<Batch> batch = open_.front();
        const std::size_t worker = ++batch->joined;
        lock.unlock();
        drain(lock, *batch, worker);
    }
}

void
Executor::notify()
{
    // Wake only the sleepers whose condition now holds: a thread woken
    // to find nothing to do still costs a CPU wake-up.
    std::lock_guard lock(mu_);
    std::erase_if(sleepers_, [](Sleeper *s) {
        if (!(*s->ready)())
            return false;
        s->woken = true;
        s->cv.notify_one();
        return true;
    });
}

void
Executor::forEach(std::size_t n,
                  const std::function<void(std::size_t)> &fn)
{
    forEachWorker(n,
                  [&fn](std::size_t, std::size_t i) { fn(i); });
}

void
Executor::forEachWorker(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)> &fn)
{
    if (n == 0)
        return;
    // Published even without pool threads: a thread in helpUntil()
    // may take jobs of it.
    auto batch = std::make_shared<Batch>();
    batch->fn = &fn;
    batch->n = n;
    std::unique_lock lock(mu_);
    open_.push_back(batch);
    // One sleeper per job but the one the caller starts on, the most
    // recently idle first.
    for (std::size_t k = 1; k < n && !sleepers_.empty(); ++k) {
        Sleeper *s = sleepers_.back();
        sleepers_.pop_back();
        s->woken = true;
        s->cv.notify_one();
    }
    lock.unlock();
    drain(lock, *batch, 0);
    batch->done.wait(lock, [&] { return batch->completed == batch->n; });
    if (batch->error)
        std::rethrow_exception(batch->error);
}

} // namespace compaqt::common
