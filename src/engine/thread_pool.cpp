#include "engine/thread_pool.h"

#include "obs/trace.h"

namespace yafim::engine {

namespace {
thread_local bool t_on_pool_thread = false;
}  // namespace

bool ThreadPool::on_pool_thread() { return t_on_pool_thread; }

ThreadPool::ThreadPool(u32 threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (u32 i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  if (obs::enabled()) {
    // Split each task's latency into queue wait vs run time; the gap
    // between the two is scheduling pressure (more tasks than threads).
    // The summed wait grows with the number of tasks queued behind the
    // workers, so the longest single wait is kept alongside it.
    fn = [fn = std::move(fn),
          enqueued_us = obs::Tracer::instance().now_us()] {
      obs::Tracer& tracer = obs::Tracer::instance();
      const u64 started_us = tracer.now_us();
      // A Tracer::reset() between enqueue and run rebases the epoch, which
      // can make the later timestamp the *smaller* one; the unsigned
      // subtraction would then credit ~2^64 us of queue wait. Clamp to 0.
      if (started_us > enqueued_us) {
        obs::count(obs::CounterId::kPoolQueueWaitUsSum,
                   started_us - enqueued_us);
        obs::count_max(obs::CounterId::kPoolQueueWaitUsMax,
                       started_us - enqueued_us);
      }
      fn();
      const u64 finished_us = tracer.now_us();
      if (finished_us > started_us) {
        obs::count(obs::CounterId::kPoolTaskRunUs, finished_us - started_us);
      }
      obs::count(obs::CounterId::kPoolTasks, 1);
    };
  }
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    util::MutexLock lock(mutex_);
    YAFIM_CHECK(!stopping_, "submit() after shutdown");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::parallel_for(u32 n, const std::function<void(u32)>& f) {
  YAFIM_CHECK(!on_pool_thread(),
              "parallel_for() from a pool thread would deadlock");
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (u32 i = 0; i < n; ++i) {
    futures.push_back(submit([&f, i] { f(i); }));
  }
  // Drain EVERY future before rethrowing: an early get() throwing would
  // unwind this frame while later tasks are still queued holding references
  // to `f` (and to the caller's captures) -- a use-after-free. Only once
  // all tasks are accounted for is the first failure rethrown.
  std::exception_ptr first_error;
  for (auto& fut : futures) {
    try {
      fut.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::worker_loop(u32 index) {
  t_on_pool_thread = true;
  obs::Tracer::instance().set_thread_name("pool-" + std::to_string(index));
  for (;;) {
    std::packaged_task<void()> task;
    {
      util::MutexLock lock(mutex_);
      // Spelled-out predicate loop: thread-safety analysis cannot look
      // inside a wait-predicate lambda (see util/thread_annotations.h).
      while (!stopping_ && queue_.empty()) cv_.wait(mutex_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions are captured into the packaged_task's future
  }
}

}  // namespace yafim::engine
