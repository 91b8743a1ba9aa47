#include "common/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "obs/obs.hpp"

namespace pcnn {
namespace {

/// Pool instruments, registered once. Counters cost one relaxed branch
/// when metrics are off; the clock is only read while they are on.
struct PoolMetrics {
  obs::Counter& jobs = obs::counter("pool.jobs");
  obs::Counter& inlineJobs = obs::counter("pool.inline_jobs");
  obs::Counter& chunks = obs::counter("pool.chunks");
  obs::Counter& busyUs = obs::counter("pool.busy_us");
  obs::LatencyHistogram& jobUs = obs::histogram("pool.job_us");
  obs::LatencyHistogram& queueUs = obs::histogram("pool.queue_us");
  /// Unclaimed chunks of the in-flight job; 0 between jobs. Sampled by
  /// the streaming exporter as a load signal.
  obs::Gauge& queueDepth = obs::gauge("pool.queue_depth");
  static PoolMetrics& instance() {
    static PoolMetrics m;
    return m;
  }
};

int defaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int hwThreads = hw > 0 ? static_cast<int>(hw) : 1;
  return env::intValue("PCNN_NUM_THREADS", hwThreads, 1, 1024);
}

/// Workers claim the published job's chunk indices from one packed atomic
/// word -- (job generation << 32) | next unclaimed index -- by
/// compare-and-swap; the caller participates too, so a pool of size N
/// holds N-1 threads. A claim succeeds only while the word still carries
/// the claimant's generation and an index below that job's size, so a
/// thread that wakes late can never claim (and run) a chunk of a later
/// job against an earlier job's size (DESIGN.md Section 5k).
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  ThreadPool() { resize(defaultThreadCount()); }

  ~ThreadPool() { stopWorkers(); }

  int size() {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int>(workers_.size()) + 1;
  }

  void resize(int n) {
    if (n < 1) n = 1;
    stopWorkers();
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = false;
    for (int i = 0; i < n - 1; ++i) {
      workers_.emplace_back([this] { workerLoop(); });
    }
  }

  void run(long numChunks, const std::function<void(long)>& chunk) {
    if (numChunks <= 0) return;
    if (numChunks > kMaxChunks) {
      throw std::length_error("parallelFor: more than 2^32-1 chunks");
    }
    // Nested parallelFor (a body that itself calls parallelFor) and the
    // single-threaded configuration both run inline: correct, deterministic
    // and deadlock-free.
    if (insideJob_ || numChunks == 1 || workers_.empty()) {
      PoolMetrics& metrics = PoolMetrics::instance();
      metrics.inlineJobs.add();
      metrics.chunks.add(numChunks);
      if (obs::metricsEnabled()) {
        const double t0 = obs::nowMicros();
        for (long c = 0; c < numChunks; ++c) chunk(c);
        const double elapsed = obs::nowMicros() - t0;
        metrics.jobUs.record(elapsed);
        metrics.busyUs.add(static_cast<long>(elapsed));
      } else {
        for (long c = 0; c < numChunks; ++c) chunk(c);
      }
      return;
    }
    PoolMetrics& metrics = PoolMetrics::instance();
    metrics.jobs.add();
    metrics.chunks.add(numChunks);
    const bool measure = obs::metricsEnabled();
    const double t0 = measure ? obs::nowMicros() : 0.0;
    jobStartUs_.store(measure ? static_cast<long>(t0) : -1,
                      std::memory_order_relaxed);
    PCNN_SPAN_ARG("pool.job", "chunks", numChunks);
    std::exception_ptr firstError;
    Job job{0, numChunks, &chunk};
    {
      std::lock_guard<std::mutex> lock(mutex_);
      jobChunk_ = &chunk;
      jobError_ = &firstError;
      jobSize_ = numChunks;
      pending_.store(numChunks, std::memory_order_relaxed);
      ++generation_;
      job.tag = tagOf(generation_);
      claim_.store(job.tag, std::memory_order_release);
    }
    metrics.queueDepth.set(static_cast<double>(numChunks));
    wake_.notify_all();
    insideJob_ = true;
    drainChunks(job);
    insideJob_ = false;
    {
      // Wait until every chunk has finished (not merely been claimed).
      std::unique_lock<std::mutex> lock(mutex_);
      done_.wait(lock, [this] {
        return pending_.load(std::memory_order_acquire) == 0;
      });
      jobChunk_ = nullptr;
      jobError_ = nullptr;
    }
    if (measure) metrics.jobUs.record(obs::nowMicros() - t0);
    if (firstError) std::rethrow_exception(firstError);
  }

 private:
  /// Chunk indices live in the low 32 bits of the claim word.
  static constexpr long kMaxChunks = 0xffffffffL;
  static constexpr std::uint64_t kIndexMask = 0xffffffffULL;

  /// A claimant's snapshot of one job: its tag (generation in the high
  /// word), its size, and its body -- all taken from the same publication.
  struct Job {
    std::uint64_t tag;
    long size;
    const std::function<void(long)>* chunk;
  };

  static std::uint64_t tagOf(std::uint64_t generation) {
    return generation << 32;  // the generation's low 32 bits
  }

  static thread_local bool insideJob_;

  void workerLoop() {
    insideJob_ = true;  // workers never re-dispatch to the pool
    std::uint64_t seenGeneration = 0;
    while (true) {
      Job job{};
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] {
          return stopping_ || generation_ != seenGeneration;
        });
        if (stopping_) return;
        seenGeneration = generation_;
        // The job fields and the generation are published under this
        // mutex, so the snapshot is one job's. If that job has already
        // finished, its claim index sits at its size (or the word carries
        // a later generation) and the first claim fails.
        job = Job{tagOf(generation_), jobSize_, jobChunk_};
      }
      drainChunks(job);
    }
  }

  /// Claims and runs chunks of `job` until its indices are exhausted or a
  /// later job has been published.
  void drainChunks(const Job& job) {
    bool firstClaim = true;
    std::uint64_t word = claim_.load(std::memory_order_acquire);
    while (true) {
      if ((word & ~kIndexMask) != job.tag) return;  // a later job's word
      const long c = static_cast<long>(word & kIndexMask);
      if (c >= job.size) return;
      if (!claim_.compare_exchange_weak(word, word + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        continue;  // `word` now holds the current value; re-check it
      }
      const long unclaimed = job.size - (c + 1);
      PoolMetrics::instance().queueDepth.set(static_cast<double>(unclaimed));
      // Queue latency (job publish -> this thread's first claim) and busy
      // time per chunk; both only measured while metrics are on, and the
      // job-start stamp doubles as the job's measurement flag so a toggle
      // mid-job cannot record a nonsense latency.
      const long jobStart = jobStartUs_.load(std::memory_order_relaxed);
      const bool measure = jobStart >= 0 && obs::metricsEnabled();
      double claimUs = 0.0;
      if (measure) {
        claimUs = obs::nowMicros();
        if (firstClaim) {
          PoolMetrics::instance().queueUs.record(
              claimUs - static_cast<double>(jobStart));
          firstClaim = false;
        }
      }
      try {
        (*job.chunk)(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (jobError_ && !*jobError_) *jobError_ = std::current_exception();
      }
      if (measure) {
        PoolMetrics::instance().busyUs.add(
            static_cast<long>(obs::nowMicros() - claimUs));
      }
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last chunk: release the caller blocked in run().
        std::lock_guard<std::mutex> lock(mutex_);
        done_.notify_all();
      }
      word = claim_.load(std::memory_order_acquire);
    }
  }

  void stopWorkers() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
  std::uint64_t generation_ = 0;

  // The in-flight job, published under mutex_.
  const std::function<void(long)>* jobChunk_ = nullptr;
  std::exception_ptr* jobError_ = nullptr;
  long jobSize_ = 0;
  /// (generation << 32) | next unclaimed chunk index of the latest job.
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<long> pending_{0};
  /// Current job's publish time in whole microseconds (-1 = unmeasured).
  std::atomic<long> jobStartUs_{-1};
};

thread_local bool ThreadPool::insideJob_ = false;

}  // namespace

int threadCount() { return ThreadPool::instance().size(); }

void setThreadCount(int n) { ThreadPool::instance().resize(n); }

void parallelForChunked(long begin, long end, long grain,
                        const std::function<void(long, long)>& body) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  const long numChunks = (end - begin + grain - 1) / grain;
  ThreadPool::instance().run(numChunks, [&](long c) {
    const long lo = begin + c * grain;
    const long hi = lo + grain < end ? lo + grain : end;
    body(lo, hi);
  });
}

void parallelFor(long begin, long end,
                 const std::function<void(long)>& body) {
  parallelForChunked(begin, end, 1, [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) body(i);
  });
}

long suggestedGrain(long items) {
  if (items < 1) return 1;
  const long threads = threadCount();
  if (threads <= 1) return items;  // one chunk, dispatched inline
  constexpr long kChunksPerThread = 4;
  const long grain = items / (threads * kChunksPerThread);
  return grain < 1 ? 1 : grain;
}

}  // namespace pcnn
