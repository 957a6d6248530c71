#pragma once

// gpufi-fabric coordinator: the daemon's one shard pool. Every admitted job
// is planned into trial-range shards that wait in ONE pending queue, ordered
// by (priority, arrival), and two kinds of executor drain it:
//  * local executors — in-process threads that run the single shard of a
//    job submitted with workers = 0 (and of every report job);
//  * remote executors — registered `gpufi worker` connections that run the
//    chunk-aligned shards (exec::plan_shards) of jobs fanned out with
//    workers = N.
// Whichever executor finishes a job's last shard merges the partials IN
// SHARD-INDEX ORDER — the same chunk-order merge exec::run_trials performs
// in-process — so every payload is byte-identical to the offline
// single-process run for ANY worker count, retry history, or completion
// order. A fanned-out job holds no local executor while it waits.
//
// Failure model: a shard is a pure function of (spec, seed, range), so
//  * a DEAD worker (EOF, read error, heartbeat timeout) only costs the
//    re-execution of its in-flight shard — the coordinator requeues it
//    (at most kMaxShardRetries times) and the merged bytes cannot change;
//  * a shard that REPORTS an error (ShardError, or a local exception)
//    failed deterministically — a retry would fail identically, so the job
//    fails immediately;
//  * a job whose token stops (cancel, deadline, client gone, forced
//    shutdown) ends with an error as soon as no local executor still runs
//    one of its shards.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "exec/engine.hpp"
#include "fabric/protocol.hpp"
#include "fabric/transport.hpp"
#include "obs/metrics.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"

namespace gpufi::fabric {

struct CoordinatorConfig {
  /// Where `gpufi worker` processes register. A default Endpoint (empty
  /// unix path) opens no listener: the pool then runs local shards only.
  Endpoint listen;
  /// A worker whose connection stays silent this long (no result, no
  /// progress, no heartbeat) is declared dead and its in-flight shard
  /// requeued. Workers beacon every ~500ms, so this is many missed beats.
  std::uint64_t heartbeat_timeout_ms = 5000;
  /// How long a fanned-out job waits for a live worker before it fails.
  std::uint64_t worker_wait_ms = 10000;
  bool quiet = true;
};

struct CoordinatorStats {
  std::size_t workers_registered = 0;  ///< lifetime successful handshakes
  std::size_t workers_alive = 0;
  std::size_t workers_rejected = 0;  ///< version-mismatch handshakes
  std::size_t shards_dispatched = 0;  ///< handed to any executor
  std::size_t shards_completed = 0;
  std::size_t shards_retried = 0;    ///< requeued after a worker death
  std::size_t shards_duplicate = 0;  ///< late results dropped (already done)
  std::size_t shards_inflight = 0;
  std::size_t shards_pending = 0;
  std::size_t jobs_completed = 0;
  std::size_t jobs_failed = 0;
  std::size_t jobs_queued = 0;  ///< admitted, no shard started yet
  std::size_t jobs_active = 0;  ///< at least one shard started
};

/// One job for the pool.
struct JobRequest {
  /// spec.workers = 0 runs the job as one local shard; N fans it out over
  /// up to N remote workers.
  serve::CampaignSpec spec;
  /// An attribution report (rtl spec): one local shard, answered with the
  /// report JSON instead of the Result payload.
  bool report = false;
  /// Cancel flag and deadline; the pool ends the job once it stops.
  std::shared_ptr<exec::CancelToken> cancel =
      std::make_shared<exec::CancelToken>();
  exec::ProgressFn progress;
  /// Called exactly once, from whichever thread ends the job: ok with the
  /// payload, or !ok with the error text. No progress call follows it.
  std::function<void(bool ok, const std::string& text)> done;
};

class Coordinator {
 public:
  /// Shard retries a job survives before a fleet that keeps losing one
  /// range fails it (a deployment problem, not a retry problem).
  static constexpr unsigned kMaxShardRetries = 3;
  /// A job fanned out over W workers is split into up to W * this many
  /// shards, so a straggler costs 1/(W*k) of the campaign and a retry loses
  /// proportionally little.
  static constexpr unsigned kShardsPerWorker = 4;

  explicit Coordinator(CoordinatorConfig cfg);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Binds the listen endpoint (if any) and spawns the dispatch thread and
  /// `local_executors` in-process executor threads. Admission rejects a job
  /// while `queue_capacity` jobs wait for their first shard to start.
  void start(unsigned local_executors = 0,
             std::size_t queue_capacity =
                 std::numeric_limits<std::size_t>::max());

  /// Admits a job; false when the queue is full or the pool no longer
  /// accepts jobs. Throws std::invalid_argument for a job the pool cannot
  /// run (a fan-out without a listener, a fanned-out report).
  bool submit(JobRequest job);

  /// Stops admissions, lets every admitted job finish, then stop()s.
  void drain();

  /// Severs every worker connection, ends every unfinished job with
  /// `reason` (stopping its token), and joins all threads. Idempotent.
  void stop(const std::string& reason = "coordinator stopped");

  /// Runs one campaign fanned out over up to `max_workers` (>= 1) remote
  /// workers and returns the SAME payload bytes run_spec_offline(spec)
  /// produces. Blocks until done; throws std::runtime_error on failure, and
  /// with message "campaign cancelled" when `cancel` stops the job.
  std::string run_job(const serve::CampaignSpec& spec, unsigned max_workers,
                      const exec::ProgressFn& progress,
                      const exec::CancelToken* cancel);

  /// Blocks until `n` workers are alive (tests); false on timeout.
  bool wait_for_workers(std::size_t n, std::uint64_t timeout_ms);

  CoordinatorStats stats() const;
  /// Port actually bound (TCP listen endpoints with port 0); 0 for unix.
  std::uint16_t port() const;
  const CoordinatorConfig& config() const { return cfg_; }
  /// The local executors' golden and syndrome-database caches, counted in
  /// metrics().
  serve::Caches& caches() { return caches_; }
  /// This pool's lifecycle and cache counters, read by stats() and rendered
  /// into the daemon's metrics exposition; counted whether or not obs is
  /// enabled.
  obs::Registry& metrics() { return metrics_; }

 private:
  struct JobState;
  struct WorkerConn {
    int fd = -1;
    std::string name;
    bool alive = false;
    std::shared_ptr<JobState> job;  ///< in-flight shard's job (null = idle)
    std::uint32_t shard = 0;
    std::chrono::steady_clock::time_point dispatched_at;
  };
  using Jobs = std::vector<std::shared_ptr<JobState>>;

  /// False for a default Endpoint: no listener, local shards only.
  bool listening() const {
    return cfg_.listen.kind == Endpoint::Kind::Tcp || !cfg_.listen.path.empty();
  }
  void accept_loop();
  void session(int fd);
  void dispatch_loop();
  void local_loop();
  /// Takes the first pending shard run by the given executor kind and
  /// marks it dispatched. Called with `mutex_` held.
  std::shared_ptr<JobState> pop(bool remote, std::uint32_t& shard);
  /// Marks `w` dead and requeues (or fails) its in-flight shard. Called
  /// with `mutex_` held.
  void worker_died(WorkerConn& w);
  /// Stores a shard's payload. Called with `mutex_` held.
  void complete(JobState& job, std::uint32_t shard, std::string payload);
  /// Ends `job` with `reason` (the first reason sticks). Called with
  /// `mutex_` held.
  void fail(JobState& job, std::string reason);
  /// Ends stopped jobs and fanned-out jobs no live worker can take. Called
  /// with `mutex_` held.
  void reap();
  /// Claims every job that is over and no local executor still runs,
  /// removing it from jobs_. Called with `mutex_` held; the caller passes
  /// the result to finish() after unlocking.
  Jobs claim_over();
  /// Merges (or forwards the error of) claimed jobs and calls their done().
  void finish(const Jobs& over);
  std::string merge(const JobState& job) const;
  void note_progress(const std::shared_ptr<JobState>& job,
                     std::uint32_t shard, std::uint64_t done,
                     std::uint64_t total, std::unique_lock<std::mutex>& lock);
  void handle_result(ShardResultMsg msg, WorkerConn& w);
  void handle_error(const ShardErrorMsg& msg, WorkerConn& w);
  void handle_progress(const ShardProgressMsg& msg);
  void logf(const char* fmt, ...);

  CoordinatorConfig cfg_;
  obs::Registry metrics_;
  serve::Caches caches_{metrics_};
  obs::Counter& workers_registered_;
  obs::Counter& workers_rejected_;
  obs::Counter& shards_dispatched_;
  obs::Counter& shards_completed_;
  obs::Counter& shards_retried_;
  obs::Counter& shards_duplicate_;
  obs::Counter& jobs_completed_;
  obs::Counter& jobs_failed_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::thread dispatch_thread_;
  std::vector<std::thread> local_threads_;
  std::vector<std::thread> sessions_;
  std::mutex sessions_mutex_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool running_ = false;
  bool accepting_ = false;
  std::size_t queue_capacity_ = 0;
  /// The pending queue: (priority, job id = arrival, shard index).
  std::set<std::tuple<int, std::uint64_t, std::uint32_t>> pending_;
  std::map<std::uint64_t, std::shared_ptr<JobState>> jobs_;
  std::size_t outstanding_ = 0;  ///< admitted jobs whose done() has not run
  std::vector<std::unique_ptr<WorkerConn>> workers_;
  /// Since when no worker has been alive (fanned-out jobs fail after
  /// worker_wait_ms of it).
  std::chrono::steady_clock::time_point workerless_since_;
  std::uint64_t next_job_ = 1;
};

}  // namespace gpufi::fabric
