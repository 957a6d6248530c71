#include "fabric/coordinator.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <future>
#include <stdexcept>

#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace gpufi::fabric {

namespace {

using Clock = std::chrono::steady_clock;

void set_recv_timeout(int fd, std::uint64_t ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

std::string stop_reason(const exec::CancelToken& token) {
  return token.cancelled() ? "campaign cancelled" : "deadline exceeded";
}

}  // namespace

struct Coordinator::JobState {
  std::uint64_t id = 0;
  JobRequest req;
  bool remote = false;  ///< shards run on remote workers
  /// One shard whose payload is the public serialization, forwarded
  /// verbatim; otherwise every shard returns a lossless partial.
  bool final_payload = false;
  std::vector<exec::TrialRange> ranges;
  std::vector<std::optional<std::string>> partials;
  std::size_t completed = 0;
  std::size_t local_running = 0;
  bool started = false;
  bool failed = false;
  bool claimed = false;
  std::string error;
  Clock::time_point admitted, started_at;
  /// Per-shard trials-done high-water marks: progress survives a retry
  /// (the rerun's early frames never regress the job's done count).
  std::vector<std::uint64_t> shard_done;
  std::vector<unsigned> attempts;  ///< per-shard losses to dead workers
  std::uint64_t total_trials = 0;
  /// Serializes everything said to the job's client: progress calls and
  /// the final done(), after which `finished` silences progress.
  std::mutex reply_mutex;
  bool finished = false;
  std::uint64_t last_done_reported = 0;

  bool over() const { return failed || completed == partials.size(); }
};

Coordinator::Coordinator(CoordinatorConfig cfg)
    : cfg_(std::move(cfg)),
      workers_registered_(
          metrics_.counter("gpufi_fabric_workers_registered_total")),
      workers_rejected_(metrics_.counter("gpufi_fabric_workers_rejected_total")),
      shards_dispatched_(
          metrics_.counter("gpufi_fabric_shards_dispatched_total")),
      shards_completed_(metrics_.counter("gpufi_fabric_shards_completed_total")),
      shards_retried_(metrics_.counter("gpufi_fabric_shards_retried_total")),
      shards_duplicate_(
          metrics_.counter("gpufi_fabric_shards_duplicate_total")),
      jobs_completed_(metrics_.counter("gpufi_fabric_jobs_completed_total")),
      jobs_failed_(metrics_.counter("gpufi_fabric_jobs_failed_total")) {}

Coordinator::~Coordinator() { stop(); }

void Coordinator::logf(const char* fmt, ...) {
  if (cfg_.quiet) return;
  va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "gpufi-fabric: ");
  std::vfprintf(stderr, fmt, args);
  std::fprintf(stderr, "\n");
  va_end(args);
}

void Coordinator::start(unsigned local_executors, std::size_t queue_capacity) {
  if (listening()) {
    listen_fd_ = listen_endpoint(cfg_.listen);
    port_ = local_port(listen_fd_);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    running_ = accepting_ = true;
    queue_capacity_ = queue_capacity;
    workerless_since_ = Clock::now();
  }
  if (listen_fd_ >= 0) {
    accept_thread_ = std::thread([this] { accept_loop(); });
    logf("listening on %s", cfg_.listen.describe().c_str());
  }
  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
  for (unsigned i = 0; i < local_executors; ++i)
    local_threads_.emplace_back([this] { local_loop(); });
}

void Coordinator::stop(const std::string& reason) {
  Jobs over;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    running_ = accepting_ = false;
    for (auto& w : workers_)
      if (w->alive) ::shutdown(w->fd, SHUT_RDWR);
    for (auto& [id, job] : jobs_) {
      job->req.cancel->cancel();
      fail(*job, reason);
    }
    over = claim_over();
    cv_.notify_all();
  }
  finish(over);
  if (listen_fd_ >= 0) {
    // Wake the accept loop; the fd value itself is still read by that
    // thread, so it is only reset after the join below.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (cfg_.listen.kind == Endpoint::Kind::Unix)
      ::unlink(cfg_.listen.path.c_str());
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  // A local executor still in a cancelled shard ends that job itself.
  for (auto& t : local_threads_) t.join();
  local_threads_.clear();
  listen_fd_ = -1;
  std::vector<std::thread> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions.swap(sessions_);
  }
  for (auto& t : sessions)
    if (t.joinable()) t.join();
}

void Coordinator::drain() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    accepting_ = false;
    cv_.wait(lock, [&] { return outstanding_ == 0 || !running_; });
  }
  stop();
}

std::uint16_t Coordinator::port() const { return port_; }

CoordinatorStats Coordinator::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CoordinatorStats s;
  s.workers_registered = workers_registered_.value();
  s.workers_rejected = workers_rejected_.value();
  s.shards_dispatched = shards_dispatched_.value();
  s.shards_completed = shards_completed_.value();
  s.shards_retried = shards_retried_.value();
  s.shards_duplicate = shards_duplicate_.value();
  s.jobs_completed = jobs_completed_.value();
  s.jobs_failed = jobs_failed_.value();
  s.shards_pending = pending_.size();
  for (const auto& w : workers_) {
    if (w->alive) ++s.workers_alive;
    if (w->job) ++s.shards_inflight;
  }
  for (const auto& [id, job] : jobs_) {
    ++(job->started ? s.jobs_active : s.jobs_queued);
    s.shards_inflight += job->local_running;
  }
  return s;
}

bool Coordinator::wait_for_workers(std::size_t n, std::uint64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    const auto alive = std::count_if(workers_.begin(), workers_.end(),
                                     [](const auto& w) { return w->alive; });
    return static_cast<std::size_t>(alive) >= n || !running_;
  });
}

// ---------------------------------------------------------------------------
// Admission.
// ---------------------------------------------------------------------------

bool Coordinator::submit(JobRequest req) {
  const auto& spec = req.spec;
  const bool remote = spec.workers > 0;
  if (remote && !listening())
    throw std::invalid_argument(
        "this daemon has no fabric: restart `gpufi serve` with --fabric "
        "ADDR, or resubmit without --workers");
  if (remote && req.report)
    throw std::invalid_argument(
        "attribution reports cannot fan out over the fabric; resubmit "
        "without --workers");
  auto job = std::make_shared<JobState>();
  job->remote = remote;
  const bool rtl_like = spec.kind == serve::CampaignKind::Rtl ||
                        spec.kind == serve::CampaignKind::Tmxm;
  const std::size_t n_trials = rtl_like ? spec.faults : spec.injections;
  // The one planning predicate (merge reads the verdict back): local and
  // report jobs, cnn campaigns (their own internal loop), adaptive sw
  // campaigns (the Wilson planner sizes each round from the last) and empty
  // campaigns run whole, as ONE shard carrying the public payload.
  job->final_payload = !remote || req.report ||
                       spec.kind == serve::CampaignKind::Cnn ||
                       (spec.kind == serve::CampaignKind::Sw &&
                        !spec.plan.empty()) ||
                       n_trials == 0;
  if (job->final_payload)
    job->ranges = {{0, n_trials}};
  else
    job->ranges = exec::plan_shards(n_trials, std::size_t{spec.workers} *
                                                  kShardsPerWorker);
  job->partials.resize(job->ranges.size());
  job->shard_done.assign(job->ranges.size(), 0);
  job->attempts.assign(job->ranges.size(), 0);
  job->total_trials = job->final_payload ? 0 : n_trials;
  job->req = std::move(req);
  job->admitted = Clock::now();

  std::lock_guard<std::mutex> lock(mutex_);
  const auto queued = std::count_if(jobs_.begin(), jobs_.end(), [](auto& j) {
    return !j.second->started;
  });
  if (!accepting_ || static_cast<std::size_t>(queued) >= queue_capacity_)
    return false;
  job->id = next_job_++;
  jobs_.emplace(job->id, job);
  ++outstanding_;
  for (std::uint32_t i = 0; i < job->ranges.size(); ++i)
    pending_.emplace(job->req.spec.priority, job->id, i);
  cv_.notify_all();
  return true;
}

std::string Coordinator::run_job(const serve::CampaignSpec& spec,
                                 unsigned max_workers,
                                 const exec::ProgressFn& progress,
                                 const exec::CancelToken* cancel) {
  obs::Span span("fabric.run_job");
  span.set("kind", serve::campaign_kind_name(spec.kind));
  JobRequest req;
  req.spec = spec;
  req.spec.workers = std::max(1u, max_workers);
  req.progress = progress;
  // Shared: done() may still be returning when this frame is gone.
  auto outcome = std::make_shared<std::promise<std::pair<bool, std::string>>>();
  req.done = [outcome](bool ok, const std::string& text) {
    outcome->set_value({ok, text});
  };
  const auto token = req.cancel;
  auto result = outcome->get_future();
  if (!submit(std::move(req)))
    throw std::runtime_error("fabric coordinator not accepting jobs");
  while (result.wait_for(std::chrono::milliseconds(100)) !=
         std::future_status::ready)
    if (cancel && cancel->stopped()) token->cancel();
  auto [ok, text] = result.get();
  if (!ok) throw std::runtime_error(text);
  return text;
}

// ---------------------------------------------------------------------------
// Shard and job bookkeeping (all called with mutex_ held).
// ---------------------------------------------------------------------------

std::shared_ptr<Coordinator::JobState> Coordinator::pop(bool remote,
                                                        std::uint32_t& shard) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    const auto& job = jobs_.at(std::get<1>(*it));
    if (job->remote != remote) continue;
    shard = std::get<2>(*it);
    pending_.erase(it);
    const auto now = Clock::now();
    if (!job->started) {
      job->started = true;
      job->started_at = now;
      obs::observe(
          "gpufi_serve_queue_wait_seconds",
          std::chrono::duration<double>(now - job->admitted).count());
    }
    shards_dispatched_.add();
    return job;
  }
  return nullptr;
}

void Coordinator::complete(JobState& job, std::uint32_t shard,
                           std::string payload) {
  job.partials[shard] = std::move(payload);
  ++job.completed;
  job.shard_done[shard] =
      std::max<std::uint64_t>(job.shard_done[shard], job.ranges[shard].count);
  shards_completed_.add();
}

void Coordinator::fail(JobState& job, std::string reason) {
  if (job.failed || job.claimed) return;
  job.failed = true;
  job.error = std::move(reason);
  std::erase_if(pending_,
                [&](const auto& key) { return std::get<1>(key) == job.id; });
}

void Coordinator::reap() {
  const auto now = Clock::now();
  const bool fleet_alive = std::any_of(workers_.begin(), workers_.end(),
                                       [](const auto& w) { return w->alive; });
  const auto wait = std::chrono::milliseconds(cfg_.worker_wait_ms);
  for (auto& [id, job] : jobs_) {
    if (job->req.cancel->stopped()) {
      fail(*job, stop_reason(*job->req.cancel));
    } else if (job->remote && !fleet_alive && now - job->admitted > wait &&
               now - workerless_since_ > wait) {
      fail(*job,
           "no fabric workers registered — start `gpufi worker` processes "
           "pointing at " +
               cfg_.listen.describe());
    }
  }
}

Coordinator::Jobs Coordinator::claim_over() {
  Jobs over;
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    auto& job = it->second;
    if (job->over() && job->local_running == 0) {
      job->claimed = true;
      over.push_back(std::move(job));
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
  return over;
}

void Coordinator::finish(const Jobs& over) {
  for (const auto& job : over) {
    bool ok = !job->failed;
    std::string text = job->error;
    if (ok) {
      // Merge outside the lock: decoding partials is CPU work no other
      // executor should wait on.
      try {
        text = merge(*job);
      } catch (const std::exception& e) {
        ok = false;
        text = e.what();
      }
    }
    (ok ? jobs_completed_ : jobs_failed_).add();
    {
      std::lock_guard<std::mutex> reply(job->reply_mutex);
      job->finished = true;
      if (job->req.done) job->req.done(ok, text);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    --outstanding_;
    cv_.notify_all();
  }
}

std::string Coordinator::merge(const JobState& job) const {
  if (job.final_payload) return *job.partials[0];
  // The distributed image of run_trials' epilogue: decode every shard's
  // lossless partial and merge IN SHARD-INDEX (== chunk-index) ORDER, then
  // apply the same public serialization the offline path applies.
  const auto decode_all = [&](auto decode, auto merged) {
    for (std::size_t i = 0; i < job.partials.size(); ++i) {
      std::string err;
      const auto part = decode(*job.partials[i], &err);
      if (!part)
        throw std::runtime_error("corrupt shard " + std::to_string(i) +
                                 " partial: " + err);
      merged.merge(*part);
    }
    return merged;
  };
  const auto& spec = job.req.spec;
  if (spec.kind == serve::CampaignKind::Rtl ||
      spec.kind == serve::CampaignKind::Tmxm)
    return serve::serialize_campaign_result(
        spec, decode_all(decode_rtl_partial, rtlfi::CampaignResult{}));
  return serve::serialize_sw_result(
      decode_all(decode_sw_partial, swfi::Result{}));
}

void Coordinator::note_progress(const std::shared_ptr<JobState>& job,
                                std::uint32_t shard, std::uint64_t done,
                                std::uint64_t total,
                                std::unique_lock<std::mutex>& lock) {
  job->shard_done[shard] = std::max(job->shard_done[shard], done);
  if (job->partials.size() == 1)
    job->total_trials = std::max(job->total_trials, total);
  if (!job->req.progress) return;
  done = 0;
  for (const auto d : job->shard_done) done += d;
  total = job->total_trials;
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - job->started_at).count();
  // The callback may write to a (possibly slow) client socket: never hold
  // the coordinator lock across it.
  lock.unlock();
  {
    std::lock_guard<std::mutex> reply(job->reply_mutex);
    if (!job->finished && done >= job->last_done_reported) {
      job->last_done_reported = done;
      exec::Progress p;
      p.done = done;
      p.total = total;
      p.per_second = elapsed > 0 ? static_cast<double>(done) / elapsed : 0.0;
      p.eta_seconds = p.per_second > 0 && total > done
                          ? static_cast<double>(total - done) / p.per_second
                          : 0.0;
      job->req.progress(p);
    }
  }
  lock.lock();
}

// ---------------------------------------------------------------------------
// Local executors.
// ---------------------------------------------------------------------------

void Coordinator::local_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (running_) {
    std::uint32_t shard = 0;
    const auto job = pop(/*remote=*/false, shard);
    if (!job) {
      cv_.wait(lock);
      continue;
    }
    ++job->local_running;
    lock.unlock();
    const auto& req = job->req;
    const exec::ProgressFn progress = [&](const exec::Progress& p) {
      std::unique_lock<std::mutex> relock(mutex_);
      note_progress(job, shard, p.done, p.total, relock);
    };
    std::optional<std::string> payload;
    std::string error;
    try {
      payload = req.report
                    ? serve::run_report_spec(req.spec, progress, req.cancel.get())
                    : serve::run_spec(req.spec, caches_, progress,
                                      req.cancel.get());
    } catch (const std::exception& e) {
      error = e.what();
    }
    lock.lock();
    --job->local_running;
    if (req.cancel->stopped())
      fail(*job, stop_reason(*req.cancel));
    else if (payload)
      complete(*job, shard, std::move(*payload));
    else
      fail(*job, error);
    const auto over = claim_over();
    lock.unlock();
    finish(over);
    lock.lock();
  }
}

// ---------------------------------------------------------------------------
// Remote executors: accept, session and dispatch threads.
// ---------------------------------------------------------------------------

void Coordinator::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) continue;
    std::lock_guard<std::mutex> slock(sessions_mutex_);
    sessions_.emplace_back([this, fd] { session(fd); });
  }
}

void Coordinator::session(int fd) {
  // The read timeout doubles as the liveness check: a worker that sends
  // nothing — not even a heartbeat — for the whole window is dead.
  set_recv_timeout(fd, cfg_.heartbeat_timeout_ms);

  serve::Frame frame;
  std::optional<Hello> hello;
  if (serve::read_frame(fd, frame) == serve::ReadStatus::Ok &&
      frame.type == serve::FrameType::Hello)
    hello = decode_hello(frame.payload);
  if (hello && hello->version != kFabricProtocolVersion) {
    // A mismatched worker binary gets a clear, actionable rejection
    // instead of a framing failure mid-campaign.
    std::string msg = "fabric protocol version mismatch: coordinator speaks v" +
                      std::to_string(kFabricProtocolVersion) + ", worker '" +
                      hello->name + "' speaks v" +
                      std::to_string(hello->version) +
                      " — rebuild or redeploy the worker binary";
    logf("rejecting %s: %s", hello->name.c_str(), msg.c_str());
    // Count BEFORE the reply: the rejected worker observes the error the
    // moment the frame lands, and by then the stat must already be there.
    workers_rejected_.add();
    serve::write_frame(fd, {serve::FrameType::Error, std::move(msg)});
    hello.reset();
  }
  if (!hello || !serve::write_frame(fd, {serve::FrameType::HelloAck, {}})) {
    ::close(fd);
    return;
  }

  WorkerConn* w = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto conn = std::make_unique<WorkerConn>();
    conn->fd = fd;
    conn->name = hello->name;
    conn->alive = true;
    w = conn.get();
    workers_.push_back(std::move(conn));
    workers_registered_.add();
    cv_.notify_all();
  }
  logf("worker %s (pid %llu) registered", w->name.c_str(),
       static_cast<unsigned long long>(hello->pid));

  while (serve::read_frame(fd, frame) == serve::ReadStatus::Ok) {
    // Any frame (heartbeats included) refreshes liveness via the timeout.
    if (frame.type == serve::FrameType::ShardResult) {
      if (auto msg = decode_shard_result(frame.payload))
        handle_result(std::move(*msg), *w);
    } else if (frame.type == serve::FrameType::ShardError) {
      if (const auto msg = decode_shard_error(frame.payload))
        handle_error(*msg, *w);
    } else if (frame.type == serve::FrameType::ShardProgress) {
      if (const auto msg = decode_shard_progress(frame.payload))
        handle_progress(*msg);
    }
  }

  Jobs over;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    worker_died(*w);
    over = claim_over();
  }
  finish(over);
  ::close(fd);
}

void Coordinator::worker_died(WorkerConn& w) {
  if (!w.alive) return;
  w.alive = false;
  logf("worker %s died", w.name.c_str());
  if (std::none_of(workers_.begin(), workers_.end(),
                   [](const auto& o) { return o->alive; }))
    workerless_since_ = Clock::now();
  if (const auto job = std::move(w.job); job && !job->over()) {
    const unsigned attempts = ++job->attempts[w.shard];
    if (attempts > kMaxShardRetries) {
      fail(*job, "shard " + std::to_string(w.shard) + " lost " +
                     std::to_string(attempts) +
                     " times to worker failures; giving up");
    } else {
      // Shards are pure functions of (spec, seed, range): rerunning one
      // anywhere yields the same bytes, so retry is always merge-safe.
      shards_retried_.add();
      pending_.emplace(job->req.spec.priority, job->id, w.shard);
    }
  }
  cv_.notify_all();
}

void Coordinator::dispatch_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (running_) {
    // Hand pending remote shards to idle live workers.
    for (auto& wp : workers_) {
      WorkerConn& w = *wp;
      if (!w.alive || w.job) continue;
      std::uint32_t shard = 0;
      auto job = pop(/*remote=*/true, shard);
      if (!job) break;
      ShardRequest req;
      req.job = job->id;
      req.shard_index = shard;
      req.n_shards = static_cast<std::uint32_t>(job->ranges.size());
      req.trial_offset = job->ranges[shard].offset;
      req.trial_count = job->ranges[shard].count;
      req.final_payload = job->final_payload;
      req.spec = job->req.spec;
      w.job = std::move(job);
      w.shard = shard;
      w.dispatched_at = Clock::now();
      if (!serve::write_frame(w.fd, {serve::FrameType::ShardRequest,
                                     encode_shard_request(req)})) {
        // The connection is gone; the session thread will also notice,
        // but requeue NOW so the shard never sits on a dead worker.
        ::shutdown(w.fd, SHUT_RDWR);
        worker_died(w);
      }
    }
    reap();
    if (auto over = claim_over(); !over.empty()) {
      lock.unlock();
      finish(over);
      lock.lock();
      continue;
    }
    cv_.wait_for(lock, std::chrono::milliseconds(100));
  }
}

// ---------------------------------------------------------------------------
// Worker frame handlers (called from session threads).
// ---------------------------------------------------------------------------

void Coordinator::handle_result(ShardResultMsg msg, WorkerConn& w) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!w.job || w.job->id != msg.job || w.shard != msg.shard_index ||
      w.job->claimed || w.job->failed ||
      w.job->partials[w.shard].has_value()) {
    // Late (the shard was retried elsewhere or the job ended): drop it.
    shards_duplicate_.add();
    if (w.job && w.job->id == msg.job && w.shard == msg.shard_index)
      w.job.reset();
    cv_.notify_all();
    return;
  }
  const auto job = std::move(w.job);
  obs::observe(
      "gpufi_fabric_shard_seconds",
      std::chrono::duration<double>(Clock::now() - w.dispatched_at).count());
  metrics_.counter(obs::label("gpufi_fabric_worker_shards_completed_total",
                              "worker", w.name))
      .add();
  complete(*job, msg.shard_index, std::move(msg.payload));
  cv_.notify_all();
  if (!job->over()) {
    note_progress(job, msg.shard_index, job->shard_done[msg.shard_index], 0,
                  lock);
    return;
  }
  const auto over = claim_over();
  lock.unlock();
  finish(over);
}

void Coordinator::handle_error(const ShardErrorMsg& msg, WorkerConn& w) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!w.job || w.job->id != msg.job || w.shard != msg.shard_index) return;
  // Deterministic failure: the same shard would fail the same way on any
  // worker, so retrying would only burn the fleet.
  const auto job = std::move(w.job);
  fail(*job, msg.error);
  cv_.notify_all();
  const auto over = claim_over();
  lock.unlock();
  finish(over);
}

void Coordinator::handle_progress(const ShardProgressMsg& msg) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(msg.job);
  if (it == jobs_.end() || msg.shard_index >= it->second->partials.size())
    return;
  note_progress(it->second, msg.shard_index, msg.done, msg.total, lock);
}

}  // namespace gpufi::fabric
