#include "serve/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "core/gpufi.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/protocol.hpp"
#include "fabric/transport.hpp"
#include "nn/gpu_infer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "vocab/vocab.hpp"

namespace gpufi::serve {

namespace {

/// Internal control-flow signal for "the token stopped the campaign".
struct CancelledError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void throw_if_stopped(const exec::CancelToken* cancel) {
  if (cancel && cancel->stopped()) throw CancelledError("campaign cancelled");
}

/// Refuses a spec the runner cannot run: one of another kind (`kind_ok`
/// false; `needs` says what the runner takes) or with a vocabulary error.
void check_spec(const CampaignSpec& spec, bool kind_ok, const char* needs) {
  if (!kind_ok) throw std::invalid_argument(needs);
  if (const auto err = validate_spec(spec)) throw std::invalid_argument(*err);
}

/// The one spec-to-swfi::Config mapping of the sw runners. The syndrome
/// database `cfg.db` points at, when the model samples one, is kept alive
/// by `db`.
swfi::Config sw_config_for_spec(const CampaignSpec& spec, Caches& caches,
                                const exec::ProgressFn& progress,
                                const exec::CancelToken* cancel,
                                std::shared_ptr<const syndrome::Database>& db) {
  swfi::Config cfg;
  cfg.model = *parse_sw_model(spec.model);
  cfg.n_injections = spec.injections;
  cfg.seed = spec.seed;
  cfg.jobs = spec.jobs;
  cfg.progress = progress;
  cfg.progress_interval = spec.progress_interval;
  cfg.cancel = cancel;
  if (cfg.model == swfi::FaultModel::RelativeError ||
      cfg.model == swfi::FaultModel::WarpRelativeError ||
      cfg.model == swfi::FaultModel::StickyRelativeError) {
    db = caches.syndrome_db(spec.db_path, spec.jobs);
    throw_if_stopped(cancel);  // the shared build may outlive a deadline
    cfg.db = db.get();
    // Sticky replay images a stuck-at fault: sample that syndrome class
    // (falls back to transient inside the database when absent).
    if (cfg.model == swfi::FaultModel::StickyRelativeError)
      cfg.syndrome_model = rtl::FaultModel::StuckAt1;
  }
  return cfg;
}

/// Cache key of the shareable golden half of an RTL/t-MxM campaign: the
/// workload identity (name encodes op/range or tile kind; the value seed is
/// spec.seed) plus the trace geometry rtlfi::prepare_golden depends on.
std::string golden_cache_key(const CampaignSpec& spec,
                             const rtlfi::CampaignConfig& cc,
                             const rtlfi::Workload& w) {
  std::string key = w.name;
  key += "/vseed=";
  key += std::to_string(spec.seed);
  if (cc.acceleration == rtlfi::Acceleration::None)
    key += "/untraced";
  else
    key += "/ckpt=" + std::to_string(cc.checkpoint_interval);
  return key;
}

}  // namespace

rtlfi::CampaignConfig campaign_config_for_spec(
    const CampaignSpec& spec, rtl::Module module,
    const exec::ProgressFn& progress, const exec::CancelToken* cancel) {
  rtlfi::CampaignConfig cc;
  cc.module = module;
  cc.n_faults = spec.faults;
  cc.seed = spec.seed;
  cc.jobs = spec.jobs;
  cc.acceleration = *parse_acceleration(spec.accel);
  cc.fault_model = *parse_fault_model(spec.fault_model);
  cc.fault_duration = spec.fault_duration;
  cc.burst_period = spec.burst_period;
  cc.progress = progress;
  cc.progress_interval = spec.progress_interval;
  cc.cancel = cancel;
  return cc;
}

rtlfi::CampaignResult run_rtl_spec(const CampaignSpec& spec, Caches& caches,
                                   const exec::ProgressFn& progress,
                                   const exec::CancelToken* cancel,
                                   std::optional<exec::TrialRange> range) {
  check_spec(spec,
             spec.kind == CampaignKind::Rtl || spec.kind == CampaignKind::Tmxm,
             "rtl campaigns need an rtl or tmxm spec");
  const auto w =
      spec.kind == CampaignKind::Rtl
          ? rtlfi::make_microbenchmark(*parse_opcode(spec.op),
                                       *parse_range(spec.range), spec.seed)
          : rtlfi::make_tmxm(*parse_tile(spec.tile), spec.seed);
  auto cc = campaign_config_for_spec(spec, *parse_module(spec.module),
                                     progress, cancel);
  if (range) {
    cc.shard_offset = range->offset;
    cc.shard_count = range->count;
  }
  // The golden half depends only on the workload and trace geometry, so
  // every request and shard with the same key shares one.
  const auto golden = caches.golden(golden_cache_key(spec, cc, w), [&] {
    return rtlfi::prepare_golden(w, cc);
  });
  auto r = rtlfi::run_campaign(w, cc, *golden);
  throw_if_stopped(cancel);
  return r;
}

swfi::Result run_sw_spec(const CampaignSpec& spec, Caches& caches,
                         const exec::ProgressFn& progress,
                         const exec::CancelToken* cancel,
                         std::optional<exec::TrialRange> range) {
  check_spec(spec, spec.kind == CampaignKind::Sw && spec.plan.empty(),
             "fixed-trial sw campaigns need a sw spec without a plan");
  std::shared_ptr<const syndrome::Database> db;
  auto cfg = sw_config_for_spec(spec, caches, progress, cancel, db);
  if (range) {
    cfg.shard_offset = range->offset;
    cfg.shard_count = range->count;
  }
  auto r = swfi::run_sw_campaign(vocab::make_app(spec.app).app, cfg);
  throw_if_stopped(cancel);
  return r;
}

swfi::PlanResult run_planned_sw_spec(const CampaignSpec& spec, Caches& caches,
                                     const exec::ProgressFn& progress,
                                     const exec::CancelToken* cancel) {
  check_spec(spec, spec.kind == CampaignKind::Sw && !spec.plan.empty(),
             "planned sw campaigns need a sw spec with a plan");
  std::shared_ptr<const syndrome::Database> db;
  const auto cfg = sw_config_for_spec(spec, caches, progress, cancel, db);
  auto pr = swfi::run_planned_campaign(vocab::make_app(spec.app).app, cfg,
                                       *vocab::parse_plan(spec.plan));
  throw_if_stopped(cancel);
  return pr;
}

nn::CnnCampaignResult run_cnn_spec(const CampaignSpec& spec, Caches& caches,
                                   const exec::CancelToken* cancel) {
  check_spec(spec, spec.kind == CampaignKind::Cnn,
             "cnn campaigns need a cnn spec");
  const auto db = caches.syndrome_db(spec.db_path, spec.jobs);
  const auto models = core::ensure_models(spec.models_dir);
  throw_if_stopped(cancel);
  const bool lenet = spec.net == "lenet";
  auto r = nn::run_cnn_campaign(
      lenet ? models.lenet : models.yololite,
      lenet ? nn::CnnTask::Classification : nn::CnnTask::Detection,
      *parse_cnn_model(spec.model), db.get(), spec.injections, spec.seed);
  throw_if_stopped(cancel);
  return r;
}

attr::Report run_attribution_spec(const CampaignSpec& spec,
                                  const exec::ProgressFn& progress,
                                  const exec::CancelToken* cancel,
                                  bool all_modules) {
  check_spec(spec, spec.kind == CampaignKind::Rtl,
             "attribution reports require an rtl campaign spec");
  core::ReportConfig rc;
  rc.op = *parse_opcode(spec.op);
  if (!all_modules) rc.module = *parse_module(spec.module);
  rc.range = *parse_range(spec.range);
  rc.n_faults = spec.faults;
  rc.seed = spec.seed;
  rc.jobs = spec.jobs;
  rc.acceleration = *parse_acceleration(spec.accel);
  rc.fault_model = *parse_fault_model(spec.fault_model);
  rc.fault_duration = spec.fault_duration;
  rc.burst_period = spec.burst_period;
  rc.progress = progress;
  rc.progress_interval = spec.progress_interval;
  rc.cancel = cancel;
  auto report = core::run_report(rc);
  throw_if_stopped(cancel);
  return report;
}

std::string run_spec(const CampaignSpec& spec, Caches& caches,
                     const exec::ProgressFn& progress,
                     const exec::CancelToken* cancel,
                     std::optional<exec::TrialRange> range) {
  obs::Span span("serve.run_spec");
  span.set("kind", campaign_kind_name(spec.kind));
  switch (spec.kind) {
    case CampaignKind::Rtl:
    case CampaignKind::Tmxm: {
      const auto r = run_rtl_spec(spec, caches, progress, cancel, range);
      return range ? fabric::encode_rtl_partial(r)
                   : serialize_campaign_result(spec, r);
    }
    case CampaignKind::Sw: {
      if (!spec.plan.empty()) {
        if (range)
          throw std::invalid_argument("planned sw campaigns only run whole");
        return serialize_planned_sw_result(
            run_planned_sw_spec(spec, caches, progress, cancel));
      }
      const auto r = run_sw_spec(spec, caches, progress, cancel, range);
      return range ? fabric::encode_sw_partial(r) : serialize_sw_result(r);
    }
    case CampaignKind::Cnn:
      if (range) throw std::invalid_argument("cnn campaigns only run whole");
      return serialize_cnn_result(run_cnn_spec(spec, caches, cancel));
  }
  throw std::logic_error("unreachable campaign kind");
}

std::string run_spec_offline(const CampaignSpec& spec) {
  obs::Registry metrics;
  Caches fresh(metrics);
  return run_spec(spec, fresh, {}, nullptr);
}

std::string run_report_spec(const CampaignSpec& spec,
                            const exec::ProgressFn& progress,
                            const exec::CancelToken* cancel) {
  obs::Span span("serve.run_report");
  span.set("op", spec.op);
  return attr::render_json(run_attribution_spec(spec, progress, cancel));
}

std::string run_report_offline(const CampaignSpec& spec) {
  return run_report_spec(spec, {}, nullptr);
}

// ---------------------------------------------------------------------------
// Stats payload.
// ---------------------------------------------------------------------------

namespace {

/// Visits every Stats-frame field with its wire key, in wire order.
template <class Stats, class Visit>
void for_each_stat(Stats& s, Visit&& visit) {
  visit("accepted", s.accepted);
  visit("completed", s.completed);
  visit("failed", s.failed);
  visit("cancelled", s.cancelled);
  visit("rejected", s.rejected);
  visit("active", s.active);
  visit("queued", s.queued);
  visit("queue_capacity", s.queue_capacity);
  visit("workers", s.workers);
  visit("planner_early_stops", s.planner_early_stops);
  visit("db_cache_hits", s.db_cache.hits);
  visit("db_cache_misses", s.db_cache.misses);
  visit("golden_cache_hits", s.golden_cache.hits);
  visit("golden_cache_misses", s.golden_cache.misses);
  visit("fabric_workers_registered", s.fabric_workers_registered);
  visit("fabric_workers_alive", s.fabric_workers_alive);
  visit("fabric_shards_inflight", s.fabric_shards_inflight);
  visit("fabric_shards_retried", s.fabric_shards_retried);
  visit("fabric_shards_completed", s.fabric_shards_completed);
}

}  // namespace

std::string encode_stats(const ServerStats& s) {
  std::string out;
  for_each_stat(s, [&](std::string_view key, std::size_t v) {
    put_kv(out, key, v);
  });
  return out;
}

std::optional<ServerStats> decode_stats(std::string_view payload) {
  ServerStats s;
  KvReader in(payload);
  std::string_view key, value;
  while (in.next(key, value)) {
    bool known = false;
    for_each_stat(s, [&](std::string_view k, std::size_t& field) {
      if (k != key) return;
      known = true;
      field = in.u64(value);
    });
    if (!known) in.fail("unknown stats key");
  }
  if (!in.ok()) return std::nullopt;
  return s;
}

// ---------------------------------------------------------------------------
// The daemon.
// ---------------------------------------------------------------------------

struct Server::Impl {
  explicit Impl(ServerConfig c)
      : cfg(std::move(c)),
        pool(pool_config(cfg)),
        accepted(pool.metrics().counter("gpufi_serve_jobs_accepted_total")),
        completed(pool.metrics().counter("gpufi_serve_jobs_completed_total")),
        failed(pool.metrics().counter("gpufi_serve_jobs_failed_total")),
        cancelled(pool.metrics().counter("gpufi_serve_jobs_cancelled_total")),
        rejected(pool.metrics().counter("gpufi_serve_jobs_rejected_total")),
        bad_requests(pool.metrics().counter("gpufi_serve_bad_requests_total")) {}

  static fabric::CoordinatorConfig pool_config(const ServerConfig& cfg) {
    fabric::CoordinatorConfig pc;
    if (const auto ep = fabric::parse_endpoint(cfg.fabric_listen))
      pc.listen = *ep;
    pc.quiet = cfg.quiet;
    return pc;
  }

  ServerConfig cfg;
  /// The shard pool: the only queue, the local executors and the fleet.
  fabric::Coordinator pool;
  // Job lifecycle counters: each outcome is counted once, here, and both
  // the Stats frame and the metrics exposition read it.
  obs::Counter& accepted;
  obs::Counter& completed;
  obs::Counter& failed;
  obs::Counter& cancelled;
  obs::Counter& rejected;
  obs::Counter& bad_requests;

  int listen_fd = -1;
  std::atomic<bool> started{false};
  std::atomic<bool> stopped{false};
  std::thread accept_thread;

  unsigned executors() const { return cfg.workers == 0 ? 1 : cfg.workers; }
  std::size_t capacity() const {
    return cfg.queue_capacity == 0 ? 1 : cfg.queue_capacity;
  }
  void log(const char* fmt, ...) const;
  void accept_loop();
  void handle_connection(int fd);
  void admit(int fd, const CampaignSpec& spec, bool report);
  /// Syncs the point-in-time gauges (queue depth, active jobs, pool shape,
  /// fleet) into the pool's registry — called at scrape time, so a Metrics
  /// frame always reflects the live state.
  void refresh_gauges();
  void fill_stats(ServerStats& s);
};

void Server::Impl::refresh_gauges() {
  const auto ps = pool.stats();
  auto& m = pool.metrics();
  const auto gauge = [&](const char* name, std::size_t v) {
    m.gauge(name).set(static_cast<std::int64_t>(v));
  };
  gauge("gpufi_serve_queue_depth", ps.jobs_queued);
  gauge("gpufi_serve_queue_capacity", capacity());
  gauge("gpufi_serve_active_jobs", ps.jobs_active);
  gauge("gpufi_serve_workers", executors());
  gauge("gpufi_fabric_workers_alive", ps.workers_alive);
  gauge("gpufi_fabric_shards_inflight", ps.shards_inflight);
  gauge("gpufi_fabric_shards_pending", ps.shards_pending);
}

void Server::Impl::fill_stats(ServerStats& s) {
  const auto ps = pool.stats();
  s.accepted = accepted.value();
  s.completed = completed.value();
  s.failed = failed.value();
  s.cancelled = cancelled.value();
  s.rejected = rejected.value();
  s.active = ps.jobs_active;
  s.queued = ps.jobs_queued;
  s.queue_capacity = capacity();
  s.workers = executors();
  s.planner_early_stops = obs::Registry::global().counter_value(
      "gpufi_swfi_planner_early_stops_total");
  s.db_cache = pool.caches().syndrome_db_stats();
  s.golden_cache = pool.caches().golden_stats();
  s.fabric_workers_registered = ps.workers_registered;
  s.fabric_workers_alive = ps.workers_alive;
  s.fabric_shards_inflight = ps.shards_inflight;
  s.fabric_shards_retried = ps.shards_retried;
  s.fabric_shards_completed = ps.shards_completed;
}

void Server::Impl::log(const char* fmt, ...) const {
  if (cfg.quiet) return;
  va_list args;
  va_start(args, fmt);
  std::fputs("gpufi-serve: ", stderr);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  va_end(args);
}

void Server::Impl::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down (or fatal): stop accepting
    }
    // Bound the time a silent client can hold the accept thread.
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    handle_connection(fd);
  }
}

void Server::Impl::handle_connection(int fd) {
  Frame req;
  const ReadStatus st = read_frame(fd, req);
  const auto reply = [fd](FrameType type, std::string payload) {
    write_frame(fd, {type, std::move(payload)});
    ::close(fd);
  };
  if (st != ReadStatus::Ok) {
    if (st == ReadStatus::Eof) {
      ::close(fd);
      return;
    }
    bad_requests.add();
    return reply(FrameType::Error, "malformed request frame");
  }
  if (req.type == FrameType::MetricsRequest) {
    refresh_gauges();
    return reply(FrameType::Metrics,
                 pool.metrics().render_prometheus() +
                     obs::Registry::global().render_prometheus());
  }
  if (req.type == FrameType::Status) {
    ServerStats s;
    fill_stats(s);
    return reply(FrameType::Stats, encode_stats(s));
  }
  if (req.type != FrameType::Submit && req.type != FrameType::ReportRequest) {
    bad_requests.add();
    return reply(FrameType::Error,
                 "expected a Submit, ReportRequest, or Status frame");
  }
  std::string error;
  const auto spec = decode_spec(req.payload, &error);
  if (!spec) {
    failed.add();
    return reply(FrameType::Error, "invalid campaign spec: " + error);
  }
  admit(fd, *spec, req.type == FrameType::ReportRequest);
}

void Server::Impl::admit(int fd, const CampaignSpec& spec, bool report) {
  fabric::JobRequest job;
  job.spec = spec;
  job.report = report;
  const std::uint64_t deadline_ms =
      spec.deadline_ms != 0 ? spec.deadline_ms : cfg.default_deadline_ms;
  if (deadline_ms != 0)
    job.cancel->set_deadline_after(std::chrono::milliseconds(deadline_ms));
  const auto token = job.cancel;
  // Progress streamer + disconnect detector: a client that closed its end
  // surfaces as recv()==0 (orderly FIN) or a failed frame write, either of
  // which stops the job.
  job.progress = [fd, token](const exec::Progress& p) {
    char probe;
    if (::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT) == 0 ||
        !write_frame(fd, {FrameType::Progress, encode_progress(p)}))
      token->cancel();
  };
  const FrameType result = report ? FrameType::Report : FrameType::Result;
  job.done = [this, fd, token, result](bool ok, const std::string& text) {
    if (ok && write_frame(fd, {result, text})) {
      completed.add();
    } else if (ok || token->stopped()) {
      // Cancelled, or the client vanished between the last trial and the
      // result.
      cancelled.add();
      if (!ok) write_frame(fd, {FrameType::Error, text});
      log("job %s", ok ? "lost its client" : text.c_str());
    } else {
      failed.add();
      write_frame(fd, {FrameType::Error, "campaign failed: " + text});
      log("job failed: %s", text.c_str());
    }
    ::close(fd);
  };
  const auto bounce = [&](obs::Counter& outcome, std::string text) {
    outcome.add();
    write_frame(fd, {FrameType::Error, std::move(text)});
    ::close(fd);
  };
  try {
    if (pool.submit(std::move(job))) {
      accepted.add();
      log("accepted %s job",
          std::string(campaign_kind_name(spec.kind)).c_str());
      return;
    }
    // Admission control: reject-with-backpressure instead of buffering.
    bounce(rejected, "queue full (capacity " + std::to_string(capacity()) +
                         "): retry later");
    log("rejected job (queue full)");
  } catch (const std::invalid_argument& e) {
    bounce(failed, e.what());
  }
}

Server::Server(ServerConfig cfg) : impl_(std::make_unique<Impl>(std::move(cfg))) {}

Server::~Server() {
  if (impl_->started && !impl_->stopped) shutdown(false);
}

const ServerConfig& Server::config() const { return impl_->cfg; }

bool Server::running() const {
  return impl_->started && !impl_->stopped;
}

void Server::start() {
  if (impl_->started) throw std::logic_error("server already started");
  const auto& cfg = impl_->cfg;
  if (!cfg.fabric_listen.empty() && !fabric::parse_endpoint(cfg.fabric_listen))
    throw std::runtime_error("bad fabric listen address: " + cfg.fabric_listen);
  fabric::Endpoint ep;
  ep.path = cfg.socket_path;
  const int fd = fabric::listen_endpoint(ep, 128);
  try {
    impl_->pool.start(impl_->executors(), impl_->capacity());
  } catch (...) {
    ::close(fd);
    ::unlink(cfg.socket_path.c_str());
    throw;
  }
  impl_->listen_fd = fd;
  impl_->started = true;
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
  impl_->log("listening on %s (%u local executors, queue capacity %zu%s%s)",
             cfg.socket_path.c_str(), impl_->executors(), impl_->capacity(),
             cfg.fabric_listen.empty() ? "" : ", fabric on ",
             cfg.fabric_listen.c_str());
}

void Server::shutdown(bool drain) {
  if (!impl_->started || impl_->stopped) return;
  impl_->stopped = true;
  impl_->log(drain ? "draining..." : "stopping...");

  // Wake the accept thread: shutdown() on a listening socket makes a
  // blocked accept() return immediately.
  ::shutdown(impl_->listen_fd, SHUT_RDWR);
  impl_->accept_thread.join();
  ::close(impl_->listen_fd);
  impl_->listen_fd = -1;

  // Drain: every admitted job (in-flight fan-outs included) finishes before
  // the fleet is cut loose. Forced: queued jobs are bounced and running ones
  // stopped through their tokens.
  if (drain)
    impl_->pool.drain();
  else
    impl_->pool.stop("server shutting down");
  ::unlink(impl_->cfg.socket_path.c_str());
  // The word "failed" appears only when a job did: operators (and the smoke
  // CI jobs) grep the log for it.
  const auto failed = impl_->failed.value();
  impl_->log("stopped (completed %llu, cancelled %llu%s%s)",
             static_cast<unsigned long long>(impl_->completed.value()),
             static_cast<unsigned long long>(impl_->cancelled.value()),
             failed ? ", failed " : "",
             failed ? std::to_string(failed).c_str() : "");
}

ServerStats Server::stats() const {
  ServerStats s;
  impl_->fill_stats(s);
  return s;
}

fabric::Coordinator* Server::coordinator() const { return &impl_->pool; }

}  // namespace gpufi::serve
