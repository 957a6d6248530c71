#pragma once

// gpufi-serve: a long-running fault-injection campaign daemon.
//
// Lifecycle: Server::start() binds the Unix-domain socket, spawns one accept
// thread, and starts the daemon's shard pool (fabric::Coordinator) with
// `workers` local executor threads. Each accepted connection submits one
// campaign spec; the accept thread hands it to the pool, whose bounded
// (priority, arrival) queue applies admission control (reject-with-
// backpressure when full). Local jobs run as one shard on a local executor;
// jobs submitted with workers = N fan out over the registered `gpufi worker`
// fleet without holding a local executor. Progress streams back as frames;
// a client disconnect or an expired per-request deadline stops the job via
// its exec::CancelToken. shutdown(drain=true) — the SIGTERM path — stops
// accepting, finishes every admitted job, then tears down.
//
// Determinism contract: a served campaign's Result payload is byte-identical
// to run_spec_offline() of the same spec — queueing, executor count, fan-out,
// cache sharing and progress streaming cannot change a single byte of it.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "attr/attr.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"

namespace gpufi::fabric {
class Coordinator;
}  // namespace gpufi::fabric

namespace gpufi::serve {

struct ServerConfig {
  std::string socket_path = kDefaultSocketPath;
  /// Local executor threads: how many local shards run at once. Fanned-out
  /// jobs run on the remote fleet and do not count against it.
  unsigned workers = 2;
  /// Admission bound: jobs admitted but with no shard started yet.
  std::size_t queue_capacity = 64;
  /// Applied when a spec carries no deadline; 0 = unlimited.
  std::uint64_t default_deadline_ms = 0;
  /// Suppress stderr lifecycle logging (tests).
  bool quiet = true;
  /// Address `gpufi worker` processes register at ("unix:PATH",
  /// "HOST:PORT" or "tcp:HOST:PORT"); empty disables the fabric, and
  /// submits asking for workers > 0 are then rejected with a clear error.
  std::string fabric_listen;
};

/// Point-in-time counters (the Stats frame payload). The job counters are
/// the same increments the metrics exposition renders.
struct ServerStats {
  std::size_t accepted = 0;   ///< jobs admitted to the queue
  std::size_t completed = 0;  ///< jobs that sent a Result frame
  std::size_t failed = 0;     ///< jobs that sent an Error frame
  std::size_t cancelled = 0;  ///< jobs aborted by disconnect/deadline/shutdown
  std::size_t rejected = 0;   ///< submissions bounced by admission control
  std::size_t active = 0;     ///< jobs with a shard started
  std::size_t queued = 0;     ///< jobs waiting for their first shard
  std::size_t queue_capacity = 0;
  std::size_t workers = 0;  ///< local executors
  /// Strata the campaign planner stopped early (Wilson interval converged
  /// before the trial budget ran out) over the daemon's lifetime — read from
  /// the gpufi_swfi_planner_early_stops_total counter.
  std::size_t planner_early_stops = 0;
  CacheStats db_cache;
  CacheStats golden_cache;
  // Shard pool and fleet aggregates (worker counts are zero without a
  // fabric; the shard counts include local shards).
  std::size_t fabric_workers_registered = 0;  ///< lifetime handshakes
  std::size_t fabric_workers_alive = 0;
  std::size_t fabric_shards_inflight = 0;
  std::size_t fabric_shards_retried = 0;
  std::size_t fabric_shards_completed = 0;
};

std::string encode_stats(const ServerStats& s);
std::optional<ServerStats> decode_stats(std::string_view payload);

/// Resolves an rtl/tmxm spec to the campaign config its trials run under —
/// the one spec-to-config mapping, so a sharded campaign cannot drift from
/// the offline one.
rtlfi::CampaignConfig campaign_config_for_spec(
    const CampaignSpec& spec, rtl::Module module,
    const exec::ProgressFn& progress, const exec::CancelToken* cancel);

// Typed spec runners: the one spec-to-campaign mapping per kind, shared by
// the daemon's executors, `gpufi worker` and the offline CLI commands. Each
// runs on the calling thread, sharing `caches`; `progress`/`cancel` may be
// empty/null. Each throws std::invalid_argument for a spec of another kind
// or one validate_spec refuses, and throws the partial result away when
// `cancel` stopped the loop. With `range`, only those trials run (a shard).

/// rtl and tmxm specs.
rtlfi::CampaignResult run_rtl_spec(
    const CampaignSpec& spec, Caches& caches, const exec::ProgressFn& progress,
    const exec::CancelToken* cancel,
    std::optional<exec::TrialRange> range = std::nullopt);

/// sw specs without a plan.
swfi::Result run_sw_spec(const CampaignSpec& spec, Caches& caches,
                         const exec::ProgressFn& progress,
                         const exec::CancelToken* cancel,
                         std::optional<exec::TrialRange> range = std::nullopt);

/// sw specs with a plan (whole campaigns only).
swfi::PlanResult run_planned_sw_spec(const CampaignSpec& spec, Caches& caches,
                                     const exec::ProgressFn& progress,
                                     const exec::CancelToken* cancel);

/// cnn specs (whole campaigns only).
nn::CnnCampaignResult run_cnn_spec(const CampaignSpec& spec, Caches& caches,
                                   const exec::CancelToken* cancel);

/// Attribution report of an rtl spec. `all_modules` bombards all six
/// modules instead of spec.module (the offline `gpufi report <op> all`).
attr::Report run_attribution_spec(const CampaignSpec& spec,
                                  const exec::ProgressFn& progress,
                                  const exec::CancelToken* cancel,
                                  bool all_modules = false);

/// The one spec-to-campaign dispatch every executor (local or remote) runs:
/// the spec's typed runner, serialized. Without `range` it returns the
/// deterministic Result payload; with one, the lossless partial
/// (fabric::encode_rtl_partial / encode_sw_partial) that merges into it.
std::string run_spec(const CampaignSpec& spec, Caches& caches,
                     const exec::ProgressFn& progress,
                     const exec::CancelToken* cancel,
                     std::optional<exec::TrialRange> range = std::nullopt);

/// run_spec with fresh caches and no hooks: the payload of what the offline
/// `gpufi rtl|tmxm|sw|cnn` computes (it runs the same typed runners with
/// fresh caches), and what the byte-identity tests compare a served payload
/// against.
std::string run_spec_offline(const CampaignSpec& spec);

/// The Report frame payload: run_attribution_spec as JSON
/// (attr::render_json), byte-identical to the offline `gpufi report --json`.
std::string run_report_spec(const CampaignSpec& spec,
                            const exec::ProgressFn& progress,
                            const exec::CancelToken* cancel);

/// Offline reference for the Report byte-identity contract.
std::string run_report_offline(const CampaignSpec& spec);

class Server {
 public:
  explicit Server(ServerConfig cfg);
  /// Stops without draining if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket, starts the shard pool and spawns the accept thread.
  /// Throws std::runtime_error on bind/listen failure.
  void start();

  /// Idempotent teardown. drain=true (SIGTERM): stop accepting, run every
  /// admitted job to completion, then join. drain=false: additionally
  /// cancel the active jobs and bounce the queued ones with an Error frame.
  void shutdown(bool drain);

  bool running() const;
  ServerStats stats() const;
  const ServerConfig& config() const;
  /// The daemon's shard pool; it listens for workers only when
  /// fabric_listen is set.
  fabric::Coordinator* coordinator() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gpufi::serve
