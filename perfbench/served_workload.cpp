// served: an in-process gpufi-serve daemon (2 executors) with an embedded
// fabric coordinator and 2 in-process fabric workers, driven by closed-loop
// clients that each submit a seeded draw from a fixed catalog of 8 small
// campaign specs and block on the reply, as `gpufi submit` callers do.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "exec/engine.hpp"
#include "fabric/protocol.hpp"
#include "fabric/transport.hpp"
#include "fabric/worker.hpp"
#include "fabric/coordinator.hpp"
#include "harness.hpp"
#include "rtlfi/microbench.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "swfi/swfi.hpp"
#include "vocab/vocab.hpp"

namespace perfbench {
namespace {

using namespace gpufi;

constexpr unsigned kExecutors = 2;
constexpr unsigned kFabricWorkers = 2;

/// 6 rtl specs (2 fanned out over the fabric) and 2 sw specs (1 fanned
/// out, 1 replaying the syndrome database); every seed derives from the
/// workload seed.
std::vector<serve::CampaignSpec> make_catalog(const Options& opt) {
  std::vector<serve::CampaignSpec> catalog;
  const auto rtl = [&](const char* op, const char* module, const char* range,
                       const char* model, std::size_t faults,
                       unsigned workers) {
    serve::CampaignSpec s;
    s.kind = serve::CampaignKind::Rtl;
    s.op = op;
    s.module = module;
    s.range = range;
    s.fault_model = model;
    s.faults = faults;
    s.workers = workers;
    catalog.push_back(s);
  };
  const auto sw = [&](const char* app, const char* model,
                      std::size_t injections, unsigned workers) {
    serve::CampaignSpec s;
    s.kind = serve::CampaignKind::Sw;
    s.app = app;
    s.model = model;
    s.injections = injections;
    s.workers = workers;
    catalog.push_back(s);
  };
  rtl("FFMA", "fp32", "M", "transient", 400, 0);
  rtl("IMAD", "int", "M", "transient", 400, 0);
  rtl("FSIN", "sfu", "S", "transient", 150, 0);
  rtl("BRA", "sched", "M", "stuck1", 100, 0);
  rtl("GLD", "pipe", "L", "transient", 400, 2);
  rtl("FADD", "fp32", "L", "transient", 400, 2);
  sw("lava", "bitflip", 16, 0);
  sw("quicksort", "syndrome", 32, 2);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    catalog[i].seed = rng_derive(opt.seed, 7, i) >> 16;
    catalog[i].jobs = 1;
    catalog[i].accel = "full";
    catalog[i].db_path = opt.data_dir + "/syndromes.db";
  }
  return catalog;
}

std::string spec_label(const serve::CampaignSpec& s) {
  if (s.kind == serve::CampaignKind::Sw)
    return format("sw/%s/%s/workers=%u", s.app.c_str(), s.model.c_str(),
                  s.workers);
  return format("rtl/%s/%s/%s/%s/workers=%u", s.op.c_str(), s.module.c_str(),
                s.range.c_str(), s.fault_model.c_str(), s.workers);
}

std::size_t spec_injections(const serve::CampaignSpec& s) {
  return s.kind == serve::CampaignKind::Sw ? s.injections : s.faults;
}

/// The daemon, its fabric and its workers, all in this process, on
/// pid-suffixed unix sockets that are unlinked on teardown.
class Fleet {
 public:
  explicit Fleet(const Options& opt) {
    const std::string stem =
        opt.out_dir + "/" + std::to_string(::getpid());
    cfg_.socket_path = stem + "-serve.sock";
    cfg_.fabric_listen = "unix:" + stem + "-fabric.sock";
    fabric_path_ = stem + "-fabric.sock";
    cfg_.workers = kExecutors;
    cfg_.quiet = true;
  }
  ~Fleet() { stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  void start() {
    server_ = std::make_unique<serve::Server>(cfg_);
    server_->start();
    fabric::WorkerConfig wcfg;
    wcfg.coordinator = *fabric::parse_endpoint(cfg_.fabric_listen);
    for (unsigned i = 0; i < kFabricWorkers; ++i) {
      wcfg.name = "bench-worker-" + std::to_string(i);
      workers_.push_back(std::make_unique<fabric::Worker>(wcfg));
      workers_.back()->start();
    }
    if (!server_->coordinator()->wait_for_workers(kFabricWorkers, 10'000))
      throw std::runtime_error("fabric workers did not register");
  }

  void stop() {
    for (auto& w : workers_) w->stop();
    workers_.clear();
    if (server_) server_->shutdown(/*drain=*/true);
    server_.reset();
    ::unlink(cfg_.socket_path.c_str());
    ::unlink(fabric_path_.c_str());
  }

  const std::string& socket() const { return cfg_.socket_path; }
  serve::ServerStats stats() const { return server_->stats(); }

 private:
  serve::ServerConfig cfg_;
  std::string fabric_path_;
  std::unique_ptr<serve::Server> server_;
  std::vector<std::unique_ptr<fabric::Worker>> workers_;
};

struct Sample {
  std::size_t spec = 0;
  double ms = 0;
  bool traced = false;
};

/// One stretch of the closed loop with the tracer either on or off.
struct Phase {
  bool traced = false;
  double wall_s = 0;
  std::uint64_t completed = 0, injections = 0;
};

class ServedWorkload final : public Workload {
 public:
  ServedWorkload(const Options& opt, Tally& tally)
      : opt_(opt), tally_(tally), catalog_(make_catalog(opt)) {
    for (unsigned c = 0; c < bench_jobs(); ++c)
      clients_.emplace_back(rng_derive(opt.seed, 8, c));
  }

  const char* group() const override { return "served"; }

  /// Always keeps: a repeated set-up restarts the daemon.
  double setup(bool /*keep*/) override {
    fleet_.reset();  // a repeated set-up starts from a stopped daemon
    const auto t0 = Clock::now();
    fleet_ = std::make_unique<Fleet>(opt_);
    fleet_->start();
    for (const auto& spec : catalog_) {
      Span span("serve", "submit_campaign", 0);
      const auto out = serve::submit_campaign(fleet_->socket(), spec);
      if (!out.ok) throw std::runtime_error("warm-up submit: " + out.error);
    }
    return seconds_since(t0);
  }

  /// The closed loop has no rounds; `min_rounds` and `between` are unused.
  void run(double seconds, unsigned /*min_rounds*/, Tracing tracing,
           const Pause& /*between*/) override {
    compute_offline();
    const auto stats0 = fleet_->stats();
    // Alternate splits the loop into four phases, untraced first.
    const int n_phases = tracing == Tracing::Alternate ? 4 : 1;
    for (int p = 0; p < n_phases; ++p) {
      const bool traced = tracing == Tracing::On ||
                          (tracing == Tracing::Alternate && p % 2 == 1);
      run_phase(seconds / n_phases, traced);
    }
    const auto stats1 = fleet_->stats();
    golden_hits_ = stats1.golden_cache.hits;
    golden_misses_ = stats1.golden_cache.misses;
    shards_retried_ =
        stats1.fabric_shards_retried - stats0.fabric_shards_retried;
  }

  void check() override {
    // Every payload was compared with its offline reference as it arrived;
    // the daemon must also end idle with nothing failed or cancelled.
    const auto s = fleet_->stats();
    if (s.failed != 0 || s.cancelled != 0 || s.rejected != 0)
      tally_.fail(format("daemon counted failed=%zu cancelled=%zu "
                         "rejected=%zu",
                         s.failed, s.cancelled, s.rejected));
    if (s.fabric_shards_inflight != 0)
      tally_.fail("fabric shards still in flight");
  }

  Metrics end_to_end() const override {
    double completed = 0, injections = 0, wall = 0;
    std::vector<double> lat;
    for (const auto& p : phases_) {
      if (p.traced) continue;
      completed += static_cast<double>(p.completed);
      injections += static_cast<double>(p.injections);
      wall += p.wall_s;
    }
    for (const auto& s : samples_)
      if (!s.traced) lat.push_back(s.ms);
    Metrics m{{"inj_per_s", {ratio(injections, wall), "1/s"}},
              {"jobs_per_s", {ratio(completed, wall), "1/s"}}};
    add_latency_metrics(m, lat);
    return m;
  }

  Metrics layers() override {
    Metrics m;
    std::vector<double> inproc, fanout;
    for (const auto& s : samples_)
      if (s.traced)
        (catalog_[s.spec].workers ? fanout : inproc).push_back(s.ms);
    double plain_done = 0, plain_wall = 0, traced_done = 0, traced_wall = 0;
    for (const auto& p : phases_) {
      (p.traced ? traced_done : plain_done) += static_cast<double>(p.completed);
      (p.traced ? traced_wall : plain_wall) += p.wall_s;
    }
    m["serve.queue_wait_mean_ms"] = {
        ratio(queue_wait_.sum * 1e3, static_cast<double>(queue_wait_.count)),
        "ms"};
    m["serve.golden_cache_hit_frac"] = {
        ratio(golden_hits_, golden_hits_ + golden_misses_), "ratio"};
    m["serve.inproc_p50_ms"] = {percentile(inproc, 0.5), "ms"};
    m["fabric.fanout_p50_ms"] = {percentile(fanout, 0.5), "ms"};
    m["fabric.shard_mean_ms"] = {
        ratio(shard_.sum * 1e3, static_cast<double>(shard_.count)), "ms"};
    m["fabric.shards_retried"] = {static_cast<double>(shards_retried_),
                                  "count"};
    m["exec.busy_frac"] = {ratio(trial_s_, traced_wall * bench_jobs()),
                           "ratio"};
    const double base = ratio(plain_done, plain_wall);
    m["obs.trace_overhead_frac"] = {
        ratio(base - ratio(traced_done, traced_wall), base), "ratio"};
    probe_codecs(m);
    probe_stats_rtt(m);
    return m;
  }

 private:
  /// Offline reference payloads, computed once before the timed loop, one
  /// after another so the process's peak memory does not depend on which
  /// of them happened to overlap.
  void compute_offline() {
    if (!offline_.empty()) return;
    for (const auto& entry : catalog_) {
      auto spec = entry;
      spec.workers = 0;  // transport only: never part of the payload
      Span span("serve", "run_spec_offline", 0);
      offline_.push_back(serve::run_spec_offline(spec));
      tally_.sim(format("served %s bytes=%zu fnv=%016llx",
                        spec_label(entry).c_str(), offline_.back().size(),
                        static_cast<unsigned long long>(
                            fnv1a(offline_.back()))));
    }
  }

  void run_phase(double seconds, bool traced) {
    Tracer::global().set_enabled(traced);
    const auto queue0 = read_histogram("gpufi_serve_queue_wait_seconds");
    const auto shard0 = read_histogram("gpufi_fabric_shard_seconds");
    const auto trials0 = read_histogram("gpufi_exec_trial_seconds");
    // Tiny runs send a fixed number of submits per client instead.
    const std::size_t quota = opt_.tiny ? 2 : 0;
    const auto t0 = Clock::now();
    const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    std::mutex mutex;
    Phase phase;
    phase.traced = traced;
    std::vector<std::thread> threads;
    for (auto& rng : clients_)
      threads.emplace_back([&, rng_ptr = &rng] {
        for (std::size_t sent = 0;
             quota ? sent < quota : Clock::now() < deadline; ++sent) {
          const std::size_t idx = rng_ptr->below(catalog_.size());
          const auto s0 = Clock::now();
          serve::SubmitOutcome out;
          try {
            Span span("serve", "submit_campaign", ++request_);
            out = serve::submit_campaign(fleet_->socket(), catalog_[idx]);
          } catch (const std::exception& e) {  // never out of the thread
            out.ok = false;
            out.error = e.what();
          }
          const double ms = seconds_since(s0) * 1e3;
          std::lock_guard<std::mutex> lock(mutex);
          tally_.attempt();
          if (!out.ok) {
            tally_.fail(spec_label(catalog_[idx]) + ": " + out.error);
            continue;
          }
          if (out.result != offline_[idx]) {
            tally_.fail(spec_label(catalog_[idx]) +
                        ": served payload differs from offline");
            continue;
          }
          samples_.push_back({idx, ms, traced});
          ++phase.completed;
          phase.injections += spec_injections(catalog_[idx]);
        }
      });
    for (auto& t : threads) t.join();
    phase.wall_s = seconds_since(t0);
    Tracer::global().set_enabled(false);
    if (traced) {
      queue_wait_ = queue_wait_ +
                    (read_histogram("gpufi_serve_queue_wait_seconds") - queue0);
      shard_ = shard_ + (read_histogram("gpufi_fabric_shard_seconds") - shard0);
      trial_s_ += (read_histogram("gpufi_exec_trial_seconds") - trials0).sum;
    }
    phases_.push_back(phase);
  }

  /// Spec and result codecs on the catalog, and the fabric's partial codec
  /// and merge on the real shards of a fanned-out rtl spec.
  void probe_codecs(Metrics& m) {
    Tracer::global().set_enabled(true);
    constexpr int kReps = 50;
    {
      const auto t0 = Clock::now();
      for (int rep = 0; rep < kReps; ++rep)
        for (const auto& spec : catalog_) {
          Span span("serve", "spec_codec", 0);
          const auto back = serve::decode_spec(serve::encode_spec(spec));
          if (!back || !(*back == spec))
            tally_.fail(spec_label(spec) + ": spec codec round trip differs");
        }
      m["serve.spec_codec_us"] = {
          seconds_since(t0) * 1e6 / (kReps * catalog_.size()), "us"};
    }

    // In-process results of the rtl specs and the bitflip sw spec: their
    // serializations must equal the offline payloads.
    double codec_s = 0;
    std::size_t codec_calls = 0;
    for (std::size_t i = 0; i < catalog_.size(); ++i) {
      auto spec = catalog_[i];
      spec.workers = 0;
      std::string bytes;
      if (spec.kind == serve::CampaignKind::Rtl) {
        const auto w = rtlfi::make_microbenchmark(
            *vocab::parse_opcode(spec.op), *vocab::parse_range(spec.range),
            spec.seed);
        const auto cc = serve::campaign_config_for_spec(
            spec, *vocab::parse_module(spec.module), {}, nullptr);
        const auto r = rtlfi::run_campaign(w, cc);
        const auto t0 = Clock::now();
        for (int rep = 0; rep < kReps; ++rep) {
          Span span("serve", "serialize_campaign_result", 0);
          bytes = serve::serialize_campaign_result(spec, r);
        }
        codec_s += seconds_since(t0);
        codec_calls += kReps;
        if (catalog_[i].workers > 0)
          probe_fabric(m, spec, catalog_[i].workers, w, bytes);
      } else if (spec.model == "bitflip") {
        const auto app = vocab::make_app(spec.app);
        swfi::Config cfg;
        cfg.n_injections = spec.injections;
        cfg.seed = spec.seed;
        cfg.jobs = spec.jobs;
        const auto r = swfi::run_sw_campaign(app.app, cfg);
        const auto t0 = Clock::now();
        for (int rep = 0; rep < kReps; ++rep) {
          Span span("serve", "serialize_sw_result", 0);
          bytes = serve::serialize_sw_result(r);
        }
        codec_s += seconds_since(t0);
        codec_calls += kReps;
      } else {
        continue;
      }
      if (bytes != offline_[i])
        tally_.fail(spec_label(spec) + ": in-process serialization differs");
    }
    m["serve.result_codec_us"] = {ratio(codec_s * 1e6, codec_calls), "us"};
  }

  void probe_fabric(Metrics& m, const serve::CampaignSpec& spec,
                    unsigned workers, const rtlfi::Workload& w,
                    const std::string& expected) {
    constexpr int kReps = 50;
    std::vector<rtlfi::CampaignResult> partials;
    std::vector<std::string> encoded;
    const auto cc = serve::campaign_config_for_spec(
        spec, *vocab::parse_module(spec.module), {}, nullptr);
    std::vector<exec::TrialRange> shards;
    {
      Span span("exec", "plan_shards", 0);
      shards = exec::plan_shards(spec.faults, workers);
    }
    for (const auto& range : shards) {
      auto shard_cfg = cc;
      shard_cfg.shard_offset = range.offset;
      shard_cfg.shard_count = range.count;
      partials.push_back(rtlfi::run_campaign(w, shard_cfg));
    }
    const auto t0 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      encoded.clear();
      for (std::size_t k = 0; k < partials.size(); ++k) {
        Span span("fabric", "rtl_partial_codec", 0);
        encoded.push_back(fabric::encode_rtl_partial(partials[k]));
        auto back = fabric::decode_rtl_partial(encoded.back());
        if (!back) {
          tally_.fail(spec_label(spec) + ": partial decode failed");
          return;
        }
        partials[k] = std::move(*back);
      }
    }
    m["fabric.partial_codec_us"] = {
        seconds_since(t0) * 1e6 / (kReps * partials.size()), "us"};
    rtlfi::CampaignResult merged;
    const auto t1 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      Span span("fabric", "CampaignResult::merge", 0);
      merged = rtlfi::CampaignResult{};
      for (const auto& p : partials) merged.merge(p);
    }
    m["fabric.merge_us"] = {seconds_since(t1) * 1e6 / kReps, "us"};
    if (serve::serialize_campaign_result(spec, merged) != expected)
      tally_.fail(spec_label(spec) + ": merged shards differ from whole");
  }

  void probe_stats_rtt(Metrics& m) {
    std::vector<double> us;
    for (int rep = 0; rep < 100; ++rep) {
      const auto t0 = Clock::now();
      std::optional<serve::ServerStats> s;
      {
        Span span("serve", "query_stats", 0);
        s = serve::query_stats(fleet_->socket());
      }
      us.push_back(seconds_since(t0) * 1e6);
      if (!s) {
        tally_.fail("query_stats failed");
        return;
      }
    }
    m["serve.stats_rtt_us"] = {median(us), "us"};
  }

  const Options& opt_;
  Tally& tally_;
  std::vector<serve::CampaignSpec> catalog_;
  std::vector<std::string> offline_;
  std::vector<Rng> clients_;
  std::unique_ptr<Fleet> fleet_;
  std::atomic<std::uint64_t> request_{0};
  std::vector<Sample> samples_;
  std::vector<Phase> phases_;
  // Traced phases only.
  HistSnapshot queue_wait_, shard_;
  double trial_s_ = 0;
  std::size_t golden_hits_ = 0, golden_misses_ = 0, shards_retried_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_served_workload(const Options& opt,
                                               Tally& tally) {
  return std::make_unique<ServedWorkload>(opt, tally);
}

}  // namespace perfbench
