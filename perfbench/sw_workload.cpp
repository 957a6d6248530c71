// sw-apps: the six HPC applications x {bitflip, relative, sticky} software
// fault-injection campaigns on the SoA interpreter. relative and sticky
// replay the RTL syndrome database; no RTL simulation runs.
#include <algorithm>
#include <array>
#include <cctype>
#include <exception>

#include "apps/apps.hpp"
#include "common/rng.hpp"
#include "emu/device.hpp"
#include "exec/engine.hpp"
#include "harness.hpp"
#include "swfi/swfi.hpp"
#include "syndrome/syndrome.hpp"

namespace perfbench {
namespace {

using namespace gpufi;

struct Model {
  const char* name;
  swfi::FaultModel model;
  /// Syndrome class replayed (sticky images a stuck-at-1 flip-flop, as the
  /// daemon's dispatch does).
  rtl::FaultModel syndrome_model;
  bool needs_db;
};

constexpr Model kModels[] = {
    {"bitflip", swfi::FaultModel::SingleBitFlip, rtl::FaultModel::Transient,
     false},
    {"relative", swfi::FaultModel::RelativeError, rtl::FaultModel::Transient,
     true},
    {"sticky", swfi::FaultModel::StickyRelativeError,
     rtl::FaultModel::StuckAt1, true},
};
constexpr std::size_t kNumModels = sizeof kModels / sizeof kModels[0];

struct Counts {
  std::size_t injections = 0, masked = 0, sdc = 0, due = 0;
  std::uint64_t candidates = 0;
  bool operator==(const Counts&) const = default;
};

Counts counts_of(const swfi::Result& r) {
  return {r.injections, r.masked, r.sdc, r.due, r.candidate_instructions};
}

/// Counts retired thread-instructions (the emu throughput numerator).
class CountHook final : public emu::InstrumentHook {
 public:
  std::uint64_t n = 0;
  void on_count(const emu::RetireInfo&) override { ++n; }
};

class SwWorkload final : public Workload {
 public:
  SwWorkload(const Options& opt, Tally& tally) : opt_(opt), tally_(tally) {}

  const char* group() const override { return "sw"; }

  double setup(bool keep) override {
    const auto t0 = Clock::now();
    auto apps = apps::all_hpc_apps();
    const auto l0 = Clock::now();
    syndrome::Database db;
    {
      Span span("syndrome", "Database::load_file", 0);
      db = syndrome::Database::load_file(opt_.data_dir + "/syndromes.db");
    }
    load_s_.push_back(seconds_since(l0));
    if (!keep) return seconds_since(t0);
    apps_ = std::move(apps);
    db_ = std::move(db);
    campaigns_.clear();
    for (std::size_t a = 0; a < apps_.size(); ++a)
      for (std::size_t m = 0; m < kNumModels; ++m) {
        Campaign c;
        c.app = a;
        c.model = m;
        c.label = app_name(a) + "/" + kModels[m].name;
        c.cfg.model = kModels[m].model;
        c.cfg.syndrome_model = kModels[m].syndrome_model;
        c.cfg.db = kModels[m].needs_db ? &db_ : nullptr;
        c.cfg.n_injections = opt_.tiny ? 16 : 128;
        c.base_seed = rng_derive(opt_.seed, 3, a, m);
        c.cfg.seed = round_seed(c.base_seed, 0);
        c.cfg.jobs = bench_jobs();
        campaigns_.push_back(std::move(c));
      }
    return seconds_since(t0);
  }

  void run(double seconds, unsigned min_rounds, Tracing tracing,
           const Pause& between) override {
    rounds_ = run_rounds(seconds, min_rounds, tracing, between,
                         [&](std::size_t index, bool traced,
                             const Pause& pause) {
      Round r;
      std::array<double, kNumModels> model_s{};
      for (auto& c : campaigns_) {
        pause();
        tally_.attempt();
        const auto trials0 = read_histogram("gpufi_exec_trial_seconds");
        const auto t0 = Clock::now();
        auto cfg = c.cfg;
        cfg.seed = round_seed(c.base_seed, index);
        swfi::Result res;
        try {
          Span span("swfi", "run_sw_campaign", ++request_);
          res = swfi::run_sw_campaign(apps_[c.app].app, cfg);
        } catch (const std::exception& e) {
          tally_.fail(c.label + ": " + e.what());
          continue;
        }
        const double dt = seconds_since(t0);
        r.op_s += dt;
        r.injections += res.injections;
        r.latencies_ms.push_back(dt * 1e3);
        if (index == 0) record(c, res);
        if (traced) {
          model_s[c.model] += dt;
          const auto trials =
              read_histogram("gpufi_exec_trial_seconds") - trials0;
          trial_s_ += trials.sum;
          c.trial_s += trials.sum;
          c.trials += trials.count;
          injections_ += res.injections;
          due_ += res.due;
        }
      }
      if (traced)
        for (std::size_t m = 0; m < kNumModels; ++m)
          model_round_s_[m].push_back(model_s[m]);
      return r;
    });
  }

  void check() override {
    for (const auto& h : apps_) {
      emu::Device dev(h.app.device_words);
      if (!h.app.run(dev, nullptr) || !h.validate(dev))
        tally_.fail(h.app.name + ": golden output fails validation");
    }
    // One chunk-aligned shard per campaign on the scalar reference
    // interpreter: its counters must equal the same shard on SoA.
    std::size_t chunk = 0;
    {
      Span span("exec", "chunk_size", 0);
      chunk = exec::chunk_size(campaigns_.front().cfg.n_injections);
    }
    run_checks(tally_, campaigns_.size(), [&](std::size_t i) {
      const auto& c = campaigns_[i];
      auto cfg = c.cfg;
      cfg.jobs = 1;  // the checks themselves run one per thread
      const std::size_t n_chunks = (cfg.n_injections + chunk - 1) / chunk;
      Rng pick(rng_derive(opt_.seed, 5, i));
      cfg.shard_offset = pick.below(n_chunks) * chunk;
      cfg.shard_count = std::min(chunk, cfg.n_injections - cfg.shard_offset);
      const auto soa = swfi::run_sw_campaign(apps_[c.app].app, cfg);
      cfg.interpreter = emu::Interpreter::Scalar;
      const auto scalar = swfi::run_sw_campaign(apps_[c.app].app, cfg);
      return counts_of(soa) == counts_of(scalar)
                 ? std::string()
                 : c.label + ": SoA shard differs from scalar";
    });
  }

  Metrics end_to_end() const override { return campaign_end_to_end(rounds_); }

  Metrics layers() override {
    Metrics m;
    // emu: unhooked SoA golden runs, and the thread-instructions they retire
    // (counted once, untimed, through a counting hook).
    std::vector<double> golden_s(apps_.size());
    double instr = 0, instr_s = 0;
    for (std::size_t a = 0; a < apps_.size(); ++a) {
      const auto& app = apps_[a].app;
      std::vector<double> reps;
      for (int rep = 0; rep < 3; ++rep) {
        emu::Device dev(app.device_words);
        const auto t0 = Clock::now();
        {
          Span span("emu", "App::run", 0);
          app.run(dev, nullptr);
        }
        reps.push_back(seconds_since(t0));
      }
      golden_s[a] = median(reps);
      m["emu.golden_ms." + app_name(a)] = {golden_s[a] * 1e3, "ms"};
      emu::Device dev(app.device_words);
      CountHook count;
      app.run(dev, &count);
      instr += static_cast<double>(count.n);
      instr_s += golden_s[a];
    }
    m["emu.thread_instr_per_s"] = {ratio(instr, instr_s), "1/s"};

    // swfi: per-model campaign seconds per round, and mean trial seconds
    // against the golden run of the same app (1 = interpreter-bound).
    for (std::size_t k = 0; k < kNumModels; ++k) {
      double trial_s = 0, golden_equiv_s = 0;
      for (const auto& c : campaigns_) {
        if (c.model != k) continue;
        trial_s += c.trial_s;
        golden_equiv_s += static_cast<double>(c.trials) * golden_s[c.app];
      }
      const std::string name = kModels[k].name;
      m["swfi.campaign_s." + name] = {median(model_round_s_[k]), "s"};
      m["swfi.trial_over_golden." + name] = {ratio(trial_s, golden_equiv_s),
                                             "ratio"};
    }
    m["swfi.due_frac"] = {ratio(due_, injections_), "ratio"};

    // syndrome: load time from set-up, and sampling over every key.
    m["syndrome.load_s"] = {median(load_s_), "s"};
    const auto keys = db_.keys();
    Rng rng(rng_derive(opt_.seed, 6));
    std::size_t samples = 0;
    const auto t0 = Clock::now();
    {
      Span span("syndrome", "sample_relative_error", 0);
      for (int rep = 0; rep < 50; ++rep)
        for (const auto& k : keys) {
          if (db_.sample_relative_error(k.op, k.range, rng, k.model)) ++samples;
        }
    }
    m["syndrome.sample_us"] = {ratio(seconds_since(t0) * 1e6, samples), "us"};

    double op_s = 0;
    for (const auto& r : rounds_)
      if (r.traced) op_s += r.op_s;
    m["exec.busy_frac"] = {ratio(trial_s_, op_s * bench_jobs()), "ratio"};
    m["obs.trace_overhead_frac"] = {trace_overhead(rounds_), "ratio"};
    return m;
  }

 private:
  /// The app's name in the CLI vocabulary ("mxm", "lava", ...).
  std::string app_name(std::size_t a) const {
    std::string name = apps_[a].app.name;
    for (char& ch : name) ch = static_cast<char>(std::tolower(ch));
    return name;
  }

  struct Campaign {
    std::size_t app = 0, model = 0;
    swfi::Config cfg;
    std::string label;
    std::uint64_t base_seed = 0;
    // Traced rounds: exec trial-histogram deltas.
    double trial_s = 0;
    std::uint64_t trials = 0;
  };

  void record(const Campaign& c, const swfi::Result& res) {
    const Counts k = counts_of(res);
    tally_.sim(format("sw %s injections=%zu masked=%zu sdc=%zu due=%zu "
                      "candidates=%llu pvf=%.17g",
                      c.label.c_str(), k.injections, k.masked, k.sdc, k.due,
                      static_cast<unsigned long long>(k.candidates),
                      res.pvf()));
  }

  const Options& opt_;
  Tally& tally_;
  std::vector<apps::HpcApp> apps_;
  syndrome::Database db_;
  std::vector<Campaign> campaigns_;
  std::vector<double> load_s_;
  std::vector<Round> rounds_;
  std::array<std::vector<double>, kNumModels> model_round_s_;
  std::uint64_t request_ = 0;
  // Traced rounds only.
  std::uint64_t injections_ = 0, due_ = 0;
  double trial_s_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_sw_workload(const Options& opt, Tally& tally) {
  return std::make_unique<SwWorkload>(opt, tally);
}

}  // namespace perfbench
