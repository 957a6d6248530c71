// rtl-transient and rtl-permanent: the Fig. 4 characterization grid (12
// opcode / natural-module pairs x input ranges S, M, L = 36 sites) run as
// rtlfi campaigns, transient faults in one workload and stuck-at-0,
// stuck-at-1 and permanent burst faults in the other.
#include <algorithm>
#include <exception>

#include "common/rng.hpp"
#include "exec/engine.hpp"
#include "harness.hpp"
#include "rtl/sm.hpp"
#include "rtlfi/campaign.hpp"
#include "rtlfi/microbench.hpp"
#include "vocab/vocab.hpp"

namespace perfbench {
namespace {

using namespace gpufi;

struct Site {
  isa::Opcode op;
  rtl::Module module;
  rtlfi::InputRange range;
};

std::vector<Site> fig04_sites() {
  // Each characterized opcode bombards the module that executes it.
  const std::pair<isa::Opcode, rtl::Module> pairs[] = {
      {isa::Opcode::FADD, rtl::Module::Fp32Fu},
      {isa::Opcode::FMUL, rtl::Module::Fp32Fu},
      {isa::Opcode::FFMA, rtl::Module::Fp32Fu},
      {isa::Opcode::IADD, rtl::Module::IntFu},
      {isa::Opcode::IMUL, rtl::Module::IntFu},
      {isa::Opcode::IMAD, rtl::Module::IntFu},
      {isa::Opcode::FSIN, rtl::Module::Sfu},
      {isa::Opcode::FEXP, rtl::Module::Sfu},
      {isa::Opcode::GLD, rtl::Module::PipelineRegs},
      {isa::Opcode::GST, rtl::Module::PipelineRegs},
      {isa::Opcode::BRA, rtl::Module::Scheduler},
      {isa::Opcode::ISETP, rtl::Module::Scheduler},
  };
  std::vector<Site> sites;
  for (const auto& [op, module] : pairs)
    for (const auto range :
         {rtlfi::InputRange::Small, rtlfi::InputRange::Medium,
          rtlfi::InputRange::Large})
      sites.push_back({op, module, range});
  return sites;
}

/// The outcome counters a campaign must reproduce exactly.
struct Counts {
  std::size_t injected = 0, masked = 0, sdc_single = 0, sdc_multi = 0,
              due = 0, converged = 0;
  bool operator==(const Counts&) const = default;
};

Counts counts_of(const rtlfi::CampaignResult& r) {
  return {r.injected, r.masked, r.sdc_single, r.sdc_multi, r.due,
          r.converged_early};
}

class RtlWorkload final : public Workload {
 public:
  RtlWorkload(const Options& opt, Tally& tally, bool permanent)
      : opt_(opt), tally_(tally), sites_(fig04_sites()) {
    const std::size_t n_faults =
        permanent ? (opt.tiny ? 16 : 300) : (opt.tiny ? 32 : 1000);
    std::vector<rtl::FaultModel> models{rtl::FaultModel::Transient};
    if (permanent)
      models = {rtl::FaultModel::StuckAt0, rtl::FaultModel::StuckAt1,
                rtl::FaultModel::IntermittentBurst};
    for (std::size_t s = 0; s < sites_.size(); ++s)
      for (std::size_t m = 0; m < models.size(); ++m) {
        Campaign c;
        c.site = s;
        c.cfg.module = sites_[s].module;
        c.cfg.n_faults = n_faults;
        c.base_seed = rng_derive(opt.seed, 2, s, m);
        c.cfg.seed = round_seed(c.base_seed, 0);
        c.cfg.fault_model = models[m];
        c.cfg.fault_duration = 0;  // burst stays permanent
        c.cfg.jobs = bench_jobs();
        c.cfg.acceleration = rtlfi::Acceleration::CheckpointEarlyExit;
        c.label = site_label(s) + "/" +
                  std::string(vocab::fault_model_token(models[m]));
        campaigns_.push_back(std::move(c));
      }
  }

  const char* group() const override { return "rtl"; }

  double setup(bool keep) override {
    const auto t0 = Clock::now();
    if (keep) {
      workloads_.clear();
      goldens_.clear();
    }
    double prepare_s = 0;
    for (std::size_t s = 0; s < sites_.size(); ++s) {
      auto workload = rtlfi::make_microbenchmark(
          sites_[s].op, sites_[s].range, rng_derive(opt_.seed, 1, s));
      rtlfi::CampaignConfig cfg;
      cfg.module = sites_[s].module;
      const auto p0 = Clock::now();
      Span span("rtlfi", "prepare_golden", 0);
      auto golden = rtlfi::prepare_golden(workload, cfg);
      prepare_s += seconds_since(p0);
      // A dropped site goes at once, so a timing-only repetition holds one
      // extra golden at a time, not a second copy of all of them.
      if (keep) {
        workloads_.push_back(std::move(workload));
        goldens_.push_back(std::move(golden));
      }
    }
    prepare_s_.push_back(prepare_s);
    return seconds_since(t0);
  }

  void run(double seconds, unsigned min_rounds, Tracing tracing,
           const Pause& between) override {
    rounds_ = run_rounds(seconds, min_rounds, tracing, between,
                         [&](std::size_t index, bool traced,
                             const Pause& pause) {
      const auto restores0 =
          read_counter("gpufi_rtl_checkpoint_restores_total");
      const auto trials0 = read_histogram("gpufi_exec_trial_seconds");
      Round r;
      for (const auto& c : campaigns_) {
        pause();
        tally_.attempt();
        auto cfg = c.cfg;
        cfg.seed = round_seed(c.base_seed, index);
        const auto t0 = Clock::now();
        rtlfi::CampaignResult res;
        try {
          Span span("rtlfi", "run_campaign", ++request_);
          res = rtlfi::run_campaign(workloads_[c.site], cfg, goldens_[c.site]);
        } catch (const std::exception& e) {
          tally_.fail(c.label + ": " + e.what());
          continue;
        }
        const double dt = seconds_since(t0);
        r.op_s += dt;
        r.injections += res.injected;
        r.latencies_ms.push_back(dt * 1e3);
        if (index == 0) record(c, res);
        if (traced) {
          injected_ += res.injected;
          converged_ += res.converged_early;
          due_ += res.due;
        }
      }
      if (traced) {
        restores_ +=
            read_counter("gpufi_rtl_checkpoint_restores_total") - restores0;
        trial_s_ += (read_histogram("gpufi_exec_trial_seconds") - trials0).sum;
      }
      return r;
    });
  }

  void check() override {
    // One chunk-aligned shard per campaign, re-run from reset without any
    // acceleration: its outcome counters must equal the accelerated ones.
    std::size_t chunk = 0;
    {
      Span span("exec", "chunk_size", 0);
      chunk = exec::chunk_size(campaigns_.front().cfg.n_faults);
    }
    run_checks(tally_, campaigns_.size(), [&](std::size_t i) {
      const auto& c = campaigns_[i];
      auto cfg = c.cfg;
      cfg.jobs = 1;  // the checks themselves run one per thread
      const std::size_t n_chunks = (cfg.n_faults + chunk - 1) / chunk;
      Rng pick(rng_derive(opt_.seed, 4, i));
      cfg.shard_offset = pick.below(n_chunks) * chunk;
      cfg.shard_count = std::min(chunk, cfg.n_faults - cfg.shard_offset);
      const auto fast =
          rtlfi::run_campaign(workloads_[c.site], cfg, goldens_[c.site]);
      cfg.acceleration = rtlfi::Acceleration::None;
      auto slow = counts_of(rtlfi::run_campaign(workloads_[c.site], cfg));
      slow.converged = fast.converged_early;  // telemetry, not an outcome
      return counts_of(fast) == slow
                 ? std::string()
                 : c.label + ": accelerated shard differs from accel none";
    });
  }

  Metrics end_to_end() const override { return campaign_end_to_end(rounds_); }

  Metrics layers() override {
    Metrics m;
    // rtl: the golden run of every site on a bare rtl::Sm.
    std::uint64_t golden_cycles = 0;
    for (const auto& g : goldens_) golden_cycles += g.golden_cycles;
    std::vector<double> rates;
    for (int rep = 0; rep < 3; ++rep) {
      double cycles = 0, secs = 0;
      for (std::size_t s = 0; s < sites_.size(); ++s) {
        const auto& w = workloads_[s];
        rtl::Sm sm;
        w.setup(sm);
        const auto t0 = Clock::now();
        rtl::RunResult res;
        {
          Span span("rtl", "Sm::run", 0);
          res = sm.run(w.program, w.dims);
        }
        secs += seconds_since(t0);
        cycles += static_cast<double>(res.cycles);
        if (res.cycles != goldens_[s].golden_cycles)
          tally_.fail(site_label(s) + ": Sm::run cycles differ");
      }
      rates.push_back(ratio(cycles, secs));
    }
    m["rtl.cycles_per_s"] = {median(rates), "1/s"};
    m["rtl.golden_cycles"] = {static_cast<double>(golden_cycles), "cycles"};

    std::vector<double> campaign_s;
    for (const auto& r : rounds_)
      if (r.traced) campaign_s.push_back(r.op_s);
    m["rtlfi.prepare_golden_s"] = {median(prepare_s_), "s"};
    m["rtlfi.campaign_s"] = {median(campaign_s), "s"};
    m["rtlfi.early_exit_frac"] = {ratio(converged_, injected_), "ratio"};
    m["rtlfi.due_frac"] = {ratio(due_, injected_), "ratio"};
    m["rtlfi.checkpoint_restores"] = {
        ratio(static_cast<double>(restores_), campaign_s.size()), "count"};
    double op_s = 0;
    for (const auto& s : campaign_s) op_s += s;
    m["exec.busy_frac"] = {ratio(trial_s_, op_s * bench_jobs()), "ratio"};
    m["obs.trace_overhead_frac"] = {trace_overhead(rounds_), "ratio"};
    return m;
  }

 private:
  struct Campaign {
    std::size_t site = 0;
    rtlfi::CampaignConfig cfg;
    std::string label;
    std::uint64_t base_seed = 0;
  };

  std::string site_label(std::size_t s) const {
    return std::string(isa::mnemonic(sites_[s].op)) + "/" +
           std::string(vocab::module_token(sites_[s].module)) + "/" +
           std::string(rtlfi::range_name(sites_[s].range));
  }

  void record(const Campaign& c, const rtlfi::CampaignResult& res) {
    const Counts k = counts_of(res);
    tally_.sim(format(
        "rtl %s injected=%zu masked=%zu sdc_single=%zu sdc_multi=%zu due=%zu "
        "converged=%zu golden_cycles=%llu avf=%.17g",
        c.label.c_str(), k.injected, k.masked, k.sdc_single, k.sdc_multi,
        k.due, k.converged,
        static_cast<unsigned long long>(res.golden_cycles), res.avf()));
  }

  const Options& opt_;
  Tally& tally_;
  std::vector<Site> sites_;
  std::vector<Campaign> campaigns_;
  std::vector<rtlfi::Workload> workloads_;
  std::vector<rtlfi::GoldenContext> goldens_;
  std::vector<double> prepare_s_;
  std::vector<Round> rounds_;
  std::uint64_t request_ = 0;
  // Traced rounds only.
  std::uint64_t injected_ = 0, converged_ = 0, due_ = 0, restores_ = 0;
  double trial_s_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_rtl_workload(const Options& opt, Tally& tally,
                                            bool permanent) {
  return std::make_unique<RtlWorkload>(opt, tally, permanent);
}

}  // namespace perfbench
