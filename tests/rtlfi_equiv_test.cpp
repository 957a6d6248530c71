// A/B equivalence of the RTL campaign acceleration levels: for every opcode
// class and the t-MxM mini-app, `acceleration = none`, `checkpoint` and
// `checkpoint+early_exit` at jobs=1 and jobs=4 must produce byte-identical
// outcome counters, error records and serialized syndrome databases. This is
// the contract that lets the fast path replace the naive one wholesale.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attr/attr.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rtlfi/campaign.hpp"
#include "rtlfi/microbench.hpp"
#include "syndrome/syndrome.hpp"

namespace gpufi::rtlfi {
namespace {

struct Case {
  Workload workload;
  rtl::Module module;
  isa::Opcode op;  ///< key for the syndrome-DB comparison
  std::size_t n_faults;
};

std::vector<Case> cases() {
  auto micro = [](isa::Opcode op, rtl::Module m, std::size_t n) {
    return Case{make_microbenchmark(op, InputRange::Medium, 11), m, op, n};
  };
  std::vector<Case> cs;
  cs.push_back(micro(isa::Opcode::FFMA, rtl::Module::Fp32Fu, 80));
  cs.push_back(micro(isa::Opcode::IMUL, rtl::Module::IntFu, 80));
  cs.push_back(micro(isa::Opcode::FEXP, rtl::Module::Sfu, 60));
  cs.push_back(micro(isa::Opcode::FSIN, rtl::Module::SfuCtl, 60));
  cs.push_back(micro(isa::Opcode::GST, rtl::Module::PipelineRegs, 80));
  cs.push_back(micro(isa::Opcode::BRA, rtl::Module::Scheduler, 80));
  // t-MxM exercises shared memory, barriers and multi-instruction control.
  cs.push_back(Case{make_tmxm(TileKind::Random, 5), rtl::Module::Scheduler,
                    isa::Opcode::FFMA, 100});
  return cs;
}

/// The 12 Fig. 4 opcode / natural-module pairs at `n` faults each.
std::vector<Case> fig04_cases(std::size_t n) {
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
  std::vector<Case> cs;
  for (const auto& [op, module] : pairs)
    cs.push_back(Case{make_microbenchmark(op, InputRange::Medium, 11), module,
                      op, n});
  return cs;
}

CampaignResult run_mode(const Case& c, Acceleration accel, unsigned jobs,
                        rtl::FaultModel model = rtl::FaultModel::Transient,
                        std::uint64_t duration = 0) {
  CampaignConfig cfg;
  cfg.module = c.module;
  cfg.n_faults = c.n_faults;
  cfg.seed = 99;
  cfg.jobs = jobs;
  cfg.keep_all_records = true;
  cfg.acceleration = accel;
  cfg.fault_model = model;
  cfg.fault_duration = duration;
  return run_campaign(c.workload, cfg);
}

/// Serializes the campaign into the downstream artifact (the syndrome DB)
/// so the comparison covers exactly the bytes the two-level hand-off uses.
std::string db_bytes(const Case& c, const CampaignResult& r,
                     rtl::FaultModel model = rtl::FaultModel::Transient) {
  syndrome::Database db;
  db.add_campaign(syndrome::Key{c.module, c.op, InputRange::Medium, model},
                  r);
  std::ostringstream os;
  db.save(os);
  return os.str();
}

void expect_identical(const Case& c, const CampaignResult& base,
                      const CampaignResult& other, const std::string& what,
                      rtl::FaultModel model = rtl::FaultModel::Transient) {
  SCOPED_TRACE(c.workload.name + " vs " + what);
  EXPECT_EQ(base.injected, other.injected);
  EXPECT_EQ(base.masked, other.masked);
  EXPECT_EQ(base.sdc_single, other.sdc_single);
  EXPECT_EQ(base.sdc_multi, other.sdc_multi);
  EXPECT_EQ(base.due, other.due);
  EXPECT_EQ(base.golden_cycles, other.golden_cycles);
  // `converged_early` is deliberately excluded: it is the only field that
  // legitimately differs across acceleration levels.

  ASSERT_EQ(base.records.size(), other.records.size());
  for (std::size_t i = 0; i < base.records.size(); ++i) {
    const auto& a = base.records[i];
    const auto& b = other.records[i];
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a.fault.bit, b.fault.bit);
    EXPECT_EQ(a.fault.cycle, b.fault.cycle);
    EXPECT_EQ(a.field, b.field);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.due_reason, b.due_reason);
    EXPECT_EQ(a.due_reason_code, b.due_reason_code);
    // The fault-site context is resolved from the golden liveness timeline,
    // which only the plain golden run records — it must be bit-for-bit
    // invariant across acceleration levels and job counts.
    EXPECT_EQ(a.site.live, b.site.live);
    EXPECT_EQ(a.site.dyn_index, b.site.dyn_index);
    EXPECT_EQ(a.site.pc, b.site.pc);
    EXPECT_EQ(a.site.cta, b.site.cta);
    EXPECT_EQ(a.site.warp, b.site.warp);
    EXPECT_EQ(a.site.op, b.site.op);
    EXPECT_EQ(a.site.stage, b.site.stage);
    EXPECT_EQ(a.site.unit_busy, b.site.unit_busy);
    EXPECT_EQ(a.corrupted_elements, b.corrupted_elements);
    EXPECT_EQ(a.corrupted_threads, b.corrupted_threads);
    ASSERT_EQ(a.diffs.size(), b.diffs.size());
    for (std::size_t d = 0; d < a.diffs.size(); ++d) {
      EXPECT_EQ(a.diffs[d].index, b.diffs[d].index);
      EXPECT_EQ(a.diffs[d].golden, b.diffs[d].golden);
      EXPECT_EQ(a.diffs[d].faulty, b.diffs[d].faulty);
    }
  }
  EXPECT_EQ(db_bytes(c, base, model), db_bytes(c, other, model));
}

TEST(CampaignEquivalence, AccelerationAndJobsInvariant) {
  for (const auto& c : cases()) {
    const CampaignResult base = run_mode(c, Acceleration::None, 1);
    EXPECT_EQ(base.converged_early, 0u);
    expect_identical(c, base, run_mode(c, Acceleration::None, 4),
                     "none/jobs=4");
    expect_identical(c, base, run_mode(c, Acceleration::Checkpoint, 1),
                     "checkpoint/jobs=1");
    expect_identical(c, base, run_mode(c, Acceleration::Checkpoint, 4),
                     "checkpoint/jobs=4");
    expect_identical(c, base,
                     run_mode(c, Acceleration::CheckpointEarlyExit, 1),
                     "full/jobs=1");
    expect_identical(c, base,
                     run_mode(c, Acceleration::CheckpointEarlyExit, 4),
                     "full/jobs=4");
  }
}

TEST(CampaignEquivalence, EarlyExitActuallyFires) {
  // The equivalence above would hold vacuously if convergence never
  // triggered; assert the fast path is actually exercised.
  const auto cs = cases();
  const auto r = run_mode(cs.front(), Acceleration::CheckpointEarlyExit, 1);
  EXPECT_GT(r.converged_early, 0u);
  EXPECT_LE(r.converged_early, r.masked);
}

TEST(CampaignEquivalence, FaultModelsInvariantAcrossAccelAndJobs) {
  // The determinism contract extends to every fault model: counters,
  // records and the distilled database bytes must be byte-identical across
  // acceleration levels and job counts for stuck-at and burst campaigns
  // too, on every Fig. 4 site — the oracle's skip rules must agree with
  // the full replay wherever they fire. Few faults per site keep the
  // watchdog-bound stuck-at runs affordable.
  const rtl::FaultModel models[] = {rtl::FaultModel::StuckAt0,
                                    rtl::FaultModel::StuckAt1,
                                    rtl::FaultModel::IntermittentBurst};
  for (const auto& c : fig04_cases(24)) {
    for (const auto model : models) {
      SCOPED_TRACE(std::string(rtl::fault_model_name(model)));
      const CampaignResult base =
          run_mode(c, Acceleration::None, 1, model);
      expect_identical(c, base, run_mode(c, Acceleration::None, 4, model),
                       "none/jobs=4", model);
      expect_identical(c, base,
                       run_mode(c, Acceleration::Checkpoint, 4, model),
                       "checkpoint/jobs=4", model);
      expect_identical(
          c, base, run_mode(c, Acceleration::CheckpointEarlyExit, 1, model),
          "full/jobs=1", model);
      expect_identical(
          c, base, run_mode(c, Acceleration::CheckpointEarlyExit, 4, model),
          "full/jobs=4", model);
    }
  }
}

TEST(CampaignEquivalence, EarlyExitFiresForEveryFaultModel) {
  // Permanent faults early-exit too: the golden oracle decides dead-field
  // and no-op stuck-at trials before they run, and a stuck-at whose golden
  // bit settles at the stuck value may converge in the run. The
  // equivalence tests above would hold vacuously if none of this fired.
  const auto cs = cases();
  for (const auto model :
       {rtl::FaultModel::Transient, rtl::FaultModel::StuckAt0,
        rtl::FaultModel::StuckAt1, rtl::FaultModel::IntermittentBurst}) {
    SCOPED_TRACE(std::string(rtl::fault_model_name(model)));
    const auto r =
        run_mode(cs.front(), Acceleration::CheckpointEarlyExit, 1, model);
    EXPECT_GT(r.converged_early, 0u);
    EXPECT_LE(r.converged_early, r.masked);
    EXPECT_EQ(run_mode(cs.front(), Acceleration::Checkpoint, 1, model)
                  .converged_early,
              0u);
  }
  // A *windowed* stuck-at (duration bounded) converges after the window
  // closes as well.
  const auto windowed = run_mode(
      cs.front(), Acceleration::CheckpointEarlyExit, 1,
      rtl::FaultModel::StuckAt1, /*duration=*/1);
  EXPECT_GT(windowed.converged_early, 0u);
}

TEST(CampaignEquivalence, ConvergedEarlyMetricSaysHow) {
  // gpufi_rtl_converged_early_total splits by how a trial ended early:
  // how="oracle" was decided before it ran, how="digest" converged in the
  // run. A permanent stuck-at campaign takes both ways, and together they
  // count every early exit.
  obs::set_enabled(true);
  obs::Registry::global().reset();
  const auto cs = cases();
  const auto r = run_mode(cs.front(), Acceleration::CheckpointEarlyExit, 4,
                          rtl::FaultModel::StuckAt1);
  const auto& reg = obs::Registry::global();
  const auto oracle = reg.counter_value(
      obs::label("gpufi_rtl_converged_early_total", "how", "oracle"));
  const auto digest = reg.counter_value(
      obs::label("gpufi_rtl_converged_early_total", "how", "digest"));
  EXPECT_GT(oracle, 0u);
  EXPECT_GT(digest, 0u);
  EXPECT_EQ(oracle + digest, r.converged_early);
  obs::Registry::global().reset();
}

TEST(CampaignEquivalence, ObservabilityOnOffByteIdentity) {
  // The observability layer is a pure observer: campaign results and the
  // serialized syndrome-DB bytes must be byte-identical with metrics +
  // tracing fully on versus runtime-disabled, across fault models,
  // acceleration levels and job counts. This is the hard contract that lets
  // production runs keep telemetry on without re-validating determinism.
  const auto all = cases();
  const Case obs_cases[] = {all[0], all[6]};  // FFMA/fp32, t-MxM/sched
  const rtl::FaultModel models[] = {rtl::FaultModel::Transient,
                                    rtl::FaultModel::StuckAt1};
  for (const auto& c : obs_cases) {
    for (const auto model : models) {
      SCOPED_TRACE(c.workload.name + " / " +
                   std::string(rtl::fault_model_name(model)));
      // Baseline: observability runtime-disabled.
      obs::set_enabled(false);
      const CampaignResult base =
          run_mode(c, Acceleration::None, 1, model);
      // Instrumented: metrics on AND a live trace sink, across the
      // accel x jobs grid.
      obs::set_enabled(true);
      obs::Registry::global().reset();
      std::ostringstream trace;
      obs::set_trace_sink(obs::TraceSink::to_stream(trace));
      for (const auto accel :
           {Acceleration::None, Acceleration::CheckpointEarlyExit}) {
        for (const unsigned jobs : {1u, 4u}) {
          expect_identical(c, base, run_mode(c, accel, jobs, model),
                           "obs-on vs obs-off", model);
        }
      }
      obs::set_trace_sink(nullptr);
      // The instrumentation actually ran: trial counters advanced and the
      // trace captured span lines (guards against a vacuous pass where the
      // obs path was never exercised).
      EXPECT_GE(obs::Registry::global().counter_value(
                    "gpufi_exec_trials_total"),
                4 * c.n_faults);
      EXPECT_FALSE(trace.str().empty());
      EXPECT_NE(trace.str().find("\"name\":\"rtlfi.run_campaign\""),
                std::string::npos);
    }
  }
  obs::set_enabled(true);
  obs::Registry::global().reset();
}

TEST(CampaignEquivalence, AttributionTablesAndRenderedReportInvariant) {
  // The attribution join (fault cycle -> live instruction) and everything
  // downstream of it — the per-site tables and the fully rendered report,
  // text and JSON — must be byte-identical across the accel x jobs grid.
  // This is the contract `gpufi report` sells: the acceleration level and
  // thread count are pure speed knobs.
  const auto all = cases();
  const Case& c = all[0];  // FFMA on the FP32 FU

  const auto report_renderings = [&](Acceleration accel, unsigned jobs) {
    CampaignConfig cfg;
    cfg.module = c.module;
    cfg.n_faults = c.n_faults;
    cfg.seed = 99;
    cfg.jobs = jobs;
    cfg.acceleration = accel;
    const GoldenContext golden = prepare_golden(c.workload, cfg);
    const CampaignResult r = run_campaign(c.workload, cfg, golden);
    attr::CampaignSlice slice;
    slice.module = std::string(rtl::module_name(c.module));
    slice.sites = r.attribution;
    slice.injected = r.injected;
    const attr::Report report =
        attr::build_report(c.workload.name, *golden.liveness, {slice});
    return std::pair<std::string, std::string>(attr::render_text(report),
                                               attr::render_json(report));
  };

  const auto base = report_renderings(Acceleration::None, 1);
  EXPECT_NE(base.first.find("Per-(module x static instruction)"),
            std::string::npos);
  EXPECT_NE(base.second.find("\"instructions\":["), std::string::npos);
  for (const auto accel : {Acceleration::None, Acceleration::Checkpoint,
                           Acceleration::CheckpointEarlyExit}) {
    for (const unsigned jobs : {1u, 4u}) {
      SCOPED_TRACE("accel=" + std::to_string(static_cast<int>(accel)) +
                   " jobs=" + std::to_string(jobs));
      const auto other = report_renderings(accel, jobs);
      EXPECT_EQ(base.first, other.first);
      EXPECT_EQ(base.second, other.second);
    }
  }
}

TEST(CampaignEquivalence, FaultSitesResolveAgainstGoldenTimeline) {
  // Attribution is not vacuous: every trial lands in the table (hit counts
  // sum back to the injection count, outcomes partition the hits) and on a
  // busy single-warp workload the faults overwhelmingly resolve to live
  // instructions. Records, when kept, carry the same resolved context.
  const auto all = cases();
  for (const auto& c : {all[0], all[6]}) {  // FFMA/fp32 and t-MxM/sched
    SCOPED_TRACE(c.workload.name);
    const auto r = run_mode(c, Acceleration::CheckpointEarlyExit, 4);
    std::size_t hits = 0;
    std::size_t live_hits = 0;
    for (const auto& [key, counts] : r.attribution) {
      hits += counts.hits;
      if (key.live) live_hits += counts.hits;
      EXPECT_EQ(counts.hits,
                counts.masked + counts.sdc_single + counts.sdc_multi +
                    counts.due);
    }
    EXPECT_EQ(hits, r.injected);
    EXPECT_GT(live_hits, 0u);
    for (const auto& rec : r.records) {
      if (!rec.site.live) continue;
      EXPECT_NE(rec.site.stage, rtl::PipeStage::Idle);
      EXPECT_LT(rec.site.pc, c.workload.program.code.size());
    }
  }
}

TEST(StuckAtAcceptance, SchedulerStuckAt1ProducesHangsTransientDoesNot) {
  // The acceptance criterion of the fault-model axis: a stuck-at-1 campaign
  // on the warp-scheduler FF bank must produce at least one Hang/DUE
  // outcome class (watchdog-expired DUE) that the transient campaign on the
  // same module never shows — a permanently wedged scheduler cannot retire.
  // The t-MxM mini-app on the scheduler: its loops, barriers and per-warp
  // control state give a wedged scheduler FF (warp_state, stack_pc,
  // fetch_pc) something to hang. 200 deterministic draws at seed 99 hit at
  // least one such bit; determinism makes this stable, not flaky.
  const Case sched{make_tmxm(TileKind::Random, 5), rtl::Module::Scheduler,
                   isa::Opcode::FFMA, 200};
  const auto transient = run_mode(sched, Acceleration::Checkpoint, 4);
  const auto stuck1 =
      run_mode(sched, Acceleration::Checkpoint, 4, rtl::FaultModel::StuckAt1);

  const auto hangs = [](const CampaignResult& r) {
    std::size_t n = 0;
    for (const auto& rec : r.records)
      if (rec.outcome == Outcome::Due &&
          rec.due_reason.find("watchdog") != std::string::npos)
        ++n;
    return n;
  };
  EXPECT_EQ(hangs(transient), 0u);
  EXPECT_GT(hangs(stuck1), 0u);
  EXPECT_GT(stuck1.due, transient.due);
}

}  // namespace
}  // namespace gpufi::rtlfi
