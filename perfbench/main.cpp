// gpufi benchmark: runs one workload and prints its metrics.
//
//   gpufi_bench --workload W --seed N --seconds S --trace 0|1
//               [--tiny] [--data-dir DIR] [--out-dir DIR]
//
// Workloads: rtl-transient, rtl-permanent, sw-apps, served (see
// perfbench/README.md). With --trace 0 the timed loop runs untraced and the
// last stdout line carries the end-to-end metrics; with --trace 1 it
// alternates untraced and traced rounds, and the line carries the
// per-layer metrics (layers the workload does not call are measured on a
// tiny run of a workload that does). Output checks always run; any
// failure makes the exit code 1.
#include <malloc.h>
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <string>

#include "harness.hpp"

using namespace perfbench;

namespace {

constexpr const char* kLayers[] = {"rtl",  "rtlfi",    "exec",  "emu",
                                   "swfi", "syndrome", "serve", "fabric"};

int usage(const char* why) {
  std::fprintf(stderr,
               "gpufi_bench: %s\nusage: gpufi_bench --workload "
               "rtl-transient|rtl-permanent|sw-apps|served --seed N "
               "--seconds S --trace 0|1 [--tiny] [--data-dir DIR] "
               "[--out-dir DIR]\n",
               why);
  return 2;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& opt, Tally& tally) {
  if (name == "rtl-transient") return make_rtl_workload(opt, tally, false);
  if (name == "rtl-permanent") return make_rtl_workload(opt, tally, true);
  if (name == "sw-apps") return make_sw_workload(opt, tally);
  if (name == "served") return make_served_workload(opt, tally);
  return nullptr;
}

/// The workload a trace pass borrows for a layer group it does not cover.
const char* probe_for(const std::string& group) {
  if (group == "rtl") return "rtl-transient";
  if (group == "sw") return "sw-apps";
  return "served";
}

void print_result(const Tally& tally, const Metrics& metrics) {
  std::string out = format("{\"correct\": %s, \"attempted\": %llu, "
                           "\"failed\": %llu, \"metrics\": {",
                           tally.failed() == 0 ? "true" : "false",
                           static_cast<unsigned long long>(tally.attempted()),
                           static_cast<unsigned long long>(tally.failed()));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "gpufi_bench: %s is not finite\n", name.c_str());
      v = 0;
    }
    out += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), v, m.unit.c_str());
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena: peak RSS then measures live memory, not how many
  // per-thread arenas glibc happened to create for the campaigns' short-lived
  // worker threads (which made it swing by 25% between identical runs).
  mallopt(M_ARENA_MAX, 1);
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = !val.empty() && *end == '\0';
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      have_seconds = !val.empty() && *end == '\0' && opt.seconds > 0;
    } else if (arg == "--trace") {
      opt.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else if (arg == "--data-dir") {
      opt.data_dir = val;
    } else if (arg == "--out-dir") {
      opt.out_dir = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");
  std::error_code ec;
  opt.data_dir = std::filesystem::absolute(opt.data_dir, ec).string();
  if (!std::filesystem::is_regular_file(opt.data_dir + "/syndromes.db")) {
    std::fprintf(stderr, "gpufi_bench: no syndrome database in %s\n",
                 opt.data_dir.c_str());
    return 2;
  }
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "gpufi_bench: cannot create %s\n",
                 opt.out_dir.c_str());
    return 2;
  }

  Tally tally;
  auto workload = make_workload(opt.workload, opt, tally);
  if (!workload) return usage(("unknown workload " + opt.workload).c_str());
  Metrics metrics;
  try {
    Tracer& tracer = Tracer::global();
    // Set-up is repeated and its median reported, so a slower set-up
    // stands out from one noisy repetition. The host's speed drifts over
    // seconds, so untraced runs of the campaign workloads spread the
    // repetitions over the whole run (before the timed loop, between its
    // operations about every 1/16 of it, and after it): the median then sees
    // the host the loop saw, not only the first half second of the process.
    // Each CPU's speed drifts on its own too (set-up is one thread, the
    // loop uses all of them), so the repetitions also take the process's
    // CPUs in turn. Every repetition builds the same inputs from the seed;
    // those during and after the loop are dropped, so the loop runs on the
    // heap the set-ups before it left, and peak RSS does not depend on when
    // they ran.
    const bool served = std::string(workload->group()) == "served";
    const bool spread = !opt.tiny && !opt.trace && !served;
    const int setup_reps = opt.tiny ? 1 : served ? 5 : spread ? 3 : 9;
    cpu_set_t allowed;
    std::vector<int> cpus;
    if (spread && sched_getaffinity(0, sizeof allowed, &allowed) == 0)
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    std::vector<double> setup_s;
    auto last_setup = Clock::now();
    const auto set_up = [&](int reps, bool keep) {
      for (int rep = 0; rep < reps; ++rep) {
        if (!cpus.empty()) {
          cpu_set_t one;
          CPU_ZERO(&one);
          CPU_SET(cpus[setup_s.size() % cpus.size()], &one);
          sched_setaffinity(0, sizeof one, &one);
        }
        setup_s.push_back(workload->setup(keep));
      }
      // Threads the loop starts inherit the main thread's CPUs.
      if (!cpus.empty()) sched_setaffinity(0, sizeof allowed, &allowed);
      last_setup = Clock::now();
    };
    tracer.set_enabled(opt.trace);
    set_up(setup_reps, true);
    const double fma_ns = host_fma_ns();
    std::printf("host.fma_ns %.4f\n", fma_ns);

    // Two rounds at the least (a traced run needs an untraced and a traced
    // one); a tiny untraced run may stop after one.
    const auto loop0 = Clock::now();
    Pause between;
    if (spread)
      between = [&] {
        if (seconds_since(last_setup) >= opt.seconds / 16) set_up(1, false);
      };
    workload->run(opt.seconds, opt.tiny && !opt.trace ? 1 : 2,
                  opt.trace ? Tracing::Alternate : Tracing::Off, between);
    const double loop_s = seconds_since(loop0);
    if (spread) set_up(setup_reps, false);
    tracer.set_enabled(opt.trace);
    const auto check0 = Clock::now();
    workload->check();
    std::printf("phases setup_reps=%zu setup_total_s=%.3f loop_s=%.3f "
                "check_s=%.3f\n",
                setup_s.size(),
                std::accumulate(setup_s.begin(), setup_s.end(), 0.0), loop_s,
                seconds_since(check0));
    if (!opt.trace) {
      metrics = workload->end_to_end();
      metrics["setup_s"] = {median(setup_s), "s"};
      metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    } else {
      metrics = workload->layers();
      const std::string own = workload->group();
      workload.reset();
      for (const char* group : {"rtl", "sw", "served"}) {
        if (group == own) continue;
        Options probe_opt = opt;
        probe_opt.tiny = true;
        auto probe = make_workload(probe_for(group), probe_opt, tally);
        probe->setup(true);
        probe->run(0, 1, Tracing::On, {});
        tracer.set_enabled(true);
        probe->check();
        for (auto& kv : probe->layers()) metrics.insert(kv);
        probe.reset();
      }
      tracer.set_enabled(false);
      const auto self = tracer.self_seconds();
      for (const char* layer : kLayers) {
        const auto it = self.find(layer);
        metrics[std::string(layer) + ".self_s"] = {
            it == self.end() ? 0.0 : it->second, "s"};
      }
      metrics["host.fma_ns"] = {fma_ns, "ns"};
      tracer.write_jsonl(format("%s/trace-%s-%llu.jsonl", opt.out_dir.c_str(),
                                opt.workload.c_str(),
                                static_cast<unsigned long long>(opt.seed)));
    }
    workload.reset();  // stops the served daemon before reporting
  } catch (const std::exception& e) {
    tally.fail(std::string("aborted: ") + e.what());
    return 1;
  }
  tally.print_sim();
  print_result(tally, metrics);
  return tally.failed() == 0 ? 0 : 1;
}
