#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/rng.hpp"
#include "exec/engine.hpp"
#include "fparith/fp32.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

unsigned bench_jobs() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double host_fma_ns() {
  constexpr int kCalls = 1 << 20;
  std::vector<double> ns;
  volatile std::uint32_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint32_t x = 0x3f800000u;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i)
      x = gpufi::fparith::fma_bits(x, 0x3f810000u, 0x3e000000u,
                                   gpufi::fparith::FpOp::Fma);
    ns.push_back(seconds_since(t0) * 1e9 / kCalls);
    sink = x;
  }
  (void)sink;
  return median(ns);
}

HistSnapshot read_histogram(const char* name) {
  const auto& h = gpufi::obs::Registry::global().histogram(name);
  return {h.sum(), h.count()};
}

std::uint64_t read_counter(const std::string& name) {
  return gpufi::obs::Registry::global().counter_value(name);
}

std::string format(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

// ---------------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------------

namespace {
/// Open spans of this thread, innermost last (parents of new spans).
thread_local std::vector<std::uint64_t> t_open;
}  // namespace

Tracer& Tracer::global() {
  static Tracer t;
  return t;
}

Tracer::Span::Span(const char* layer, const char* name,
                   std::uint64_t request) {
  Tracer& t = Tracer::global();
  if (!t.enabled_.load(std::memory_order_relaxed)) return;
  live_ = true;
  rec_.id = t.next_id_.fetch_add(1);
  rec_.parent = t_open.empty() ? 0 : t_open.back();
  rec_.request = request;
  rec_.layer = layer;
  rec_.name = name;
  t_open.push_back(rec_.id);
  start_ = Clock::now();
}

Tracer::Span::~Span() {
  if (!live_) return;
  const auto end = Clock::now();
  t_open.pop_back();
  Tracer& t = Tracer::global();
  rec_.start_s = std::chrono::duration<double>(start_ - t.origin_).count();
  rec_.end_s = std::chrono::duration<double>(end - t.origin_).count();
  std::lock_guard<std::mutex> lock(t.mutex_);
  t.spans_.push_back(rec_);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const auto all = spans();
  std::map<std::uint64_t, double> child_time;
  for (const auto& s : all)
    if (s.parent != 0) child_time[s.parent] += s.end_s - s.start_s;
  std::map<std::string, double> self;
  for (const auto& s : all) {
    const auto it = child_time.find(s.id);
    self[s.layer] += (s.end_s - s.start_s) -
                     (it == child_time.end() ? 0.0 : it->second);
  }
  return self;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  for (const auto& s : spans())
    out << format(
        "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,\"layer\":\"%s\","
        "\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f}\n",
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.request), s.layer, s.name,
        s.start_s, s.end_s);
}

// ---------------------------------------------------------------------------
// Tally.
// ---------------------------------------------------------------------------

void Tally::fail(const std::string& why) {
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
}

void Tally::sim(const std::string& line) { sim_.push_back(line); }

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void Tally::print_sim() const {
  // One hash over every line: one token to compare two runs of one seed.
  std::uint64_t h = fnv1a("");
  for (const auto& line : sim_) {
    std::printf("sim %s\n", line.c_str());
    h = fnv1a(line + "\n", h);
  }
  std::printf("sim_digest %016llx (%zu lines)\n",
              static_cast<unsigned long long>(h), sim_.size());
}

void run_checks(Tally& tally, std::size_t n,
                const std::function<std::string(std::size_t)>& check) {
  std::vector<std::string> errors(n);
  gpufi::exec::run_indexed(n, bench_jobs(), {}, [&](std::size_t i) {
    try {
      errors[i] = check(i);
    } catch (const std::exception& e) {
      errors[i] = std::string("check threw: ") + e.what();
    }
  });
  for (const auto& e : errors)
    if (!e.empty()) tally.fail(e);
}

// ---------------------------------------------------------------------------
// Campaign-workload aggregates.
// ---------------------------------------------------------------------------

std::vector<Round> run_rounds(
    double seconds, unsigned min_rounds, Tracing tracing, const Pause& between,
    const std::function<Round(std::size_t index, bool traced,
                              const Pause& pause)>& round) {
  std::vector<Round> rounds;
  double paused_s = 0;
  const Pause pause = [&] {
    if (!between) return;
    const auto p0 = Clock::now();
    between();
    paused_s += seconds_since(p0);
  };
  const auto t0 = Clock::now();
  while (rounds.size() < min_rounds || seconds_since(t0) < seconds) {
    const bool traced = tracing == Tracing::On ||
                        (tracing == Tracing::Alternate && rounds.size() % 2);
    Tracer::global().set_enabled(traced);
    paused_s = 0;
    const auto r0 = Clock::now();
    Round r = round(rounds.size(), traced, pause);
    r.traced = traced;
    r.wall_s = seconds_since(r0) - paused_s;
    Tracer::global().set_enabled(false);
    rounds.push_back(std::move(r));
  }
  return rounds;
}

std::uint64_t round_seed(std::uint64_t campaign_seed, std::size_t index) {
  return gpufi::rng_derive(campaign_seed, index);
}

namespace {

struct Totals {
  double injections = 0, op_s = 0, ops = 0, wall_s = 0;
  std::size_t rounds = 0;
};

Totals totals(const std::vector<Round>& rounds, bool traced) {
  Totals t;
  for (const auto& r : rounds) {
    if (r.traced != traced) continue;
    t.injections += static_cast<double>(r.injections);
    t.op_s += r.op_s;
    t.ops += static_cast<double>(r.latencies_ms.size());
    t.wall_s += r.wall_s;
    ++t.rounds;
  }
  return t;
}

}  // namespace

void add_latency_metrics(Metrics& m, const std::vector<double>& latencies_ms) {
  const double n = static_cast<double>(latencies_ms.size());
  const double tail = std::clamp(1.0 - 10.0 / n, 0.5, 0.95);
  std::printf("samples operations=%zu tail_percentile=%.1f\n",
              latencies_ms.size(), 100 * tail);
  m["submit_p50_ms"] = {percentile(latencies_ms, 0.50), "ms"};
  m["submit_p95_ms"] = {percentile(latencies_ms, tail), "ms"};
}

Metrics campaign_end_to_end(const std::vector<Round>& rounds) {
  const Totals t = totals(rounds, false);
  std::vector<double> lat;
  std::printf("round_inj_per_s");
  for (const auto& r : rounds) {
    if (r.traced) continue;
    lat.insert(lat.end(), r.latencies_ms.begin(), r.latencies_ms.end());
    std::printf(" %.1f", ratio(r.injections, r.op_s));
  }
  std::printf("\n");
  Metrics m{{"inj_per_s", {ratio(t.injections, t.op_s), "1/s"}},
            {"jobs_per_s", {ratio(t.ops, t.wall_s), "1/s"}}};
  add_latency_metrics(m, lat);
  return m;
}

double trace_overhead(const std::vector<Round>& rounds) {
  const Totals plain = totals(rounds, false), traced = totals(rounds, true);
  const double base = ratio(plain.injections, plain.op_s);
  return base == 0 || traced.rounds == 0
             ? 0
             : (base - ratio(traced.injections, traced.op_s)) / base;
}

}  // namespace perfbench
