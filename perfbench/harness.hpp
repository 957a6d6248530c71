#pragma once
// Shared plumbing of the gpufi benchmark: options, the in-memory span
// tracer, metric maps, order statistics, obs-registry deltas and the
// correctness tally every workload reports into.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// Command-line options: the required ones (workload, seed, seconds,
/// trace) plus the reduced scale the self-test runs at.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  /// Absolute path of the repository's gpufi_data directory.
  std::string data_dir = "gpufi_data";
  /// Scratch directory for sockets and trace files (inside the checkout).
  std::string out_dir = ".bench_build/perfbench";
};

/// Trial threads per campaign and client connections: the host's core
/// count, capped at 4 so the load shape is the same on wider machines.
unsigned bench_jobs();

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

double median(std::vector<double> v);
/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);
/// a / b, or 0 when b is 0.
double ratio(double a, double b);

/// Peak resident set size of this process in MiB (getrusage).
double peak_rss_mb();

/// Nanoseconds per fparith::fma_bits call (median of several timed loops):
/// a host-speed reference printed with every run, never used to rescale.
double host_fma_ns();

// ---------------------------------------------------------------------------
// obs registry deltas (the existing src/ counters and histograms).
// ---------------------------------------------------------------------------

struct HistSnapshot {
  double sum = 0;
  std::uint64_t count = 0;
  HistSnapshot operator-(const HistSnapshot& o) const {
    return {sum - o.sum, count - o.count};
  }
  HistSnapshot operator+(const HistSnapshot& o) const {
    return {sum + o.sum, count + o.count};
  }
};
HistSnapshot read_histogram(const char* name);
std::uint64_t read_counter(const std::string& name);

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around its calls into a layer.
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< shared by the spans of one operation
  const char* layer = "";
  const char* name = "";
  double start_s = 0;  ///< seconds since the tracer's origin
  double end_s = 0;
};

/// Process-wide span recorder. Disabled, a span costs one relaxed load.
/// Spans stay in memory; write_jsonl dumps them when the benchmark ends.
class Tracer {
 public:
  class Span {
   public:
    Span(const char* layer, const char* name, std::uint64_t request);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    SpanRecord rec_;
    bool live_ = false;
    Clock::time_point start_;
  };

  static Tracer& global();
  void set_enabled(bool on) { enabled_.store(on); }
  /// Self seconds per layer: each span's duration minus the durations of
  /// its direct children.
  std::map<std::string, double> self_seconds() const;
  void write_jsonl(const std::string& path) const;

 private:
  Tracer() = default;
  std::vector<SpanRecord> spans() const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  ///< guarded by mutex_
};

using Span = Tracer::Span;

// ---------------------------------------------------------------------------
// Correctness and the simulated statistics two runs of one seed must share.
// ---------------------------------------------------------------------------

class Tally {
 public:
  void attempt() { ++attempted_; }
  /// Records a failed operation with its reason (printed to stderr).
  void fail(const std::string& why);
  /// Adds one line of simulated statistics (printed to stdout at exit and
  /// folded into the run's digest).
  void sim(const std::string& line);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  void print_sim() const;

 private:
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::vector<std::string> sim_;
};

/// Runs `check(i)` for every i in [0, n) across bench_jobs() threads. Each
/// returns an error message, empty when the check passed (exceptions count
/// as failures); failures are reported to `tally` in index order.
void run_checks(Tally& tally, std::size_t n,
                const std::function<std::string(std::size_t)>& check);

/// FNV-1a hash of `bytes`, continuing from `h`.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t h = 1469598103934665603ull);

/// printf into a std::string.
std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// Per-round aggregates of a campaign workload (rtl-*, sw-apps). Round r
/// runs every campaign of the workload with seeds derived from (seed, r), so
/// a run samples fresh faults each round; round 0 is the one whose
/// simulated statistics are printed and checked.
struct Round {
  bool traced = false;
  double wall_s = 0;    ///< the round's host seconds
  double op_s = 0;      ///< seconds inside the campaign calls
  std::uint64_t injections = 0;
  std::vector<double> latencies_ms;  ///< one per completed campaign call
};

/// Which rounds of a timed loop run with the span tracer on.
enum class Tracing { Off, Alternate, On };

/// Work a timed loop does between two of its operations, outside their
/// timing (may be empty).
using Pause = std::function<void()>;

/// Runs `round(index, traced, pause)` back to back until `seconds` have
/// elapsed and at least `min_rounds` rounds are done, switching the tracer
/// on for the rounds `tracing` selects (odd rounds under Alternate). A round
/// calls `pause` before each of its operations; `pause` runs `between` and
/// leaves its time out of the round's wall time.
std::vector<Round> run_rounds(
    double seconds, unsigned min_rounds, Tracing tracing, const Pause& between,
    const std::function<Round(std::size_t index, bool traced,
                              const Pause& pause)>& round);

/// Campaign seed of round `index` (round 0 is the checked one).
std::uint64_t round_seed(std::uint64_t campaign_seed, std::size_t index);

/// submit_p50_ms and submit_p95_ms from per-operation latencies, printing
/// the sample count. The tail is the 95th percentile, or, with fewer than
/// 200 samples, the highest percentile that still has ten samples beyond it
/// (a p95 over fewer samples is one or two outliers, not a tail).
void add_latency_metrics(Metrics& m, const std::vector<double>& latencies_ms);

/// End-to-end metrics of a campaign workload from its untraced rounds.
Metrics campaign_end_to_end(const std::vector<Round>& rounds);
/// (untraced - traced) / untraced injection rate over the rounds of an
/// Alternate loop; 0 when either side is missing (a loop traced throughout).
double trace_overhead(const std::vector<Round>& rounds);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Layer group whose per-layer metrics this workload reports: "rtl",
  /// "sw" or "served".
  virtual const char* group() const = 0;
  /// Builds inputs; returns the host seconds it took. With `keep` false the
  /// new inputs are dropped and the current ones stay: a repetition that
  /// only times set-up, leaving the heap the operations run on as it was.
  virtual double setup(bool keep) = 0;
  /// Timed loop: runs whole rounds until `seconds` have elapsed (at least
  /// `min_rounds`), tracing the rounds `tracing` selects and calling
  /// `between` before each operation, outside its timing.
  virtual void run(double seconds, unsigned min_rounds, Tracing tracing,
                   const Pause& between) = 0;
  /// Output checks, outside the timed region.
  virtual void check() = 0;
  virtual Metrics end_to_end() const = 0;
  /// Per-layer metrics of the timed loop plus direct layer probes.
  virtual Metrics layers() = 0;
};

std::unique_ptr<Workload> make_rtl_workload(const Options& opt, Tally& tally,
                                            bool permanent);
std::unique_ptr<Workload> make_sw_workload(const Options& opt, Tally& tally);
std::unique_ptr<Workload> make_served_workload(const Options& opt,
                                               Tally& tally);

}  // namespace perfbench
