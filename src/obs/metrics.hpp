#pragma once

// gpufi-obs metrics: a process-wide registry of monotonic counters, gauges
// and fixed-bucket histograms, rendered as a Prometheus-style text
// exposition.
//
// Two write paths exist:
//  * direct — count()/observe() outside a campaign hit the global registry's
//    atomics (cheap, commutative, schedule-dependent arrival order);
//  * sharded — inside exec::run_trials every chunk owns a private Shard
//    (installed via ScopedShard as the thread-local sink), accumulated
//    without synchronization and absorbed into the registry in chunk-index
//    order after the pool joins. Chunking is a pure function of the trial
//    count, so the merge sequence — and with it every counter value and
//    histogram bucket — is identical for any --jobs value.
//
// Determinism contract: observability is strictly read-only with respect to
// campaign computation. No metric, span or sink ever feeds a value back into
// a trial, so Result payloads and syndrome-DB bytes are byte-identical with
// observability enabled or runtime-disabled (set_enabled(false)).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace gpufi::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Runtime master switch (default on). Disabled, every count/observe/span is
/// an early-return; campaign results are identical either way.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on) noexcept;

// ---------------------------------------------------------------------------
// Metric primitives.
// ---------------------------------------------------------------------------

/// Monotonic counter (atomic, relaxed: values are aggregates, not fences).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time signed value (queue depths, active jobs).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// The fixed latency bucket ladder (seconds, 1-2-5 decades from 1us to 10s)
/// shared by every histogram created without explicit bounds. Fixed bounds
/// make bucket assignment a pure function of the observed value — the
/// histogram-determinism half of the shard-merge contract.
const std::vector<double>& default_latency_buckets();

/// Fixed-bucket histogram. Bucket `i` counts observations <= bounds[i]; one
/// implicit +Inf bucket catches the rest. Thread-safe via relaxed atomics
/// (sum uses a CAS loop; double addition order is unspecified on the direct
/// path, fixed on the sharded path).
struct HistogramData;

class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  /// Folds a shard histogram in: element-wise bucket adds plus the shard's
  /// exact sum — the registry ends up with the same buckets, count and sum
  /// as if every observation had been made directly. Requires the shard's
  /// bucket ladder (the default one) to match this histogram's.
  void merge_data(const HistogramData& data) noexcept;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts (bounds().size() + 1 entries, last = +Inf).
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// ---------------------------------------------------------------------------
// Shards: unsynchronized per-chunk accumulation, deterministic merge.
// ---------------------------------------------------------------------------

/// Plain-data histogram used inside shards (no atomics — a shard is owned by
/// exactly one worker until it is merged). Always uses the default latency
/// bucket ladder so shard and registry histograms line up bucket for bucket.
struct HistogramData {
  std::vector<std::uint64_t> counts;  ///< default bounds + 1 entries
  double sum = 0.0;
  std::uint64_t count = 0;

  void observe(double v);
  /// Element-wise accumulation; exact (and therefore associative) for
  /// bucket/count integers, order-fixed for the double sum.
  void merge(const HistogramData& other);
};

/// A private metrics accumulator: counter increments and histogram
/// observations keyed by metric name, added without any synchronization.
/// Shard merge is associative on counters and bucket counts, so any grouping
/// of shards merged in the same order yields the same totals — the property
/// obs_test pins and run_trials relies on when it absorbs shards in
/// chunk-index order.
class Shard {
 public:
  void add(std::string_view counter, std::uint64_t n = 1);
  void observe(std::string_view histogram, double v);

  /// Folds `other` into this shard (counter adds + histogram merges).
  void merge(const Shard& other);

  bool empty() const { return counters_.empty() && histograms_.empty(); }
  const std::map<std::string, std::uint64_t, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, HistogramData, std::less<>>& histograms()
      const {
    return histograms_;
  }

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, HistogramData, std::less<>> histograms_;
};

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

/// Process-wide metric registry. Metric names follow Prometheus conventions
/// and may carry a baked-in label set: `gpufi_rtl_outcomes_total` or
/// `gpufi_rtl_outcomes_total{model="transient",outcome="SDC"}`. Lookup takes
/// a mutex; returned references are stable for the registry's lifetime, so
/// hot paths either cache the reference or accumulate through a Shard.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Histogram with the default latency buckets (the only bucket ladder the
  /// sharded path produces).
  Histogram& histogram(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Folds a shard's accumulations into the registry. run_trials calls this
  /// once per chunk, in chunk-index order, after the pool has joined.
  void absorb(const Shard& shard);

  /// Prometheus text exposition: counters, then gauges, then histograms,
  /// each family sorted by name with a single `# TYPE` header — a
  /// deterministic function of the registry contents.
  std::string render_prometheus() const;

  /// Reads a counter/gauge without creating it (0 when absent) — test and
  /// assertion helper.
  std::uint64_t counter_value(std::string_view name) const;
  std::int64_t gauge_value(std::string_view name) const;

  /// Drops every metric (tests only; references from before are invalid).
  void reset();

  /// The process-wide instance every layer reports into.
  static Registry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// ---------------------------------------------------------------------------
// Hot-path helpers (shard-aware).
// ---------------------------------------------------------------------------

/// Installs a Shard as this thread's metrics sink for the current scope:
/// count()/observe() land in the shard instead of the global registry.
/// run_trials wraps each chunk in one so trial-loop metrics merge in
/// deterministic chunk order. A null shard leaves the direct path active.
class ScopedShard {
 public:
  explicit ScopedShard(Shard* shard) noexcept;
  ~ScopedShard();
  ScopedShard(const ScopedShard&) = delete;
  ScopedShard& operator=(const ScopedShard&) = delete;

  /// The currently installed shard of this thread (null = direct path).
  static Shard* current() noexcept;

 private:
  Shard* prev_;
};

/// Adds to a counter: the thread's installed shard when present, else the
/// global registry. No-op while disabled.
void count(std::string_view name, std::uint64_t n = 1);

/// Records a histogram observation (default latency buckets), shard-aware.
void observe(std::string_view name, double v);

/// Sets / adjusts a gauge on the global registry (gauges are point-in-time
/// and never sharded). No-ops while disabled.
void set_gauge(std::string_view name, std::int64_t v);
void add_gauge(std::string_view name, std::int64_t d);

/// Builds `name{key="value"}` (or appends to an existing label set).
std::string label(std::string_view name, std::string_view key,
                  std::string_view value);

}  // namespace gpufi::obs
