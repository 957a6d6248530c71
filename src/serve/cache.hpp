#pragma once

// Process-wide read-only caches for gpufi-serve: parsed syndrome databases
// and golden RTL traces are expensive to (re)build, identical for every
// request with the same key, and immutable once built — so N concurrent
// campaign requests share one copy instead of recomputing N times.

#include <cstddef>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "rtlfi/campaign.hpp"
#include "syndrome/syndrome.hpp"

namespace gpufi::serve {

struct CacheStats {
  std::size_t hits = 0;    ///< lookups served from an existing entry
  std::size_t misses = 0;  ///< lookups that triggered (exactly one) compute
};

/// Single-flight keyed cache: the first requester of a key computes the
/// value while every concurrent requester of the same key blocks on the same
/// future — one compute per key, ever, no matter how many threads race on a
/// cold entry. A failed compute is not poisoned into the cache: the
/// exception propagates to every waiter of that flight and the next
/// requester retries.
template <class Value>
class SharedCache {
 public:
  using Ptr = std::shared_ptr<const Value>;

  /// Counts lookups in the registry of the cache's owner, as
  /// gpufi_serve_cache_{hits,misses}_total{cache="<label>"}. stats() reads
  /// those same counters, so a Stats frame and an exposition of `metrics`
  /// cannot disagree. They count whether or not obs is enabled.
  SharedCache(obs::Registry& metrics, std::string_view label)
      : hits_(metrics.counter(
            obs::label("gpufi_serve_cache_hits_total", "cache", label))),
        misses_(metrics.counter(
            obs::label("gpufi_serve_cache_misses_total", "cache", label))) {}

  Ptr get_or_compute(const std::string& key,
                     const std::function<Value()>& compute) {
    std::shared_future<Ptr> flight;
    std::promise<Ptr> promise;
    bool owner = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        flight = it->second;
      } else {
        flight = promise.get_future().share();
        entries_.emplace(key, flight);
        owner = true;
      }
    }
    (owner ? misses_ : hits_).add();
    if (owner) {
      try {
        promise.set_value(std::make_shared<const Value>(compute()));
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          entries_.erase(key);
        }
        promise.set_exception(std::current_exception());
      }
    }
    return flight.get();  // rethrows the owner's exception, if any
  }

  CacheStats stats() const { return {hits_.value(), misses_.value()}; }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_future<Ptr>> entries_;
  obs::Counter& hits_;
  obs::Counter& misses_;
};

/// The two caches an executor tier shares across requests, counted in its
/// owner's registry as cache="db" and cache="golden".
class Caches {
 public:
  explicit Caches(obs::Registry& metrics)
      : dbs_(metrics, "db"), goldens_(metrics, "golden") {}

  /// Syndrome database by file path: loads (or builds and saves) once via
  /// core::ensure_syndrome_database, then serves the parsed object to every
  /// request. `jobs` parallelizes a cold build only.
  std::shared_ptr<const syndrome::Database> syndrome_db(
      const std::string& path, unsigned jobs);

  /// Golden context (reference run + checkpoint ladder) by workload key —
  /// see rtlfi::prepare_golden for what the key must capture.
  std::shared_ptr<const rtlfi::GoldenContext> golden(
      const std::string& key,
      const std::function<rtlfi::GoldenContext()>& make);

  CacheStats syndrome_db_stats() const { return dbs_.stats(); }
  CacheStats golden_stats() const { return goldens_.stats(); }

 private:
  SharedCache<syndrome::Database> dbs_;
  SharedCache<rtlfi::GoldenContext> goldens_;
};

}  // namespace gpufi::serve
