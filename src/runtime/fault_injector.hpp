// FaultInjector: deterministic fault injection for the serving plane.
//
// Compiled in ALWAYS — there is no build flag to forget in production — but
// inert unless a test or bench arms a site: the hot-path cost of an unarmed
// injector is one relaxed atomic load. Faults are keyed by site name, a
// stable string each hook passes at its call point:
//
//   site              hook location                       actions
//   ----------------  ----------------------------------  --------------
//   "engine.<model>   api::Engine pool worker, before a   throw, stall
//    .job"            whole-trace locate job runs
//   "stream.feed"     StreamingLocator::feed, on the      poison (NaN)
//                     chunk before validation
//   "artifact.read"   api::load_artifact, on the raw      truncate
//                     bytes before any field is parsed
//
// A FaultSpec fires on hits `skip < n <= skip + times` of its site, so a
// test can let a warm-up pass through, inject an exact number of faults,
// and then reconcile `injected(site)` against the typed errors it observed
// and the obs counters the service recorded — the chaos suite's accounting
// invariant. Injected throws carry the Transient mixin (a worker blip is
// the canonical retryable failure), which is what lets the api::with_retry
// tests drive real retries.
//
// Thread safety: arm/disarm/reset and the hook entry points are all safe
// from any thread; a stall sleeps outside the injector lock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace scalocate::runtime {

/// Thrown by an armed kThrow site. Transient: the canonical retryable
/// worker failure (see api::with_retry).
class InjectedFault : public Error, public Transient {
 public:
  explicit InjectedFault(const std::string& what) : Error(what) {}
};

struct FaultSpec {
  enum class Action {
    kThrow,     ///< check(): throw InjectedFault
    kStall,     ///< check(): sleep for `stall` (a wedged worker)
    kPoison,    ///< poison(): NaN every `poison_stride`-th sample
    kTruncate,  ///< truncate(): keep only `truncate_fraction` of the bytes
  };
  Action action = Action::kThrow;
  /// The first `skip` hits of the site pass through unharmed.
  std::size_t skip = 0;
  /// After `skip`, fire this many times, then go inert (count as hits).
  std::size_t times = SIZE_MAX;
  std::chrono::milliseconds stall{0};
  std::size_t poison_stride = 64;  ///< >= 1; sample 0 is always poisoned
  double truncate_fraction = 0.5;  ///< fraction of bytes KEPT
};

class FaultInjector {
 public:
  /// The process-wide injector every hook consults.
  static FaultInjector& instance();

  /// Installs (or replaces) the spec for `site`, resetting its counters.
  void arm(const std::string& site, FaultSpec spec);
  void disarm(const std::string& site);
  /// Disarms every site and zeroes all counters.
  void reset();

  /// Times the site's hook ran / times a fault actually fired there.
  std::uint64_t hits(const std::string& site) const;
  std::uint64_t injected(const std::string& site) const;

  /// True when any site is armed (the hooks' fast-path gate).
  bool armed() const { return armed_.load(std::memory_order_relaxed) > 0; }

  // -- hook entry points (called from library code) -------------------------

  /// Control-flow site: may throw InjectedFault or stall. No-op when the
  /// site is unarmed or its action is a data action.
  void check(const char* site);

  /// Data site: when armed with kPoison, copies `in` into `scratch` with
  /// every poison_stride-th sample (and sample 0) replaced by quiet NaN and
  /// returns true; otherwise returns false and leaves `scratch` alone.
  bool poison(const char* site, std::span<const float> in,
              std::vector<float>& scratch);

  /// Data site: when armed with kTruncate, drops the tail of `bytes`
  /// (keeping truncate_fraction of them) and returns true.
  bool truncate(const char* site, std::string& bytes);

 private:
  struct SiteState {
    FaultSpec spec;
    std::uint64_t hits = 0;
    std::uint64_t injected = 0;
  };

  /// Registers a hit and returns the spec if this hit should fire.
  bool should_fire(const char* site, FaultSpec::Action action,
                   FaultSpec* out);

  mutable std::mutex mutex_;
  std::map<std::string, SiteState, std::less<>> sites_;
  std::atomic<int> armed_{0};  ///< number of armed sites
};

}  // namespace scalocate::runtime
