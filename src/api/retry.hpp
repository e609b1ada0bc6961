// with_retry: bounded, jittered exponential backoff around transient
// failures.
//
// Retryability is typed, not guessed from message strings: a failure is
// retried iff it carries the scalocate::Transient mixin (Overloaded,
// DeadlineExceeded, runtime::InjectedFault, ArtifactTruncated — see the
// taxonomy in api/errors.hpp). Everything else propagates on the first
// throw: retrying a Cancelled job would resurrect work the caller
// abandoned, and retrying an ArtifactArchMismatch re-reads the same broken
// bundle forever.
//
//   auto starts = api::with_retry([&] { return session.submit(trace).get(); });
//
// Backoff doubles per attempt (initial_backoff * multiplier^k, capped at
// max_backoff) and each delay is jittered uniformly into [backoff/2,
// backoff] so a fleet of clients rejected by one Overloaded burst does not
// re-arrive all at once and cause the next one.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "obs/registry.hpp"

namespace scalocate::api {

struct RetryConfig {
  /// Total invocations of the callable, first try included (>= 1). The
  /// last attempt's failure propagates even when transient.
  std::size_t max_attempts = 4;
  /// Delay before the first retry; doubles (see multiplier) per retry.
  std::chrono::nanoseconds initial_backoff = std::chrono::milliseconds(10);
  double multiplier = 2.0;  ///< backoff growth per retry (>= 1)
  std::chrono::nanoseconds max_backoff = std::chrono::seconds(2);
  /// Jitter PRNG seed; 0 (default) seeds from entropy — pass a fixed seed
  /// for reproducible delays in tests.
  std::uint64_t jitter_seed = 0;
  /// When set, counts each retry into `<metric_prefix or "api">.retries`.
  obs::Registry* registry = nullptr;
  std::string metric_prefix;
  /// Sleep override for tests (null = std::this_thread::sleep_for).
  std::function<void(std::chrono::nanoseconds)> sleep;
};

/// Invokes `fn` up to config.max_attempts times, sleeping a jittered
/// exponential backoff between attempts. Retries only failures carrying the
/// Transient mixin; terminal errors (and the final attempt's failure)
/// rethrow unchanged.
template <typename Fn>
auto with_retry(Fn&& fn, RetryConfig config = {}) -> decltype(fn()) {
  scalocate::detail::require(config.max_attempts >= 1,
                             "with_retry: max_attempts must be >= 1");
  scalocate::detail::require(config.multiplier >= 1.0,
                             "with_retry: multiplier must be >= 1");
  obs::Counter* retries = nullptr;
  if (config.registry) {
    const std::string p =
        config.metric_prefix.empty() ? "api" : config.metric_prefix;
    retries = &config.registry->counter(p + ".retries");
  }
  std::mt19937_64 rng(config.jitter_seed != 0 ? config.jitter_seed
                                              : std::random_device{}());
  std::chrono::nanoseconds backoff = config.initial_backoff;
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      return fn();
    } catch (const std::exception& e) {
      if (attempt >= config.max_attempts || !is_transient(e)) throw;
    }
    if (retries) retries->add();
    if (backoff.count() > 0) {
      std::uniform_int_distribution<std::chrono::nanoseconds::rep> jitter(
          backoff.count() - backoff.count() / 2, backoff.count());
      const std::chrono::nanoseconds delay{jitter(rng)};
      if (config.sleep)
        config.sleep(delay);
      else
        std::this_thread::sleep_for(delay);
    }
    const auto grown = static_cast<std::chrono::nanoseconds::rep>(
        static_cast<double>(backoff.count()) * config.multiplier);
    backoff = std::min(std::chrono::nanoseconds{grown}, config.max_backoff);
  }
}

}  // namespace scalocate::api
