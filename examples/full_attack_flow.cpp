// The complete attack flow of Section IV-C: receive an unknown side-channel
// trace, locate & align the AES executions with the CNN locator, and
// extract the secret key with CPA on the sub-byte intermediate.
//
//   $ ./examples/full_attack_flow [n_cos]
//
// With the default budget (448 COs) the CPA typically recovers a large part
// of the key; pass a larger budget (e.g. 1500) for full rank 1 on all 16
// bytes (cf. Table II and bench_cpa_reference).
#include <cstdio>
#include <cstdlib>

#include "api/scalocate.hpp"
#include "core/alignment.hpp"
#include "core/metrics.hpp"
#include "sca/cpa.hpp"
#include "trace/scenario.hpp"

using namespace scalocate;

int main(int argc, char** argv) {
  const std::size_t n_cos =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 448;

  trace::ScenarioConfig scenario;
  scenario.cipher = crypto::CipherId::kAes128;
  scenario.random_delay = trace::RandomDelayConfig::kRd2;
  scenario.seed = 7;

  // --- profiling phase on the clone device ---------------------------------
  crypto::Key16 profiling_key{};
  profiling_key[0] = 0x42;
  std::printf("[profiling] acquiring captures and training the locator...\n");
  const auto captures =
      trace::acquire_cipher_traces(scenario, 448, profiling_key);
  const auto noise = trace::acquire_noise_trace(scenario, 120000);

  core::LocatorConfig config;
  config.params = core::PipelineParams::defaults_for(scenario.cipher);
  config.params.epochs = 6;
  core::CoLocator locator(config);
  const auto report = locator.train(captures, noise);
  std::printf("[profiling] locator test accuracy: %.1f%%\n",
              100.0 * report.test_confusion.accuracy());

  // The attack rig serves the trained model through the api facade (an
  // engine adopting the in-process locator; a remote rig would
  // export_artifact + load_artifact instead).
  api::Engine engine({.workers = 2});
  engine.add_model(std::move(locator));
  auto session = engine.open_session();

  // --- attack phase on the victim device -----------------------------------
  crypto::Key16 secret_key{};
  for (int i = 0; i < 16; ++i)
    secret_key[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(0xc0 + 3 * i);

  std::printf("[attack] capturing one long trace with %zu COs...\n", n_cos);
  const auto victim =
      trace::acquire_eval_trace(scenario, n_cos, secret_key, /*noise=*/false);

  std::printf("[attack] locating and aligning the COs...\n");
  const double mean_co = session.locator().mean_co_length();
  const auto seg_len = static_cast<std::size_t>(mean_co * 0.2);
  const auto starts = session.submit_view(victim.samples).get();
  const auto aligned = core::align_cos(victim.samples, starts, seg_len);
  std::printf("[attack] %zu aligned segments of %zu samples\n",
              aligned.segments.size(), aligned.segment_length);

  // CPA on the sub-byte intermediate with time aggregation (Section IV-C).
  sca::CpaConfig cpa_cfg;
  cpa_cfg.segment_length = seg_len;
  cpa_cfg.aggregate_bin = 32;
  sca::CpaAttack cpa(cpa_cfg);
  std::size_t fed = 0;
  for (std::size_t i = 0; i < aligned.segments.size(); ++i) {
    // The attacker chooses/knows the plaintexts; recover each segment's
    // plaintext by matching its origin to the encryption schedule.
    std::size_t best = 0;
    std::size_t best_d = static_cast<std::size_t>(-1);
    for (std::size_t j = 0; j < victim.cos.size(); ++j) {
      const auto s = victim.cos[j].start_sample;
      const std::size_t d =
          s > aligned.origins[i] ? s - aligned.origins[i] : aligned.origins[i] - s;
      if (d < best_d) {
        best_d = d;
        best = j;
      }
    }
    if (best_d > static_cast<std::size_t>(mean_co / 2)) continue;
    cpa.add_trace(aligned.segments[i], victim.cos[best].plaintext);
    ++fed;
  }

  const auto rank = cpa.rank_key(secret_key);
  const auto recovered = cpa.recovered_key();
  std::printf("[attack] CPA over %zu aligned traces:\n", fed);
  std::printf("  secret   : ");
  for (auto b : secret_key) std::printf("%02x", b);
  std::printf("\n  recovered: ");
  for (auto b : recovered) std::printf("%02x", b);
  std::printf("\n  bytes at rank 1: %zu/16\n", rank.rank1_bytes);
  for (std::size_t b = 0; b < 16; ++b)
    std::printf("  byte %2zu: guess 0x%02x rho=%.3f (true key rank %zu)\n", b,
                rank.bytes[b].best_guess, rank.bytes[b].best_correlation,
                rank.bytes[b].true_key_rank + 1);
  return 0;
}
