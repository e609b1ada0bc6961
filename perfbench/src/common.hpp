// Inputs, models and process measurements shared by the benchmark program and the
// layer probes. Every input is a pure function of the workload seed.
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/artifact.hpp"
#include "core/locator.hpp"
#include "trace/scenario.hpp"

namespace perfbench {

namespace sc = scalocate;
using sc::crypto::CipherId;

/// splitmix64: derives independent sub-seeds from the workload seed.
inline std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The key of every campaign (profiling and evaluation alike).
inline sc::crypto::Key16 bench_key() {
  sc::crypto::Key16 key{};
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = static_cast<std::uint8_t>(0x10 + i);
  return key;
}

/// One RD-2 evaluation capture with noise applications between its COs.
struct Capture {
  CipherId cipher = CipherId::kAes128;
  std::vector<float> samples;
  std::vector<std::size_t> truth;  ///< true CO starts
};

inline Capture eval_capture(CipherId cipher, std::uint64_t seed,
                            std::size_t n_cos) {
  sc::trace::ScenarioConfig config;
  config.cipher = cipher;
  config.random_delay = sc::trace::RandomDelayConfig::kRd2;
  config.seed = seed;
  sc::trace::Trace t =
      sc::trace::acquire_eval_trace(config, n_cos, bench_key(), true);
  return {cipher, std::move(t.samples), t.co_starts()};
}

/// `count` captures alternating AES-128 (`aes_cos` COs each) and
/// Camellia-128 (`camellia_cos` COs each).
inline std::vector<Capture> eval_set(std::uint64_t seed, std::size_t count,
                                     std::size_t aes_cos,
                                     std::size_t camellia_cos) {
  std::vector<Capture> out;
  for (std::size_t i = 0; i < count; ++i) {
    const bool aes = i % 2 == 0;
    out.push_back(eval_capture(aes ? CipherId::kAes128 : CipherId::kCamellia128,
                               mix(seed, i), aes ? aes_cos : camellia_cos));
  }
  return out;
}

/// An AES-128 RD-2 profiling campaign: single-CO captures plus a noise
/// trace.
struct Campaign {
  sc::trace::CipherAcquisition ciphers;
  sc::trace::Trace noise;
  std::size_t samples = 0;  ///< every sample the training reads
};

inline Campaign train_campaign(CipherId cipher, std::uint64_t seed,
                               std::size_t captures, std::size_t noise_instr) {
  sc::trace::ScenarioConfig config;
  config.cipher = cipher;
  config.random_delay = sc::trace::RandomDelayConfig::kRd2;
  config.seed = seed;
  Campaign c{sc::trace::acquire_cipher_traces(config, captures, bench_key()),
             sc::trace::acquire_noise_trace(config, noise_instr), 0};
  c.samples = c.noise.samples.size();
  for (const auto& cap : c.ciphers.captures) c.samples += cap.samples.size();
  return c;
}

/// Locator config of a training at the given dataset sizes and epochs.
inline sc::core::LocatorConfig train_config(CipherId cipher,
                                            std::uint64_t seed) {
  sc::core::LocatorConfig lc;
  lc.params = sc::core::PipelineParams::defaults_for(cipher);
  lc.seed = seed ^ 0x10cULL;
  return lc;
}

/// Metric-name segment of a model, as api::metric_model_name spells it.
inline std::string model_tag(CipherId cipher) {
  return cipher == CipherId::kAes128 ? "aes128" : "camellia128";
}

inline std::string model_file(CipherId cipher) {
  return model_tag(cipher) + "_rd2.slc";
}

/// Both committed models, loaded outside any Engine: the reference path
/// and the replay target of the traced run.
struct Models {
  std::string dir;
  std::map<CipherId, sc::core::CoLocator> locators;

  explicit Models(const std::string& models_dir) : dir(models_dir) {
    for (CipherId c : {CipherId::kAes128, CipherId::kCamellia128})
      locators.emplace(c, sc::api::load_artifact(path(c)));
  }
  std::string path(CipherId c) const { return dir + "/" + model_file(c); }
  const sc::core::CoLocator& at(CipherId c) const { return locators.at(c); }
  sc::core::CoLocator& at(CipherId c) { return locators.at(c); }
};

/// User + system CPU time of the whole process.
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident set of the process in MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
