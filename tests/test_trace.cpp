// Tests for the SoC trace-simulator substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "trace/acquisition.hpp"
#include "trace/noise_apps.hpp"
#include "trace/power_model.hpp"
#include "trace/random_delay.hpp"
#include "trace/scenario.hpp"
#include "trace/soc_simulator.hpp"
#include "trace/trng.hpp"

namespace scalocate::trace {
namespace {

using crypto::DataEvent;
using crypto::OpClass;

// ---------------------------------------------------------------------------
// Power model
// ---------------------------------------------------------------------------

TEST(PowerModel, RendersSamplesPerOp) {
  PowerModel pm;
  std::vector<float> out;
  pm.render(DataEvent{OpClass::kXor, 0xff, 8}, out);
  EXPECT_EQ(out.size(), pm.config().samples_per_op);
}

TEST(PowerModel, NopIsLowestPower) {
  PowerModel pm;
  std::vector<float> nop, others;
  pm.render(DataEvent{OpClass::kNop, 0, 8}, nop);
  for (auto op : {OpClass::kLoad, OpClass::kStore, OpClass::kXor,
                  OpClass::kSbox, OpClass::kBranch}) {
    others.clear();
    // Use a mid-HW value so the data term does not dominate.
    pm.render(DataEvent{op, 0x0f, 8}, others);
    EXPECT_LT(stats::mean(nop), stats::mean(others));
  }
}

TEST(PowerModel, HammingWeightShiftsWriteBackSample) {
  PowerModel pm;
  std::vector<float> low, high;
  pm.render(DataEvent{OpClass::kXor, 0x00, 8}, low);   // HW 0
  pm.render(DataEvent{OpClass::kXor, 0xff, 8}, high);  // HW 8
  const std::size_t wb = pm.config().samples_per_op - 2;
  EXPECT_NEAR(high[wb] - low[wb], pm.config().data_alpha, 1e-5);
}

TEST(PowerModel, WidthNormalizesLeakage) {
  PowerModel pm;
  std::vector<float> v8, v32;
  pm.render(DataEvent{OpClass::kXor, 0xff, 8}, v8);          // full HW at w=8
  pm.render(DataEvent{OpClass::kXor, 0xffffffffull, 32}, v32);  // full at w=32
  const std::size_t wb = pm.config().samples_per_op - 2;
  EXPECT_NEAR(v8[wb], v32[wb], 1e-5);
}

TEST(PowerModel, HammingWeight) {
  EXPECT_EQ(hamming_weight(0), 0);
  EXPECT_EQ(hamming_weight(0xff), 8);
  EXPECT_EQ(hamming_weight(0x8000000000000000ull), 1);
}

// ---------------------------------------------------------------------------
// TRNG and random delay
// ---------------------------------------------------------------------------

TEST(Trng, DeterministicPerSeed) {
  Trng a(5), b(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_word(), b.next_word());
}

TEST(Trng, DelayWithinBound) {
  Trng t(7);
  for (int i = 0; i < 1000; ++i) {
    const auto d = t.next_delay(4);
    EXPECT_LE(d, 4u);
  }
  EXPECT_EQ(t.next_delay(0), 0u);
}

TEST(Trng, DelayRoughlyUniform) {
  Trng t(11);
  int counts[5] = {};
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[t.next_delay(4)];
  for (int c : counts) EXPECT_NEAR(c, n / 5.0, 0.06 * n / 5.0);
}

TEST(Trng, HealthCounters) {
  Trng t(13);
  for (int i = 0; i < 100; ++i) t.next_word();
  EXPECT_EQ(t.words_produced(), 100u);
  EXPECT_LT(t.longest_repetition(), 3u);  // 32-bit repeats are ~2^-32
}

TEST(RandomDelay, OffInsertsNothing) {
  RandomDelayInjector inj(RandomDelayConfig::kOff, 1);
  int emitted = 0;
  for (int i = 0; i < 100; ++i) inj.inject([&](const DataEvent&) { ++emitted; });
  EXPECT_EQ(emitted, 0);
  EXPECT_EQ(inj.dummies_inserted(), 0u);
}

TEST(RandomDelay, Rd4InsertsAtMostFourPerGap) {
  RandomDelayInjector inj(RandomDelayConfig::kRd4, 2);
  for (int i = 0; i < 1000; ++i) {
    int emitted = 0;
    inj.inject([&](const DataEvent&) { ++emitted; });
    EXPECT_LE(emitted, 4);
  }
  // Expected total approx 1000 * 2.
  EXPECT_NEAR(static_cast<double>(inj.dummies_inserted()), 2000.0, 200.0);
}

TEST(RandomDelay, DummiesAreAluOps) {
  RandomDelayInjector inj(RandomDelayConfig::kRd4, 3);
  std::set<OpClass> seen;
  for (int i = 0; i < 500; ++i)
    inj.inject([&](const DataEvent& e) { seen.insert(e.op); });
  for (auto op : seen)
    EXPECT_TRUE(op == OpClass::kArith || op == OpClass::kXor ||
                op == OpClass::kShift);
  EXPECT_GE(seen.size(), 2u);
}

TEST(RandomDelay, Names) {
  EXPECT_STREQ(random_delay_name(RandomDelayConfig::kOff), "RD-0");
  EXPECT_STREQ(random_delay_name(RandomDelayConfig::kRd2), "RD-2");
  EXPECT_STREQ(random_delay_name(RandomDelayConfig::kRd4), "RD-4");
  EXPECT_EQ(random_delay_bound(RandomDelayConfig::kRd2), 2u);
}

// ---------------------------------------------------------------------------
// Noise applications
// ---------------------------------------------------------------------------

TEST(NoiseApps, EmitsRequestedVolume) {
  NoiseAppGenerator gen(1);
  std::size_t emitted = 0;
  gen.run_app(1000, [&](const DataEvent&) { ++emitted; });
  EXPECT_EQ(emitted, 1000u);
}

TEST(NoiseApps, PhasesHaveDistinctMixes) {
  NoiseAppGenerator gen(2);
  std::size_t loads_mem = 0, loads_idle = 0, total = 2000;
  gen.run_phase(NoisePhase::kMemoryBurst, total, [&](const DataEvent& e) {
    loads_mem += e.op == OpClass::kLoad;
  });
  gen.run_phase(NoisePhase::kIdle, total, [&](const DataEvent& e) {
    loads_idle += e.op == OpClass::kLoad;
  });
  EXPECT_GT(loads_mem, total / 3);
  EXPECT_EQ(loads_idle, 0u);
}

TEST(NoiseApps, TableLookupPhaseContainsSbox) {
  NoiseAppGenerator gen(3);
  std::size_t sbox = 0;
  gen.run_phase(NoisePhase::kTableLookup, 400, [&](const DataEvent& e) {
    sbox += e.op == OpClass::kSbox;
  });
  EXPECT_EQ(sbox, 100u);  // every 4th instruction
}

// ---------------------------------------------------------------------------
// Acquisition model
// ---------------------------------------------------------------------------

TEST(Acquisition, AddsNoiseOfConfiguredSigma) {
  AcquisitionConfig cfg;
  cfg.drift_amplitude = 0.0;
  cfg.enable_quantization = false;
  cfg.noise_sigma = 0.1;
  AcquisitionModel acq(cfg, 5);
  std::vector<float> samples(20000, 1.0f);
  acq.apply(samples);
  EXPECT_NEAR(stats::mean(samples), 1.0, 0.01);
  EXPECT_NEAR(stats::stddev(samples), 0.1, 0.01);
}

TEST(Acquisition, QuantizationSnapsToAdcGrid) {
  AcquisitionConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.drift_amplitude = 0.0;
  cfg.adc_bits = 4;  // coarse grid to make steps visible
  cfg.full_scale_min = 0.0;
  cfg.full_scale_max = 1.5;
  AcquisitionModel acq(cfg, 5);
  std::vector<float> samples = {0.2f, 0.7f, 1.4f};
  acq.apply(samples);
  const double step = 1.5 / 15.0;
  for (float v : samples) {
    const double code = static_cast<double>(v) / step;
    EXPECT_NEAR(code, std::round(code), 1e-4);
  }
}

TEST(Acquisition, ClampsToFullScale) {
  AcquisitionConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.drift_amplitude = 0.0;
  AcquisitionModel acq(cfg, 5);
  std::vector<float> samples = {-10.0f, 10.0f};
  acq.apply(samples);
  EXPECT_GE(samples[0], cfg.full_scale_min - 1e-5);
  EXPECT_LE(samples[1], cfg.full_scale_max + 1e-5);
}

TEST(Acquisition, DriftIsSlowAndBounded) {
  AcquisitionConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.enable_quantization = false;
  cfg.drift_amplitude = 0.05;
  cfg.drift_period = 1000;
  AcquisitionModel acq(cfg, 5);
  std::vector<float> samples(2000, 0.0f);
  acq.apply(samples);
  EXPECT_NEAR(stats::max_value(samples), 0.05f, 1e-3);
  EXPECT_NEAR(stats::min_value(samples), -0.05f, 1e-3);
}

// ---------------------------------------------------------------------------
// SoC simulator + scenarios
// ---------------------------------------------------------------------------

TEST(SocSimulator, CipherRunAnnotatesGroundTruth) {
  SocConfig cfg;
  cfg.random_delay = RandomDelayConfig::kRd2;
  SocSimulator sim(cfg);
  auto cipher = crypto::make_cipher(crypto::CipherId::kAes128);
  cipher->set_key(crypto::Key16{});
  Trace t;
  sim.run_nop_sled(64, t);
  const std::size_t sled_end = t.size();
  crypto::Block16 pt{};
  pt[0] = 0x42;
  sim.run_cipher(*cipher, pt, t);
  ASSERT_EQ(t.cos.size(), 1u);
  EXPECT_GE(t.cos[0].start_sample, sled_end);
  EXPECT_EQ(t.cos[0].end_sample, t.size());
  EXPECT_EQ(t.cos[0].plaintext, pt);
  cipher->set_key(crypto::Key16{});
  EXPECT_EQ(t.cos[0].ciphertext, cipher->encrypt(pt));
  EXPECT_EQ(t.random_delay_max, 2u);
}

TEST(SocSimulator, RandomDelayLengthensTraces) {
  auto run = [](RandomDelayConfig rd) {
    SocConfig cfg;
    cfg.random_delay = rd;
    SocSimulator sim(cfg);
    auto cipher = crypto::make_cipher(crypto::CipherId::kCamellia128);
    cipher->set_key(crypto::Key16{});
    Trace t;
    sim.run_cipher(*cipher, crypto::Block16{}, t);
    return t.size();
  };
  const auto len0 = run(RandomDelayConfig::kOff);
  const auto len2 = run(RandomDelayConfig::kRd2);
  const auto len4 = run(RandomDelayConfig::kRd4);
  EXPECT_LT(len0, len2);
  EXPECT_LT(len2, len4);
  // RD-k inserts on average k/2 dummies per instruction.
  EXPECT_NEAR(static_cast<double>(len2) / static_cast<double>(len0), 2.0, 0.3);
  EXPECT_NEAR(static_cast<double>(len4) / static_cast<double>(len0), 3.0, 0.4);
}

TEST(SocSimulator, CipherRunsDifferInLengthUnderRd) {
  SocConfig cfg;
  cfg.random_delay = RandomDelayConfig::kRd4;
  SocSimulator sim(cfg);
  auto cipher = crypto::make_cipher(crypto::CipherId::kAes128);
  cipher->set_key(crypto::Key16{});
  std::set<std::size_t> lengths;
  for (int i = 0; i < 5; ++i) {
    Trace t;
    sim.run_cipher(*cipher, crypto::Block16{}, t);
    lengths.insert(t.size());
  }
  EXPECT_GT(lengths.size(), 1u);  // desynchronization at work
}

TEST(Scenario, NopBoundaryDetectorIsAccurate) {
  ScenarioConfig sc;
  sc.cipher = crypto::CipherId::kAes128;
  sc.random_delay = RandomDelayConfig::kRd4;
  sc.seed = 55;
  const auto acq = acquire_cipher_traces(sc, 32, crypto::Key16{});
  ASSERT_EQ(acq.captures.size(), 32u);
  double mean_err = 0.0;
  for (const auto& cap : acq.captures)
    mean_err += static_cast<double>(cap.true_start_error);
  mean_err /= 32.0;
  EXPECT_LT(mean_err, 64.0);
}

TEST(Scenario, EvalTraceCarriesAllCos) {
  ScenarioConfig sc;
  sc.cipher = crypto::CipherId::kCamellia128;
  sc.random_delay = RandomDelayConfig::kRd2;
  sc.seed = 77;
  crypto::Key16 key{};
  key[1] = 0x77;
  const auto t = acquire_eval_trace(sc, 10, key, /*interleave_noise=*/true);
  ASSERT_EQ(t.cos.size(), 10u);
  // Starts are increasing and separated by at least one CO length.
  for (std::size_t i = 1; i < t.cos.size(); ++i)
    EXPECT_GT(t.cos[i].start_sample, t.cos[i - 1].end_sample - 1);
  EXPECT_GT(t.mean_co_length(), 500.0);
  // Ciphertext annotations are genuine encryptions of the plaintexts.
  auto cipher = crypto::make_cipher(sc.cipher);
  cipher->set_key(key);
  for (const auto& co : t.cos)
    EXPECT_EQ(co.ciphertext, cipher->encrypt(co.plaintext));
}

TEST(Scenario, NopBoundaryDegenerateInputsAreDefined) {
  // Shorter than one op, and shorter than the smoothing/hold horizon: no
  // boundary is measurable; 0 = "whole capture is CO".
  EXPECT_EQ(detect_nop_boundary({}, 4), 0u);
  const std::vector<float> tiny(3, 0.5f);
  EXPECT_EQ(detect_nop_boundary(tiny, 4), 0u);
  const std::vector<float> sub(16 * 4 - 1, 0.5f);
  EXPECT_EQ(detect_nop_boundary(sub, 4), 0u);
}

TEST(Scenario, NopBoundaryAllSledReturnsZero) {
  // A pure NOP sled has no activity boundary to find.
  SocConfig cfg;
  cfg.random_delay = RandomDelayConfig::kOff;
  SocSimulator sim(cfg);
  Trace t;
  sim.run_nop_sled(512, t);
  EXPECT_EQ(detect_nop_boundary(t.samples, cfg.power.samples_per_op), 0u);
}

TEST(Scenario, NopBoundaryActiveFromSampleZeroIsDefined) {
  // A capture with activity from sample 0 (no sled) has a head level equal
  // to the activity level: the detector must return a defined in-range
  // index (ideally 0) instead of a noise-band scan.
  SocConfig cfg;
  cfg.random_delay = RandomDelayConfig::kRd2;
  SocSimulator sim(cfg);
  auto cipher = crypto::make_cipher(crypto::CipherId::kAes128);
  cipher->set_key(crypto::Key16{});
  Trace t;
  sim.run_cipher(*cipher, crypto::Block16{}, t);
  const auto b = detect_nop_boundary(t.samples, cfg.power.samples_per_op);
  EXPECT_LE(b, t.samples.size());
  // The boundary must not claim the bulk of the CO is sled.
  EXPECT_LT(b, t.samples.size() / 4);
}

TEST(Acquisition, GainStepsArePiecewiseConstantWithinRange) {
  AcquisitionConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.drift_amplitude = 0.0;
  cfg.enable_quantization = false;
  cfg.gain_step_prob = 1.0 / 100.0;
  cfg.gain_min = 0.5;
  cfg.gain_max = 2.0;
  AcquisitionModel acq(cfg, 9);
  std::vector<float> samples(20000, 1.0f);
  acq.apply(samples);
  std::set<float> levels(samples.begin(), samples.end());
  EXPECT_GT(levels.size(), 3u);  // several AGC re-rangings happened
  for (float v : samples) {
    EXPECT_GE(v, 0.5f - 1e-6f);
    EXPECT_LE(v, 2.0f + 1e-6f);
  }
  // Piecewise constant: far fewer level changes than samples.
  std::size_t changes = 0;
  for (std::size_t i = 1; i < samples.size(); ++i)
    changes += samples[i] != samples[i - 1];
  EXPECT_LT(changes, samples.size() / 10);
}

TEST(Acquisition, GainStepsOffKeepsLegacyRngStream) {
  // The AGC path must not consume RNG draws when disabled, so default
  // captures stay bit-identical to the pre-AGC implementation.
  AcquisitionConfig with_fields;
  with_fields.gain_step_prob = 0.0;
  with_fields.gain_min = 0.1;  // ignored while prob is 0
  with_fields.gain_max = 7.0;
  AcquisitionModel a(AcquisitionConfig{}, 11), b(with_fields, 11);
  std::vector<float> x(5000, 0.8f), y(5000, 0.8f);
  a.apply(x);
  b.apply(y);
  EXPECT_EQ(x, y);
}

TEST(SocSimulator, PreemptedCipherIsLongerAndAnnotated) {
  const auto run = [](bool preempted) {
    SocConfig cfg;
    cfg.random_delay = RandomDelayConfig::kRd2;
    SocSimulator sim(cfg);
    auto cipher = crypto::make_cipher(crypto::CipherId::kAes128);
    cipher->set_key(crypto::Key16{});
    crypto::Block16 pt{};
    pt[3] = 0x5a;
    Trace t;
    if (preempted) {
      PreemptionConfig pc;
      pc.irqs_per_co = 2;
      pc.isr_min_instr = 200;
      pc.isr_max_instr = 400;
      sim.run_cipher_preempted(*cipher, pt, pc, 123, t);
    } else {
      sim.run_cipher(*cipher, pt, t);
    }
    return t;
  };
  const Trace plain = run(false);
  const Trace preempted = run(true);
  // Two ISRs of >= 200 instructions each, with prologue/epilogue, rendered
  // at >= samples_per_op samples per instruction.
  EXPECT_GT(preempted.size(), plain.size() + 2 * 200 * 4);
  ASSERT_EQ(preempted.cos.size(), 1u);
  EXPECT_LT(preempted.cos[0].start_sample, preempted.cos[0].end_sample);
  EXPECT_EQ(preempted.cos[0].end_sample, preempted.size());
  // The suspended execution still computes the right ciphertext.
  auto cipher = crypto::make_cipher(crypto::CipherId::kAes128);
  cipher->set_key(crypto::Key16{});
  EXPECT_EQ(preempted.cos[0].ciphertext,
            cipher->encrypt(preempted.cos[0].plaintext));
}

TEST(Scenario, ClockJitterRemapsGroundTruthThroughTheWarp) {
  // On a ramp trace, linear interpolation preserves sample values as
  // original positions: samples[warped_index] ~ original_index, which
  // verifies the annotation remap agrees with the sample warp.
  Trace t;
  t.samples.resize(30000);
  for (std::size_t i = 0; i < t.samples.size(); ++i)
    t.samples[i] = static_cast<float>(i);
  t.cos.push_back({5000, 12000, {}, {}});
  t.cos.push_back({20000, 28000, {}, {}});

  ClockJitterConfig cfg;  // wobble 0.08
  apply_clock_jitter(t, cfg, 99);

  EXPECT_GT(t.samples.size(), static_cast<std::size_t>(30000 * 0.90));
  EXPECT_LT(t.samples.size(), static_cast<std::size_t>(30000 * 1.10));
  const std::size_t originals[] = {5000, 12000, 20000, 28000};
  const std::size_t warped[] = {t.cos[0].start_sample, t.cos[0].end_sample,
                                t.cos[1].start_sample, t.cos[1].end_sample};
  for (int i = 0; i < 4; ++i) {
    ASSERT_LT(warped[static_cast<std::size_t>(i)], t.samples.size() + 1);
    const std::size_t w = std::min(warped[static_cast<std::size_t>(i)],
                                   t.samples.size() - 1);
    EXPECT_NEAR(t.samples[w], static_cast<float>(originals[i]), 4.0f);
  }
  EXPECT_LT(t.cos[0].start_sample, t.cos[0].end_sample);
  EXPECT_LT(t.cos[0].end_sample, t.cos[1].start_sample);
}

TEST(Scenario, ClockJitterZeroWobbleIsIdentity) {
  Trace t;
  t.samples = {1.f, 2.f, 3.f, 4.f};
  t.cos.push_back({1, 3, {}, {}});
  ClockJitterConfig cfg;
  cfg.wobble = 0.0;
  apply_clock_jitter(t, cfg, 7);
  EXPECT_EQ(t.samples, (std::vector<float>{1.f, 2.f, 3.f, 4.f}));
  EXPECT_EQ(t.cos[0].start_sample, 1u);
}

TEST(Scenario, MixedCaptureInterleavesTwoCiphers) {
  ScenarioConfig sc;
  sc.cipher = crypto::CipherId::kAes128;
  sc.mixed_cipher = crypto::CipherId::kClefia128;
  sc.random_delay = RandomDelayConfig::kRd2;
  sc.seed = 31;
  crypto::Key16 key{};
  key[0] = 0x11;
  const auto cap = acquire_mixed_eval_trace(sc, 6, key);
  ASSERT_EQ(cap.trace.cos.size(), 6u);
  ASSERT_EQ(cap.co_ciphers.size(), 6u);
  EXPECT_EQ(cap.starts_of(crypto::CipherId::kAes128).size(), 3u);
  EXPECT_EQ(cap.starts_of(crypto::CipherId::kClefia128).size(), 3u);
  // Each annotated ciphertext verifies against its own cipher.
  auto aes = crypto::make_cipher(crypto::CipherId::kAes128);
  auto clefia = crypto::make_cipher(crypto::CipherId::kClefia128);
  aes->set_key(key);
  clefia->set_key(key);
  for (std::size_t i = 0; i < 6; ++i) {
    const auto& co = cap.trace.cos[i];
    const auto& c =
        cap.co_ciphers[i] == crypto::CipherId::kAes128 ? aes : clefia;
    EXPECT_EQ(co.ciphertext, c->encrypt(co.plaintext));
  }
  EXPECT_THROW(
      {
        ScenarioConfig bad = sc;
        bad.mixed_cipher = bad.cipher;
        acquire_mixed_eval_trace(bad, 2, key);
      },
      Error);
}

TEST(Scenario, SuiteEnumeratesEveryScenarioUniformly) {
  const auto cases = ScenarioSuite::all();
  ASSERT_GE(cases.size(), 7u);
  std::set<std::string> names;
  for (const auto& c : cases) names.insert(c.name);
  EXPECT_EQ(names.size(), cases.size());  // stable unique names
  EXPECT_EQ(ScenarioSuite::find("clock-jitter").kind,
            ScenarioKind::kClockJitter);
  EXPECT_THROW(ScenarioSuite::find("no-such-scenario"), Error);

  ScenarioConfig sc;
  sc.cipher = crypto::CipherId::kAes128;
  sc.random_delay = RandomDelayConfig::kRd2;
  sc.seed = 41;
  crypto::Key16 key{};
  for (const auto& c : cases) {
    const auto cap = ScenarioSuite::acquire(c, sc, 2, key);
    ASSERT_EQ(cap.trace.cos.size(), 2u) << c.name;
    ASSERT_EQ(cap.co_ciphers.size(), 2u) << c.name;
    for (const auto& co : cap.trace.cos) {
      EXPECT_LT(co.start_sample, co.end_sample) << c.name;
      EXPECT_LE(co.end_sample, cap.trace.size()) << c.name;
    }
  }
}

TEST(Scenario, SuiteWalkWorksWhenPrimaryEqualsDefaultPartner) {
  // A registry walk must not throw for the cipher that happens to be the
  // default mixed partner (Camellia): the suite substitutes a differing
  // partner. Explicit misuse of the mixed API still throws (tested above).
  ScenarioConfig sc;
  sc.cipher = crypto::CipherId::kCamellia128;
  ASSERT_EQ(sc.mixed_cipher, sc.cipher);
  sc.random_delay = RandomDelayConfig::kRd2;
  sc.seed = 47;
  crypto::Key16 key{};
  const auto cap = ScenarioSuite::acquire(ScenarioSuite::find("mixed-cipher"),
                                          sc, 4, key);
  ASSERT_EQ(cap.trace.cos.size(), 4u);
  EXPECT_EQ(cap.starts_of(crypto::CipherId::kCamellia128).size(), 2u);
  EXPECT_EQ(cap.starts_of(crypto::CipherId::kAes128).size(), 2u);
}

TEST(Scenario, TruncatedTailEndsMidCo) {
  ScenarioConfig sc;
  sc.random_delay = RandomDelayConfig::kRd2;
  sc.seed = 43;
  crypto::Key16 key{};
  const auto& c = ScenarioSuite::find("truncated-tail");
  const auto cap = ScenarioSuite::acquire(c, sc, 3, key);
  ASSERT_EQ(cap.trace.cos.size(), 3u);
  // The capture stops exactly at the trailing CO's (clamped) end: there is
  // CO material after the last start but no falling edge.
  EXPECT_EQ(cap.trace.cos.back().end_sample, cap.trace.size());
  EXPECT_GT(cap.trace.size(), cap.trace.cos.back().start_sample);
}

TEST(Scenario, NoiseTraceHasNoCos) {
  ScenarioConfig sc;
  sc.seed = 88;
  const auto t = acquire_noise_trace(sc, 5000);
  EXPECT_TRUE(t.cos.empty());
  EXPECT_GT(t.size(), 5000u);
}

TEST(TraceIo, SaveLoadRoundTrip) {
  Trace t;
  t.samples = {1.f, 2.f, 3.f};
  t.cipher_name = "AES-128";
  t.random_delay_max = 4;
  CoAnnotation co;
  co.start_sample = 1;
  co.end_sample = 3;
  co.plaintext[0] = 0xab;
  co.ciphertext[15] = 0xcd;
  t.cos.push_back(co);

  const auto path =
      (std::filesystem::temp_directory_path() / "scalocate_trace.bin").string();
  save_trace(t, path);
  const Trace u = load_trace(path);
  EXPECT_EQ(u.samples, t.samples);
  EXPECT_EQ(u.cipher_name, t.cipher_name);
  EXPECT_EQ(u.random_delay_max, 4u);
  ASSERT_EQ(u.cos.size(), 1u);
  EXPECT_EQ(u.cos[0].start_sample, 1u);
  EXPECT_EQ(u.cos[0].plaintext[0], 0xab);
  EXPECT_EQ(u.cos[0].ciphertext[15], 0xcd);
  std::remove(path.c_str());
}

/// A saved trace of `samples` samples and `cos` COs, and its bytes.
struct SavedTrace {
  std::string path;
  std::string name = "AES-128";
  std::size_t samples, cos;
  std::vector<char> bytes;

  SavedTrace(const std::string& file, std::size_t n_samples, std::size_t n_cos)
      : path((std::filesystem::temp_directory_path() / file).string()),
        samples(n_samples),
        cos(n_cos) {
    Trace t;
    t.cipher_name = name;
    for (std::size_t i = 0; i < samples; ++i)
      t.samples.push_back(static_cast<float>(i) + 0.5f);
    for (std::size_t i = 0; i < cos; ++i)
      t.cos.push_back({10 * i, 10 * i + 5, {}, {}});
    save_trace(t, path);
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  ~SavedTrace() { std::remove(path.c_str()); }

  // Offsets of the three length prefixes: magic, name, sample rate (f64)
  // and random delay (u32) come before the samples; a CO record is 48
  // bytes.
  std::size_t name_prefix() const { return 8; }
  std::size_t samples_prefix() const { return 16 + name.size() + 8 + 4; }
  std::size_t cos_prefix() const { return samples_prefix() + 8 + 4 * samples; }

  /// Rewrites the file as the first `len` bytes of `content`.
  void write(const std::vector<char>& content, std::size_t len) const {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(content.data(), static_cast<std::streamsize>(len));
  }
};

TEST(TraceIo, TruncatedFileThrowsIoError) {
  // Cut to half: the 1000 samples end halfway through.
  SavedTrace big("scalocate_trace_cut_half.bin", 1000, 2);
  big.write(big.bytes, big.bytes.size() / 2);
  EXPECT_THROW(load_trace(big.path), IoError);
  // Every cut of a small file, inside every field.
  SavedTrace small("scalocate_trace_cut.bin", 3, 2);
  ASSERT_NO_THROW(load_trace(small.path));
  for (std::size_t len = 0; len < small.bytes.size(); ++len) {
    SCOPED_TRACE("cut to " + std::to_string(len) + " bytes");
    small.write(small.bytes, len);
    EXPECT_THROW(load_trace(small.path), IoError);
  }
}

TEST(TraceIo, CorruptLengthThrowsIoError) {
  SavedTrace t("scalocate_trace_corrupt.bin", 1000, 2);
  struct Prefix {
    const char* field;
    std::size_t offset, element_bytes;
  };
  for (const Prefix& p : {Prefix{"name", t.name_prefix(), 1},
                          Prefix{"samples", t.samples_prefix(), 4},
                          Prefix{"COs", t.cos_prefix(), 48}}) {
    const std::uint64_t left = t.bytes.size() - p.offset - 8;
    // One element beyond the bytes left, and the largest prefix.
    for (std::uint64_t n : {left / p.element_bytes + 1, UINT64_MAX}) {
      SCOPED_TRACE(std::string(p.field) + " length " + std::to_string(n));
      std::vector<char> corrupt = t.bytes;
      std::memcpy(corrupt.data() + p.offset, &n, sizeof n);
      t.write(corrupt, corrupt.size());
      EXPECT_THROW(load_trace(t.path), IoError);
    }
  }
}

TEST(TraceIo, FailedWriteThrowsIoError) {
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full to fail the write";
  Trace t;
  t.samples.assign(1000, 1.0f);
  EXPECT_THROW(save_trace(t, "/dev/full"), IoError);
}

TEST(TraceContainer, CoStartsAndMeanLength) {
  Trace t;
  t.cos.push_back({10, 110, {}, {}});
  t.cos.push_back({200, 320, {}, {}});
  EXPECT_EQ(t.co_starts(), (std::vector<std::size_t>{10, 200}));
  EXPECT_DOUBLE_EQ(t.mean_co_length(), 110.0);
  EXPECT_DOUBLE_EQ(Trace{}.mean_co_length(), 0.0);
}

}  // namespace
}  // namespace scalocate::trace
