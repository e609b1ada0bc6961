#include "speed.hpp"

#include <sched.h>
#include <time.h>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace perfbench {
namespace {

// The unit multiplies a 6x256 panel by a 256x16 one, kUnitReps times, in
// 6x16 register tiles: the shape of the library's conv GEMM micro-kernel.
constexpr std::size_t kRows = 6;
constexpr std::size_t kDepth = 256;
constexpr std::size_t kCols = 16;
constexpr std::size_t kUnitReps = 300;

struct Panels {
  std::vector<float> a = std::vector<float>(kRows * kDepth, 0.01f);
  std::vector<float> b = std::vector<float>(kDepth * kCols, 0.02f);
  std::vector<float> c = std::vector<float>(kRows * kCols, 0.0f);
};

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

#if defined(__x86_64__)
__attribute__((target("avx2,fma"))) void tile_avx2(Panels& p) {
  __m256 c[kRows][2];
  for (std::size_t r = 0; r < kRows; ++r) {
    c[r][0] = _mm256_loadu_ps(&p.c[r * kCols]);
    c[r][1] = _mm256_loadu_ps(&p.c[r * kCols + 8]);
  }
  for (std::size_t k = 0; k < kDepth; ++k) {
    const __m256 b0 = _mm256_loadu_ps(&p.b[k * kCols]);
    const __m256 b1 = _mm256_loadu_ps(&p.b[k * kCols + 8]);
    for (std::size_t r = 0; r < kRows; ++r) {
      const __m256 a = _mm256_broadcast_ss(&p.a[k * kRows + r]);
      c[r][0] = _mm256_fmadd_ps(a, b0, c[r][0]);
      c[r][1] = _mm256_fmadd_ps(a, b1, c[r][1]);
    }
  }
  for (std::size_t r = 0; r < kRows; ++r) {
    _mm256_storeu_ps(&p.c[r * kCols], c[r][0]);
    _mm256_storeu_ps(&p.c[r * kCols + 8], c[r][1]);
  }
}
#endif

void tile_portable(Panels& p) {
  for (std::size_t k = 0; k < kDepth; ++k)
    for (std::size_t r = 0; r < kRows; ++r)
      for (std::size_t j = 0; j < kCols; ++j)
        p.c[r * kCols + j] += p.a[k * kRows + r] * p.b[k * kCols + j];
}

bool has_avx2() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace

void calibration_unit() {
  thread_local Panels panels;
  static const bool avx2 = has_avx2();
  for (std::size_t rep = 0; rep < kUnitReps; ++rep) {
#if defined(__x86_64__)
    if (avx2) {
      tile_avx2(panels);
      continue;
    }
#endif
    tile_portable(panels);
  }
  asm volatile("" : : "r"(panels.c.data()) : "memory");  // keep the tiles
}

std::vector<int> pin_to_cpus(std::size_t n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
  for (std::size_t cpu = CPU_SETSIZE; cpu-- > 0 && cpus.size() < n;)
    if (CPU_ISSET(cpu, &allowed))
      cpus.insert(cpus.begin(), static_cast<int>(cpu));
  if (cpus.size() < n) return {};
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (int cpu : cpus) CPU_SET(static_cast<std::size_t>(cpu), &pinned);
  if (sched_setaffinity(0, sizeof pinned, &pinned) != 0) return {};
  return cpus;
}

Pacer::Pacer() : mark_(now_ns()) {}

void Pacer::pace() {
  const std::int64_t now = now_ns();
  const std::size_t owed = cadence_.owed(now - mark_);
  mark_ = now;
  if (owed > 0) run(owed);
}

void Pacer::run(std::size_t units) {
  for (std::size_t u = 0; u < units; ++u) {
    const std::int64_t t0 = now_ns();
    const double c0 = thread_cpu_seconds();
    calibration_unit();
    const double c1 = thread_cpu_seconds();
    mark_ = now_ns();
    wall_ns_ += mark_ - t0;
    speed_.unit_wall_s.push_back(static_cast<double>(mark_ - t0) / 1e9);
    speed_.unit_cpu_s.push_back(c1 - c0);
  }
}

}  // namespace perfbench
