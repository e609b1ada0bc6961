#include "trace/trace.hpp"

#include "common/error.hpp"
#include "common/io.hpp"

namespace scalocate::trace {

namespace {
constexpr std::uint64_t kTraceMagic = 0x5343414c54524331ULL;  // "SCALTRC1"
/// One CO record: start and end (u64 each), plaintext and ciphertext.
constexpr std::size_t kCoRecordBytes = 2 * sizeof(std::uint64_t) + 2 * 16;
}  // namespace

std::vector<std::size_t> Trace::co_starts() const {
  std::vector<std::size_t> out;
  out.reserve(cos.size());
  for (const auto& co : cos) out.push_back(co.start_sample);
  return out;
}

double Trace::mean_co_length() const {
  if (cos.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& co : cos)
    acc += static_cast<double>(co.end_sample - co.start_sample);
  return acc / static_cast<double>(cos.size());
}

void save_trace(const Trace& trace, const std::string& path) {
  auto os = io::open_for_write(path, kTraceMagic);
  io::write_string(os, trace.cipher_name);
  io::write_scalar(os, trace.sample_rate_hz);
  io::write_scalar(os, trace.random_delay_max);
  io::write_vector(os, trace.samples);
  io::write_scalar<std::uint64_t>(os, trace.cos.size());
  for (const auto& co : trace.cos) {
    io::write_scalar<std::uint64_t>(os, co.start_sample);
    io::write_scalar<std::uint64_t>(os, co.end_sample);
    os.write(reinterpret_cast<const char*>(co.plaintext.data()), 16);
    os.write(reinterpret_cast<const char*>(co.ciphertext.data()), 16);
  }
  // Flush before declaring success: a full disk otherwise only surfaces in
  // the ofstream destructor, which cannot report it.
  os.flush();
  if (!os) throw IoError("failed writing trace: " + path);
}

Trace load_trace(const std::string& path) {
  auto is = io::open_for_read(path, kTraceMagic);
  Trace t;
  try {
    t.cipher_name = io::read_string(is);
    io::read_exact(is, &t.sample_rate_hz, sizeof t.sample_rate_hz);
    io::read_exact(is, &t.random_delay_max, sizeof t.random_delay_max);
    t.samples = io::read_vector<float>(is);
    t.cos.resize(static_cast<std::size_t>(io::read_length(is, kCoRecordBytes)));
    for (auto& co : t.cos) {
      std::uint64_t bounds[2];
      io::read_exact(is, bounds, sizeof bounds);
      co.start_sample = static_cast<std::size_t>(bounds[0]);
      co.end_sample = static_cast<std::size_t>(bounds[1]);
      io::read_exact(is, co.plaintext.data(), co.plaintext.size());
      io::read_exact(is, co.ciphertext.data(), co.ciphertext.size());
    }
  } catch (const IoError& e) {
    throw IoError("trace file " + path + ": " + e.what());
  }
  return t;
}

}  // namespace scalocate::trace
