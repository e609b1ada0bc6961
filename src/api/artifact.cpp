#include "api/artifact.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/io.hpp"
#include "nn/serialize.hpp"
#include "runtime/fault_injector.hpp"

namespace scalocate::api {

namespace {

template <typename T>
T rd(std::istream& is, const char* what) {
  const T value = io::read_scalar<T>(is);
  if (!is)
    throw ArtifactTruncated(std::string("artifact truncated reading ") + what);
  return value;
}

std::size_t rd_size(std::istream& is, const char* what) {
  return static_cast<std::size_t>(rd<std::uint64_t>(is, what));
}

bool rd_bool(std::istream& is, const char* what) {
  return rd<std::uint8_t>(is, what) != 0;
}

/// Length-prefixed float vector, with the declared count bounded by the
/// bytes actually left in the file BEFORE allocating: a hostile prefix
/// (CRC-32 is not cryptographic, an attacker recomputes it) must not turn
/// a 100-byte file into a multi-GiB zero-fill.
std::vector<float> rd_floats(std::istream& is, const char* what,
                             std::uint64_t max_elements) {
  const auto n = rd<std::uint64_t>(is, what);
  if (n > max_elements)
    throw ArtifactError(std::string("artifact corrupt length for ") + what);
  std::vector<float> v(static_cast<std::size_t>(n));
  if (n > 0) {
    is.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(n * sizeof(float)));
    if (!is)
      throw ArtifactTruncated(std::string("artifact truncated reading ") +
                              what);
  }
  return v;
}

void wr_bool(std::ostream& os, bool v) {
  io::write_scalar<std::uint8_t>(os, v ? 1 : 0);
}

void write_pipeline_params(std::ostream& os, const core::PipelineParams& p) {
  io::write_scalar<std::uint64_t>(os, p.n_train);
  io::write_scalar<std::uint64_t>(os, p.n_inf);
  io::write_scalar<std::uint64_t>(os, p.stride);
  io::write_scalar<std::uint64_t>(os, p.sizes.cipher_start);
  io::write_scalar<std::uint64_t>(os, p.sizes.cipher_rest);
  io::write_scalar<std::uint64_t>(os, p.sizes.noise);
  io::write_scalar<std::uint64_t>(os, p.batch_size);
  io::write_scalar<float>(os, p.learning_rate);
  io::write_scalar<std::uint64_t>(os, p.epochs);
  io::write_scalar<double>(os, p.train_fraction);
  io::write_scalar<double>(os, p.val_fraction);
  wr_bool(os, p.random_rest_offsets);
  io::write_scalar<std::uint64_t>(os, p.start_jitter);
  io::write_scalar<std::uint64_t>(os, p.median_filter_k);
  io::write_scalar<float>(os, p.threshold);
  io::write_scalar<std::uint64_t>(os, p.merge_gap_windows);
  io::write_scalar<double>(os, p.otsu_clip_percentile);
  io::write_scalar<std::uint64_t>(os, p.paper_mean_length);
  io::write_scalar<std::uint64_t>(os, p.paper_n_train);
  io::write_scalar<std::uint64_t>(os, p.paper_n_inf);
  io::write_scalar<std::uint64_t>(os, p.paper_stride);
  io::write_scalar<std::uint64_t>(os, p.paper_sizes.cipher_start);
  io::write_scalar<std::uint64_t>(os, p.paper_sizes.cipher_rest);
  io::write_scalar<std::uint64_t>(os, p.paper_sizes.noise);
}

core::PipelineParams read_pipeline_params(std::istream& is,
                                          crypto::CipherId cipher) {
  core::PipelineParams p;
  p.cipher = cipher;
  p.n_train = rd_size(is, "n_train");
  p.n_inf = rd_size(is, "n_inf");
  p.stride = rd_size(is, "stride");
  p.sizes.cipher_start = rd_size(is, "sizes.cipher_start");
  p.sizes.cipher_rest = rd_size(is, "sizes.cipher_rest");
  p.sizes.noise = rd_size(is, "sizes.noise");
  p.batch_size = rd_size(is, "batch_size");
  p.learning_rate = rd<float>(is, "learning_rate");
  p.epochs = rd_size(is, "epochs");
  p.train_fraction = rd<double>(is, "train_fraction");
  p.val_fraction = rd<double>(is, "val_fraction");
  p.random_rest_offsets = rd_bool(is, "random_rest_offsets");
  p.start_jitter = rd_size(is, "start_jitter");
  p.median_filter_k = rd_size(is, "median_filter_k");
  p.threshold = rd<float>(is, "threshold");
  p.merge_gap_windows = rd_size(is, "merge_gap_windows");
  p.otsu_clip_percentile = rd<double>(is, "otsu_clip_percentile");
  p.paper_mean_length = rd_size(is, "paper_mean_length");
  p.paper_n_train = rd_size(is, "paper_n_train");
  p.paper_n_inf = rd_size(is, "paper_n_inf");
  p.paper_stride = rd_size(is, "paper_stride");
  p.paper_sizes.cipher_start = rd_size(is, "paper_sizes.cipher_start");
  p.paper_sizes.cipher_rest = rd_size(is, "paper_sizes.cipher_rest");
  p.paper_sizes.noise = rd_size(is, "paper_sizes.noise");
  if (p.n_train == 0 || p.n_inf == 0 || p.stride == 0)
    throw ArtifactError("artifact corrupt pipeline parameters");
  return p;
}

}  // namespace

std::uint32_t artifact_checksum(std::span<const char> bytes) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c >> 1) ^ ((c & 1u) ? 0xedb88320u : 0u);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (const char b : bytes)
    crc = (crc >> 8) ^ table[(crc ^ static_cast<std::uint8_t>(b)) & 0xffu];
  return crc ^ 0xffffffffu;
}

void save_artifact(const core::CoLocator& locator, const std::string& path) {
  scalocate::detail::require(locator.is_trained(),
                  "save_artifact: locator must be trained");
  const core::LocatorConfig& cfg = locator.config();
  // The body (everything between the magic and the trailer) is assembled in
  // memory first so its checksum can be computed before anything hits disk.
  std::ostringstream os(std::ios::binary);
  io::write_scalar<std::uint32_t>(os, kArtifactVersion);
  io::write_scalar<std::uint32_t>(os,
                                  static_cast<std::uint32_t>(cfg.params.cipher));
  io::write_scalar<std::uint64_t>(os, cfg.cnn.base_filters);
  io::write_scalar<std::uint64_t>(os, cfg.cnn.kernel_size);
  io::write_scalar<std::uint64_t>(os, cfg.cnn.fc_hidden);
  io::write_scalar<std::uint64_t>(os, cfg.cnn.init_seed);
  write_pipeline_params(os, cfg.params);
  io::write_scalar<std::uint64_t>(os, cfg.seed);
  io::write_scalar<std::uint64_t>(os, cfg.calibration_captures);
  wr_bool(os, cfg.fine_align);
  io::write_scalar<std::uint64_t>(os, cfg.fine_template_length);
  io::write_scalar<std::uint64_t>(os, cfg.fine_search_radius);
  io::write_scalar<double>(os, cfg.min_separation_fraction);

  const auto cal = locator.calibration_state();
  io::write_scalar<std::int64_t>(os, cal.coarse_offset);
  io::write_scalar<std::int64_t>(os, cal.fine_offset);
  io::write_scalar<double>(os, cal.mean_co_length);
  io::write_scalar<float>(os, cal.calibrated_threshold);
  io::write_scalar<std::uint64_t>(os, cal.fine_template.size());
  if (!cal.fine_template.empty())
    os.write(reinterpret_cast<const char*>(cal.fine_template.data()),
             static_cast<std::streamsize>(cal.fine_template.size() *
                                          sizeof(float)));

  nn::write_module_payload(os, locator.model());

  const std::string body = os.str();
  auto file = io::open_for_write(path, kArtifactMagic);
  file.write(body.data(), static_cast<std::streamsize>(body.size()));
  io::write_scalar<std::uint32_t>(
      file, artifact_checksum({body.data(), body.size()}));
  io::write_scalar<std::uint64_t>(file, kArtifactEnd);
  // Flush before declaring success: a full disk otherwise only surfaces in
  // the ofstream destructor, which cannot report it.
  file.flush();
  if (!file) throw IoError("failed writing artifact: " + path);
}

core::CoLocator load_artifact(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw ArtifactError("cannot open artifact: " + path);
  std::string bytes((std::istreambuf_iterator<char>(file)),
                    std::istreambuf_iterator<char>());

  // Chaos hook: an armed "artifact.read" site drops the tail of the bytes
  // HERE, before any field is parsed — what reading a file mid-write looks
  // like. The structural checks below must turn it into a typed
  // ArtifactTruncated, never a crash or a silently short model.
  runtime::FaultInjector::instance().truncate("artifact.read", bytes);

  // Structural checks on the raw bytes before any field is trusted: magic,
  // then completeness (the end marker only exists in a fully written file),
  // then version, then the integrity checksum.
  if (bytes.size() < sizeof(std::uint64_t))
    throw ArtifactTruncated("artifact truncated reading magic: " + path);
  std::uint64_t magic = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  if (magic != kArtifactMagic)
    throw ArtifactBadMagic("not a scalocate artifact (bad magic): " + path);

  if (bytes.size() < kVersionOffset + sizeof(std::uint32_t) + kTrailerBytes)
    throw ArtifactTruncated("artifact truncated: " + path);
  std::uint64_t end_marker = 0;
  std::memcpy(&end_marker, bytes.data() + bytes.size() - sizeof(end_marker),
              sizeof(end_marker));
  if (end_marker != kArtifactEnd)
    throw ArtifactTruncated("artifact truncated (missing end marker): " +
                            path);

  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + kVersionOffset, sizeof(version));
  if (version != kArtifactVersion)
    throw ArtifactVersionMismatch(
        "artifact format version " + std::to_string(version) +
        ", this build reads version " + std::to_string(kArtifactVersion) +
        ": " + path);

  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - kTrailerBytes,
              sizeof(stored_crc));
  const std::uint32_t computed_crc = artifact_checksum(
      {bytes.data() + sizeof(magic), bytes.size() - sizeof(magic) - kTrailerBytes});
  if (stored_crc != computed_crc)
    throw ArtifactChecksumMismatch("artifact checksum mismatch: " + path);

  const std::size_t total = bytes.size();
  std::istringstream is(std::move(bytes), std::ios::binary);
  is.seekg(kCipherOffset);
  const auto cipher_raw = rd<std::uint32_t>(is, "cipher id");
  if (cipher_raw > static_cast<std::uint32_t>(crypto::CipherId::kSimon128))
    throw ArtifactError("artifact corrupt cipher id: " + path);
  const auto cipher = static_cast<crypto::CipherId>(cipher_raw);

  core::LocatorConfig cfg;
  cfg.cnn.base_filters = rd_size(is, "cnn.base_filters");
  cfg.cnn.kernel_size = rd_size(is, "cnn.kernel_size");
  cfg.cnn.fc_hidden = rd_size(is, "cnn.fc_hidden");
  cfg.cnn.init_seed = rd<std::uint64_t>(is, "cnn.init_seed");
  if (cfg.cnn.base_filters == 0 || cfg.cnn.kernel_size == 0 ||
      cfg.cnn.fc_hidden == 0 || cfg.cnn.base_filters > (1u << 16) ||
      cfg.cnn.kernel_size > (1u << 20) || cfg.cnn.fc_hidden > (1u << 20))
    throw ArtifactError("artifact corrupt architecture descriptor: " + path);
  // The payload must at least hold the second residual block's conv weight
  // (4*F^2*K floats) and the first fc weight (2F*H floats), so a descriptor
  // whose implied model dwarfs the file — via either the conv or the fc
  // dimensions — is rejected before build_paper_cnn can attempt the
  // allocation.
  const std::uint64_t min_payload_bytes =
      (4ull * cfg.cnn.base_filters * cfg.cnn.base_filters *
           cfg.cnn.kernel_size +
       2ull * cfg.cnn.base_filters * cfg.cnn.fc_hidden) *
      sizeof(float);
  if (min_payload_bytes > total)
    throw ArtifactError(
        "artifact architecture descriptor implies a larger payload than the "
        "file holds: " +
        path);
  cfg.params = read_pipeline_params(is, cipher);
  cfg.seed = rd<std::uint64_t>(is, "seed");
  cfg.calibration_captures = rd_size(is, "calibration_captures");
  cfg.fine_align = rd_bool(is, "fine_align");
  cfg.fine_template_length = rd_size(is, "fine_template_length");
  cfg.fine_search_radius = rd_size(is, "fine_search_radius");
  cfg.min_separation_fraction = rd<double>(is, "min_separation_fraction");

  core::CoLocator::CalibrationState cal;
  cal.coarse_offset =
      static_cast<std::ptrdiff_t>(rd<std::int64_t>(is, "coarse_offset"));
  cal.fine_offset =
      static_cast<std::ptrdiff_t>(rd<std::int64_t>(is, "fine_offset"));
  cal.mean_co_length = rd<double>(is, "mean_co_length");
  cal.calibrated_threshold = rd<float>(is, "calibrated_threshold");
  cal.fine_template = rd_floats(
      is, "fine_template",
      (total - static_cast<std::size_t>(is.tellg())) / sizeof(float));

  // Building the CNN from the descriptor and then demanding that every
  // payload parameter matches it by name and shape is what makes the load
  // safe: a descriptor/payload disagreement can never be silently zero-
  // filled or reinterpreted.
  core::CoLocator locator(cfg);
  try {
    nn::read_module_payload(is, locator.model());
  } catch (const ShapeError& e) {
    throw ArtifactArchMismatch(std::string(e.what()) + ": " + path);
  } catch (const IoError& e) {
    throw ArtifactTruncated(std::string(e.what()) + ": " + path);
  }

  // The parse must land exactly on the trailer: leftover bytes would mean
  // the fields consumed disagree with what the writer produced.
  if (static_cast<std::uint64_t>(is.tellg()) != total - kTrailerBytes)
    throw ArtifactError("artifact corrupt (payload size mismatch): " + path);

  locator.restore_calibration(std::move(cal));
  return locator;
}

}  // namespace scalocate::api

namespace scalocate::core {

void CoLocator::export_artifact(const std::string& path) const {
  api::save_artifact(*this, path);
}

}  // namespace scalocate::core
