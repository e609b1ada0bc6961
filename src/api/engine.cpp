#include "api/engine.hpp"

#include <cctype>

#include "api/artifact.hpp"
#include "common/error.hpp"

namespace scalocate::api {

// ---------------------------------------------------------------------------
// Stream
// ---------------------------------------------------------------------------

Stream::Stream(std::shared_ptr<detail::ModelEntry> entry,
               StreamingConfig config)
    : entry_(std::move(entry)),
      streaming_(std::make_unique<runtime::StreamingLocator>(
          *entry_->locator, std::move(config))) {}

std::vector<Detection> Stream::feed(std::span<const float> chunk) {
  const auto detections = streaming_->feed(chunk);
  pending_.insert(pending_.end(), detections.begin(), detections.end());
  return deliver();
}

std::vector<Detection> Stream::finish() {
  const auto detections = streaming_->finish();
  pending_.insert(pending_.end(), detections.begin(), detections.end());
  return deliver();
}

void Stream::reset() {
  streaming_->reset();
  pending_.clear();
}

std::vector<Detection> Stream::deliver() {
  if (!callback_) {
    std::vector<Detection> out(pending_.begin(), pending_.end());
    pending_.clear();
    return out;
  }
  while (!pending_.empty()) {
    callback_(pending_.front());  // a throw keeps the detection queued
    pending_.pop_front();
  }
  return {};
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

std::future<std::vector<std::size_t>> Session::submit(std::vector<float> trace,
                                                      SubmitOptions options) {
  return entry_->service.submit(std::move(trace), nullptr, options);
}

std::future<std::vector<std::size_t>> Session::submit_view(
    std::span<const float> trace, SubmitOptions options) {
  return entry_->service.submit_view(trace, nullptr, options);
}

Job Session::submit_job(std::vector<float> trace, SubmitOptions options) {
  auto flag = std::make_shared<std::atomic<bool>>(false);
  auto future = entry_->service.submit(std::move(trace), flag, options);
  return Job(std::move(flag), std::move(future));
}

std::future<Session::TimedResult> Session::submit_timed(
    std::span<const float> trace, SubmitOptions options) {
  return entry_->service.submit_timed(trace, options);
}

Stream Session::open_stream(StreamingConfig config) const {
  // Engine-level telemetry wiring, unless the caller routed the stream to a
  // registry of their own.
  if (!config.registry && entry_->registry) {
    config.registry = entry_->registry;
    config.metric_prefix = entry_->stream_prefix;
  }
  return Stream(entry_, config);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

std::string metric_model_name(crypto::CipherId cipher) {
  std::string out;
  for (const char c : crypto::cipher_display_name(cipher)) {
    if (std::isalnum(static_cast<unsigned char>(c)))
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

Engine::Engine(EngineConfig config)
    : config_(config), pool_(runtime::resolve_workers(config.workers)) {
  if (config_.registry) pool_.attach_metrics(*config_.registry);
}

Engine::~Engine() = default;

crypto::CipherId Engine::register_entry(
    std::shared_ptr<detail::ModelEntry> entry) {
  scalocate::detail::require(entry->locator->is_trained(),
                  "Engine: model must be trained");
  const auto cipher = entry->locator->config().params.cipher;
  if (entry->registry) entry->stream_prefix = "stream." + metric_model_name(cipher);
  // A replaced entry may hold the last reference to a service with jobs
  // still in flight; its drain() must run after the registry lock is
  // released, or a hot-swap would stall every other Engine operation.
  std::shared_ptr<detail::ModelEntry> replaced;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = registry_[cipher];
    replaced = std::move(slot);
    slot = std::move(entry);
  }
  return cipher;
}

runtime::ServiceConfig Engine::service_config(crypto::CipherId cipher) const {
  runtime::ServiceConfig cfg;
  cfg.max_queue_depth = config_.max_queue_depth;
  cfg.admission = config_.admission;
  cfg.max_concurrency = config_.max_concurrency;
  cfg.watchdog_p99_multiple = config_.watchdog_p99_multiple;
  cfg.watchdog_min_samples = config_.watchdog_min_samples;
  cfg.intra_op_threads = config_.intra_op_threads;
  if (config_.registry) {
    cfg.registry = config_.registry;
    cfg.metric_prefix = "engine." + metric_model_name(cipher);
  }
  return cfg;
}

crypto::CipherId Engine::load_artifact(const std::string& path) {
  // Load first: the model's cipher id names its instruments.
  return add_model(api::load_artifact(path));
}

crypto::CipherId Engine::add_model(core::CoLocator&& locator) {
  const auto cipher = locator.config().params.cipher;
  return register_entry(std::make_shared<detail::ModelEntry>(
      std::move(locator), pool_, service_config(cipher)));
}

crypto::CipherId Engine::attach_model(const core::CoLocator& locator) {
  const auto cipher = locator.config().params.cipher;
  return register_entry(std::make_shared<detail::ModelEntry>(
      locator, pool_, service_config(cipher)));
}

std::string Engine::telemetry_text() const {
  return config_.registry ? config_.registry->render_text()
                          : "(telemetry off: Engine built without a registry)\n";
}

std::string Engine::telemetry_json() const {
  return config_.registry ? config_.registry->render_json() : "{}";
}

Session Engine::open_session(crypto::CipherId cipher) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = registry_.find(cipher);
  scalocate::detail::require(it != registry_.end(),
                  "Engine::open_session: no model registered for cipher " +
                      crypto::cipher_display_name(cipher));
  return Session(it->second);
}

Session Engine::open_session() const {
  std::lock_guard<std::mutex> lock(mutex_);
  scalocate::detail::require(registry_.size() == 1,
                  "Engine::open_session(): engine serves " +
                      std::to_string(registry_.size()) +
                      " models; select one by cipher id");
  return Session(registry_.begin()->second);
}

bool Engine::has_model(crypto::CipherId cipher) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return registry_.count(cipher) > 0;
}

std::vector<ModelInfo> Engine::models() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ModelInfo> out;
  out.reserve(registry_.size());
  for (const auto& [cipher, entry] : registry_) {
    ModelInfo info;
    info.cipher = cipher;
    info.display_name = crypto::cipher_display_name(cipher);
    info.n_inf = entry->locator->config().params.n_inf;
    info.stride = entry->locator->config().params.stride;
    info.calibration_offset = entry->locator->calibration_offset();
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace scalocate::api
