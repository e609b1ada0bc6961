#include "probes.hpp"

#include <memory>
#include <optional>

#include "alloc_counter.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/kernels/parallel.hpp"
#include "nn/kernels/pointwise.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/pooling.hpp"
#include "obs/registry.hpp"
#include "runtime/thread_pool.hpp"

namespace perfbench {
namespace {

namespace nn = sc::nn;
using nn::Tensor;

/// Walks a model tree through Sequential::layer and Residual::main, calling
/// each leaf's own forward/backward and timing it. Leaves are named in walk
/// order (conv0, bn0, relu0, ..., proj, add1, add2, gap, fc1, fc2). The
/// residual projection is not reachable through the public tree, so a
/// Conv1d copy of it (same shape and weights) stands in; the residual add
/// is the kernels::add_inplace call Residual makes.
class Walker {
 public:
  std::map<std::string, double> last_us;  ///< leaf -> self time, this pass

  Tensor forward(nn::Layer& l, const Tensor& x, nn::Workspace& ws) {
    if (auto* s = dynamic_cast<nn::Sequential*>(&l)) {
      Tensor y = forward(s->layer(0), x, ws);
      for (std::size_t i = 1; i < s->size(); ++i)
        y = forward(s->layer(i), y, ws);
      return y;
    }
    if (auto* r = dynamic_cast<nn::Residual*>(&l)) {
      Tensor main_out = forward(r->main(), x, ws);
      Tensor projected;
      const Tensor* shortcut = &x;
      if (r->has_projection()) {
        nn::Conv1d& proj = projection(*r, x.dim(1));
        projected = timed_forward(proj, name_of(&proj, "proj"), x, ws);
        shortcut = &projected;
      }
      const std::int64_t t0 = now_ns();
      nn::kernels::add_inplace(main_out.numel(), shortcut->data(),
                               main_out.data());
      stamp(name_of(r, "add"), t0);
      return main_out;
    }
    return timed_forward(l, leaf_name(l), x, ws);
  }

  Tensor backward(nn::Layer& l, const Tensor& g, nn::Workspace& ws) {
    if (auto* s = dynamic_cast<nn::Sequential*>(&l)) {
      Tensor cur = g;
      for (std::size_t i = s->size(); i-- > 0;)
        cur = backward(s->layer(i), cur, ws);
      return cur;
    }
    if (auto* r = dynamic_cast<nn::Residual*>(&l)) {
      Tensor grad_main = backward(r->main(), g, ws);
      Tensor grad_proj;
      const Tensor* shortcut = &g;
      if (r->has_projection()) {
        nn::Conv1d& proj = projection(*r, 0);
        const std::int64_t t0 = now_ns();
        grad_proj = proj.backward(g, ws);
        stamp(name_of(&proj, "proj"), t0);
        shortcut = &grad_proj;
      }
      const std::int64_t t0 = now_ns();
      nn::kernels::add_inplace(grad_main.numel(), shortcut->data(),
                               grad_main.data());
      stamp(name_of(r, "add"), t0);
      return grad_main;
    }
    const std::int64_t t0 = now_ns();
    Tensor out = l.backward(g, ws);
    stamp(leaf_name(l), t0);
    return out;
  }

  /// Convs in walk order, with their names.
  std::vector<std::pair<std::string, const nn::Conv1d*>> convs() const {
    std::vector<std::pair<std::string, const nn::Conv1d*>> out;
    for (const auto& [layer, name] : order_)
      if (const auto* c = dynamic_cast<const nn::Conv1d*>(layer))
        out.emplace_back(name, c);
    return out;
  }
  std::vector<std::string> leaves() const {
    std::vector<std::string> out;
    for (const auto& entry : order_) out.push_back(entry.second);
    return out;
  }

 private:
  Tensor timed_forward(const nn::Layer& l, const std::string& name,
                       const Tensor& x, nn::Workspace& ws) {
    const std::int64_t t0 = now_ns();
    Tensor y = l.forward(x, ws);
    stamp(name, t0);
    return y;
  }

  void stamp(const std::string& name, std::int64_t t0) {
    last_us[name] += static_cast<double>(now_ns() - t0) / 1e3;
  }

  std::string leaf_name(const nn::Layer& l) {
    if (dynamic_cast<const nn::Conv1d*>(&l)) return name_of(&l, "conv");
    if (dynamic_cast<const nn::BatchNorm1d*>(&l)) return name_of(&l, "bn");
    if (dynamic_cast<const nn::ReLU*>(&l)) return name_of(&l, "relu");
    if (dynamic_cast<const nn::Linear*>(&l)) return name_of(&l, "fc");
    if (dynamic_cast<const nn::GlobalAvgPool1d*>(&l)) return name_of(&l, "gap");
    return name_of(&l, "layer");
  }

  /// Stable per-kind numbering: conv/bn/relu from 0, fc/add from 1, and
  /// the single gap/proj unnumbered.
  std::string name_of(const void* key, const std::string& kind) {
    auto it = names_.find(key);
    if (it != names_.end()) return it->second;
    const std::size_t index = counts_[kind]++;
    std::string name = kind;
    if (kind == "fc" || kind == "add") name += std::to_string(index + 1);
    else if (kind != "gap" && kind != "proj") name += std::to_string(index);
    else if (index > 0) name += std::to_string(index);
    names_.emplace(key, name);
    order_.emplace_back(static_cast<const nn::Layer*>(nullptr), name);
    if (kind != "add")
      order_.back().first = static_cast<const nn::Layer*>(key);
    return name;
  }

  nn::Conv1d& projection(nn::Residual& r, std::size_t in_channels) {
    auto it = proj_.find(&r);
    if (it != proj_.end()) return *it->second;
    const auto params = r.params();
    const nn::Param& w = *params[params.size() - 2];
    const nn::Param& b = *params[params.size() - 1];
    auto copy = std::make_unique<nn::Conv1d>(in_channels, w.value.dim(0), 1);
    copy->weight().value = w.value;
    copy->bias().value = b.value;
    copy->set_training(r.training());
    return *proj_.emplace(&r, std::move(copy)).first->second;
  }

  std::map<const void*, std::string> names_;
  std::map<std::string, std::size_t> counts_;
  std::vector<std::pair<const nn::Layer*, std::string>> order_;
  std::map<const nn::Residual*, std::unique_ptr<nn::Conv1d>> proj_;
};

/// A [batch, 1, window] tensor of standardized windows of `samples`,
/// taken every `step` samples.
Tensor window_batch(const std::vector<float>& samples, std::size_t batch,
                    std::size_t window, std::size_t step) {
  Tensor t({batch, 1, window});
  for (std::size_t i = 0; i < batch; ++i) {
    const std::size_t at = (i * step) % (samples.size() - window);
    nn::kernels::standardize(
        std::span<const float>(samples.data() + at, window),
        t.data() + i * window);
  }
  return t;
}

/// Median whole-model forward time per window.
double forward_us_per_window(const nn::Sequential& model, const Tensor& x,
                             std::size_t reps) {
  nn::Workspace ws;
  model.forward(x, ws);  // sizes the workspace
  std::vector<double> us;
  for (std::size_t r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    const Tensor y = model.forward(x, ws);
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median(us) / static_cast<double>(x.dim(0));
}

/// The compute pool's task counter; the registry lives as long as the
/// process-wide pool it is attached to.
sc::obs::Counter* compute_tasks_counter() {
  static sc::obs::Registry* registry = nullptr;
  if (registry == nullptr) {
    sc::runtime::ThreadPool* pool = nn::kernels::compute_pool();
    if (pool == nullptr) return nullptr;
    registry = new sc::obs::Registry();
    pool->attach_metrics(*registry, "compute");
  }
  return &registry->counter("compute.tasks");
}

}  // namespace

void run_layer_probes(Models& models, const Capture& capture,
                      std::size_t serving_threads, Report& report) {
  sc::core::CoLocator& aes = models.at(CipherId::kAes128);
  nn::Sequential& model = aes.model();
  const auto& params = aes.config().params;
  const std::size_t n_inf = params.n_inf;
  const Tensor b1 = window_batch(capture.samples, 1, n_inf, params.stride);
  const Tensor b64 = window_batch(capture.samples, 64, n_inf, params.stride);

  report.metric("kernels.intra_op_threads",
                static_cast<double>(nn::kernels::default_intra_op_threads()),
                "count");
  std::optional<nn::kernels::IntraOpGuard> serving(std::in_place,
                                                   serving_threads);

  // Whole-model forward, both models.
  for (CipherId c : {CipherId::kAes128, CipherId::kCamellia128}) {
    const auto& loc = models.at(c);
    const std::string tag = model_tag(c);
    const std::size_t w = loc.config().params.n_inf;
    const std::size_t s = loc.config().params.stride;
    report.metric("nn.forward_us_per_window." + tag + ".b1",
                  forward_us_per_window(
                      loc.model(), window_batch(capture.samples, 1, w, s), 60),
                  "us");
    report.metric("nn.forward_us_per_window." + tag + ".b64",
                  forward_us_per_window(
                      loc.model(), window_batch(capture.samples, 64, w, s), 8),
                  "us");
  }

  // Per-leaf eval forward self times.
  Walker walker;
  nn::Workspace ws;
  std::map<std::string, std::vector<double>> fwd_b1, fwd_b64;
  for (const auto* batch : {&b1, &b64}) {
    const std::size_t reps = batch == &b1 ? 40 : 6;
    auto& acc = batch == &b1 ? fwd_b1 : fwd_b64;
    for (std::size_t r = 0; r <= reps; ++r) {
      walker.last_us.clear();
      walker.forward(model, *batch, ws);
      if (r == 0) continue;  // warm-up pass sizes the workspace
      for (const auto& [leaf, us] : walker.last_us) acc[leaf].push_back(us);
    }
  }
  for (const std::string& leaf : walker.leaves()) {
    report.metric("nn.fwd." + leaf + ".b1_us", median(fwd_b1[leaf]), "us");
    report.metric("nn.fwd." + leaf + ".b64_us", median(fwd_b64[leaf]), "us");
  }
  for (const auto& [name, conv] : walker.convs()) {
    const std::size_t lin = n_inf;
    const std::size_t lout = conv->output_length(lin);
    const double flops_per_window =
        2.0 * static_cast<double>(conv->out_channels() * conv->in_channels() *
                                  conv->kernel_size() * lout);
    for (std::size_t batch : {1u, 64u}) {
      const double us = median(batch == 1 ? fwd_b1[name] : fwd_b64[name]);
      report.metric("kernels.conv." + name + ".gflops.b" +
                        std::to_string(batch),
                    flops_per_window * static_cast<double>(batch) / (us * 1e3),
                    "GFLOP/s");
    }
    // Computed, not measured: input + weights + bias + output at batch 64.
    const double floats =
        static_cast<double>(64 * conv->in_channels() * lin +
                            conv->out_channels() * conv->in_channels() *
                                conv->kernel_size() +
                            conv->out_channels() +
                            64 * conv->out_channels() * lout);
    report.metric("kernels.conv." + name + ".mb_moved", floats * 4.0 / 1e6,
                  "MB");
  }

  // Heap allocations per forward: exact counts from the counting new.
  for (const auto* batch : {&b1, &b64}) {
    model.forward(*batch, ws);
    alloc::arm();
    model.forward(*batch, ws);
    const alloc::Counts counts = alloc::disarm();
    const std::string tag = batch == &b1 ? "b1" : "b64";
    report.metric("nn.allocs_per_forward." + tag,
                  static_cast<double>(counts.calls), "count");
    if (batch == &b64)
      report.metric("nn.alloc_mb_per_forward.b64",
                    static_cast<double>(counts.bytes) / 1e6, "MB");
  }

  // Window standardization over the whole capture.
  {
    const std::size_t windows =
        (capture.samples.size() - n_inf) / params.stride + 1;
    std::vector<float> out(n_inf);
    std::vector<double> us;
    for (int r = 0; r < 5; ++r) {
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < windows; ++i)
        nn::kernels::standardize(
            std::span<const float>(capture.samples.data() + i * params.stride,
                                   n_inf),
            out.data());
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3 /
                   static_cast<double>(windows));
    }
    report.metric("kernels.standardize_us_per_window", median(us), "us");
  }

  // Training-mode backward per leaf and the Adam step, on a fresh model at
  // the training batch and window.
  {
    auto fresh = sc::core::build_paper_cnn(aes.config().cnn);
    fresh->set_training(true);
    const Tensor x = window_batch(capture.samples, params.batch_size,
                                  params.n_train, params.stride / 2 + 1);
    std::vector<std::uint8_t> labels(params.batch_size);
    for (std::size_t i = 0; i < labels.size(); ++i)
      labels[i] = static_cast<std::uint8_t>(i % 2);
    nn::Adam adam(fresh->params(), params.learning_rate);
    nn::SoftmaxCrossEntropy loss;
    Walker train_walker;
    nn::Workspace tws;
    std::map<std::string, std::vector<double>> bwd;
    std::vector<double> adam_ms;
    for (std::size_t r = 0; r <= 6; ++r) {
      adam.zero_grad();
      const Tensor logits = train_walker.forward(*fresh, x, tws);
      loss.forward(logits, labels);
      train_walker.last_us.clear();
      train_walker.backward(*fresh, loss.backward(), tws);
      const std::int64_t t0 = now_ns();
      adam.step();
      const double ms = static_cast<double>(now_ns() - t0) / 1e6;
      if (r == 0) continue;
      adam_ms.push_back(ms);
      for (const auto& [leaf, us] : train_walker.last_us)
        bwd[leaf].push_back(us);
    }
    for (const std::string& leaf : train_walker.leaves())
      report.metric("nn.bwd." + leaf + "_us", median(bwd[leaf]), "us");
    report.metric("nn.adam_step_ms", median(adam_ms), "ms");
  }

  // From here on the process default budget, as an unpinned caller gets:
  // compute-pool tasks posted per batch-1 forward.
  serving.reset();
  model.forward(b1, ws);  // creates the compute pool if the budget forks
  double tasks = 0.0;
  if (sc::obs::Counter* counter = compute_tasks_counter()) {
    const std::uint64_t before = counter->value();
    model.forward(b1, ws);
    tasks = static_cast<double>(counter->value() - before);
  }
  report.metric("kernels.compute_tasks_per_forward.b1", tasks, "count");
}

}  // namespace perfbench
