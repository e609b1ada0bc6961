#include "nn/serialize.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "common/io.hpp"

namespace scalocate::nn {

namespace {

/// Upper bounds that keep a corrupt length prefix from turning into a
/// multi-gigabyte allocation before the stream's failbit is ever checked.
constexpr std::uint64_t kMaxNameBytes = 1u << 16;
constexpr std::uint64_t kMaxRank = 8;

template <typename T>
T checked_scalar(std::istream& is, const char* what) {
  const T value = io::read_scalar<T>(is);
  if (!is) throw IoError(std::string("module payload truncated reading ") + what);
  return value;
}

std::string checked_string(std::istream& is, const char* what) {
  const auto n = checked_scalar<std::uint64_t>(is, what);
  if (n > kMaxNameBytes)
    throw IoError(std::string("module payload corrupt length for ") + what);
  std::string s(static_cast<std::size_t>(n), '\0');
  if (n > 0) is.read(s.data(), static_cast<std::streamsize>(n));
  if (!is) throw IoError(std::string("module payload truncated reading ") + what);
  return s;
}

void checked_floats(std::istream& is, std::span<float> out, const char* what) {
  if (out.empty()) return;
  is.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(out.size() * sizeof(float)));
  if (!is) throw IoError(std::string("module payload truncated reading ") + what);
}

}  // namespace

void write_module_payload(std::ostream& os, const Layer& module) {
  const auto params = module.params();
  io::write_scalar<std::uint64_t>(os, params.size());
  for (const Param* p : params) {
    io::write_string(os, p->name);
    const auto& shape = p->value.shape();
    io::write_scalar<std::uint32_t>(os,
                                    static_cast<std::uint32_t>(shape.size()));
    for (std::size_t d : shape) io::write_scalar<std::uint64_t>(os, d);
    const auto flat = p->value.flat();
    os.write(reinterpret_cast<const char*>(flat.data()),
             static_cast<std::streamsize>(flat.size() * sizeof(float)));
  }
  const auto buffers = module.buffers();
  io::write_scalar<std::uint64_t>(os, buffers.size());
  for (const auto* b : buffers) {
    io::write_scalar<std::uint64_t>(os, b->size());
    if (!b->empty())
      os.write(reinterpret_cast<const char*>(b->data()),
               static_cast<std::streamsize>(b->size() * sizeof(float)));
  }
}

void read_module_payload(std::istream& is, Layer& module) {
  const auto params = module.params();
  const auto n_params = checked_scalar<std::uint64_t>(is, "parameter count");
  if (n_params != params.size())
    throw ShapeError("module payload architecture mismatch: payload has " +
                     std::to_string(n_params) + " parameters, module has " +
                     std::to_string(params.size()));
  for (Param* p : params) {
    const std::string name = checked_string(is, "parameter name");
    if (name != p->name)
      throw ShapeError("module payload architecture mismatch: expected "
                       "parameter '" +
                       p->name + "', payload has '" + name + "'");
    const auto rank = checked_scalar<std::uint32_t>(is, "parameter rank");
    if (rank > kMaxRank)
      throw IoError("module payload corrupt rank for parameter " + name);
    std::vector<std::size_t> shape(rank);
    for (auto& d : shape)
      d = static_cast<std::size_t>(
          checked_scalar<std::uint64_t>(is, "parameter dimension"));
    // The payload only ever fills the module's existing storage
    // (checked_floats below), so the shape equality is the complete guard:
    // no allocation is driven by the payload's declared sizes.
    if (shape != p->value.shape())
      throw ShapeError("module payload architecture mismatch for parameter '" +
                       name + "': payload shape differs from module shape " +
                       p->value.shape_string());
    checked_floats(is, p->value.flat(), name.c_str());
  }
  const auto buffers = module.buffers();
  const auto n_buffers = checked_scalar<std::uint64_t>(is, "buffer count");
  if (n_buffers != buffers.size())
    throw ShapeError("module payload architecture mismatch: payload has " +
                     std::to_string(n_buffers) + " buffers, module has " +
                     std::to_string(buffers.size()));
  for (auto* b : buffers) {
    const auto n = checked_scalar<std::uint64_t>(is, "buffer size");
    if (n != b->size())
      throw ShapeError(
          "module payload architecture mismatch: buffer size differs");
    checked_floats(is, std::span<float>(*b), "buffer data");
  }
}

ModuleState snapshot_module(const Layer& module) {
  ModuleState state;
  for (const Param* p : module.params())
    state.params.emplace_back(p->value.flat().begin(), p->value.flat().end());
  for (const auto* b : module.buffers()) state.buffers.push_back(*b);
  return state;
}

void restore_module(Layer& module, const ModuleState& state) {
  const auto params = module.params();
  detail::require(params.size() == state.params.size(),
                  "restore_module: parameter count mismatch");
  for (std::size_t i = 0; i < params.size(); ++i) {
    detail::require(state.params[i].size() == params[i]->value.numel(),
                    "restore_module: parameter size mismatch");
    std::copy(state.params[i].begin(), state.params[i].end(),
              params[i]->value.data());
  }
  const auto buffers = module.buffers();
  detail::require(buffers.size() == state.buffers.size(),
                  "restore_module: buffer count mismatch");
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    detail::require(state.buffers[i].size() == buffers[i]->size(),
                    "restore_module: buffer size mismatch");
    *buffers[i] = state.buffers[i];
  }
}

}  // namespace scalocate::nn
