// Model checkpointing.
//
// One persistent format lives here: the self-describing payload
// (write_module_payload / read_module_payload). Every parameter is written
// with its name and full shape, so a reader can validate the architecture
// field-by-field and report structured errors. It is the weight section of
// the versioned model artifacts (api/artifact), which also carry the
// calibration a weights-only file would lose.
#pragma once

#include <iosfwd>
#include <vector>

#include "nn/layer.hpp"

namespace scalocate::nn {

/// Writes the module's parameters (name + shape + data) and buffers to the
/// stream. Deterministic: the same module state always produces the same
/// bytes.
void write_module_payload(std::ostream& os, const Layer& module);

/// Reads a payload written by write_module_payload into a module of the
/// SAME architecture. Throws IoError when the stream ends or fails
/// mid-payload (truncation) and ShapeError when the payload disagrees with
/// the module (parameter count, name, rank, or dimension mismatch) — the
/// artifact loader maps these to its structured error types.
void read_module_payload(std::istream& is, Layer& module);

/// In-memory snapshot of a module's learnable state (used by the trainer's
/// keep-the-best-validation-model logic, Section IV-B).
struct ModuleState {
  std::vector<std::vector<float>> params;
  std::vector<std::vector<float>> buffers;
};

ModuleState snapshot_module(const Layer& module);
void restore_module(Layer& module, const ModuleState& state);

}  // namespace scalocate::nn
