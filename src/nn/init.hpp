// Weight initialization (He/Kaiming for ReLU networks).
#pragma once

#include "common/rng.hpp"
#include "nn/layer.hpp"

namespace scalocate::nn {

/// He-normal initialization of a conv/linear weight tensor: the fan-in is
/// inferred from the shape ([Cout, Cin, K] -> Cin*K, [Fout, Fin] -> Fin).
void he_normal_init(Tensor& weight, Rng& rng);

/// Initializes every parameter of a module: He-normal for weights with
/// rank >= 2, zeros for rank-1 biases (batch-norm gamma/beta keep their
/// constructor values because their names start with "bn.").
void init_module(Layer& module, Rng& rng);

}  // namespace scalocate::nn
