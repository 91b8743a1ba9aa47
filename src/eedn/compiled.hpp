#pragma once

#include <cstdint>
#include <vector>

#include "nn/sequential.hpp"

namespace pcnn::eedn {

/// Deployment-weight inference plan compiled from a Sequential of
/// TrinaryDense / PartitionedDense / SpikingThreshold layers.
///
/// The training path re-trinarizes every hidden float weight on every
/// forward() call (so training always sees the deployment function); at
/// inference that work is pure waste -- the parrot extractor alone was
/// re-projecting ~54k weights per cell. Compiling turns each output row
/// into its ascending list of nonzero taps (input index and sign) once,
/// and evaluates a batch in column tiles of at most 64 samples: a tile
/// runs through every stage before the next starts, and each row of a
/// tile is one register-resident signed sum (DESIGN.md 5l).
///
/// Bitwise contract: for each (sample, output) pair the accumulation
/// starts from the layer bias and adds/subtracts inputs in ascending
/// input order -- the exact float operation sequence of
/// TrinaryDense::forward -- so results are bit-identical to
/// net.forward(sample, false) per sample. Gated by the CompiledTrinaryNet
/// parity tests in tests/eedn_test.cpp (the parrot layer stack and a net
/// of edge rows, at batch sizes around the lane and tile widths, at 1 and
/// 4 pool threads).
///
/// The plan is a snapshot: callers must rebuild after any weight change
/// (ParrotHog invalidates on train() and mutable net() access).
class CompiledTrinaryNet {
 public:
  explicit CompiledTrinaryNet(const nn::Sequential& net);

  int inputSize() const { return inputSize_; }
  int outputSize() const { return outputSize_; }

  /// Evaluates `count` samples. `input` is a feature-major plane of
  /// inputSize() rows by `count` columns (input[i * count + s] = feature i
  /// of sample s); the returned plane has outputSize() rows in the same
  /// layout. Column tiles are split over the global thread pool; every
  /// sample's column is computed independently, so results are
  /// thread-count invariant.
  std::vector<float> forwardBatch(const std::vector<float>& input,
                                  int count) const;

 private:
  /// One trinary bank reading rows [inputOffset, inputOffset + inputSize)
  /// of the stage input plane and writing rows starting at outputOffset.
  /// Row j's nonzero weights are taps[rowStart[j], rowStart[j + 1]) in
  /// ascending input order, each (input index << 1) | (weight == -1).
  struct DenseGroup {
    int inputOffset = 0;
    int outputOffset = 0;
    std::vector<std::uint16_t> taps;
    std::vector<std::uint32_t> rowStart;
    std::vector<float> biases;
  };
  /// One dense stage (a TrinaryDense, or every group of a
  /// PartitionedDense) plus an optional fused SpikingThreshold.
  struct Stage {
    int inputSize = 0;
    int outputSize = 0;
    bool thresholdAfter = false;
    std::vector<DenseGroup> groups;
  };

  std::vector<Stage> stages_;
  int inputSize_ = 0;
  int outputSize_ = 0;
  int maxWidth_ = 0;  ///< widest stage activation, sizes the tile planes
};

}  // namespace pcnn::eedn
