#include "eedn/compiled.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/parallel.hpp"
#include "common/target_clones.hpp"
#include "eedn/partitioned.hpp"
#include "eedn/trinary.hpp"

namespace pcnn::eedn {
namespace {

/// A tile holds at most kTileColumns samples, padded to whole kLanes
/// blocks. Its accumulators stay in registers across all of a row's taps
/// (eight ymm registers in the AVX clone), so a row reads its taps once
/// per tile.
constexpr int kLanes = 8;
constexpr int kTileColumns = 64;
/// Tap indices carry the sign in bit 0, so a bank may read 2^15 inputs.
constexpr int kMaxBankInputs = 1 << 15;

/// rowTile over a tile of exactly `Blocks` lane blocks. The file is built
/// with -fno-loop-unroll-and-jam: GCC would otherwise jam pairs of taps
/// into a scalar loop that keeps the accumulators in memory.
template <int Blocks>
[[gnu::always_inline]] inline void rowPass(const std::uint16_t* taps, int n,
                                           float bias, const float* in,
                                           int stride, bool threshold,
                                           float* out) {
  // Indexed, not a conditional: a tap's sign is data, and a branch on it
  // would mispredict about half the time.
  static constexpr float kSign[2] = {1.0f, -1.0f};
  constexpr int kColumns = Blocks * kLanes;
  float acc[kColumns];
  for (int k = 0; k < kColumns; ++k) acc[k] = bias;
  for (int t = 0; t < n; ++t) {
    const float* x = in + static_cast<std::size_t>(taps[t] >> 1) * stride;
    const float sign = kSign[taps[t] & 1];
    for (int k = 0; k < kColumns; ++k) acc[k] += x[k] * sign;
  }
  for (int k = 0; k < kColumns; ++k) {
    out[k] = threshold ? (acc[k] >= 0.0f ? 1.0f : 0.0f) : acc[k];
  }
}

/// One output row over one tile of `stride` columns (a multiple of kLanes,
/// at most kTileColumns): out[s] = bias, then +/- in[tap][s] for each of
/// the row's n taps in ascending input order, then the optional
/// threshold. `acc + x * (-1)` is bitwise `acc - x` (IEEE 754 defines
/// x - y as x + (-y), and the product is exact, so a fused multiply-add
/// rounds once to the same value). Every operation is lane-wise, so
/// padding columns never reach real ones.
PCNN_TARGET_CLONES
void rowTile(const std::uint16_t* taps, int n, float bias, const float* in,
             int stride, bool threshold, float* out) {
  static_assert(kTileColumns == 8 * kLanes, "one case per block count");
  switch (stride / kLanes) {
    case 8: return rowPass<8>(taps, n, bias, in, stride, threshold, out);
    case 7: return rowPass<7>(taps, n, bias, in, stride, threshold, out);
    case 6: return rowPass<6>(taps, n, bias, in, stride, threshold, out);
    case 5: return rowPass<5>(taps, n, bias, in, stride, threshold, out);
    case 4: return rowPass<4>(taps, n, bias, in, stride, threshold, out);
    case 3: return rowPass<3>(taps, n, bias, in, stride, threshold, out);
    case 2: return rowPass<2>(taps, n, bias, in, stride, threshold, out);
    default: return rowPass<1>(taps, n, bias, in, stride, threshold, out);
  }
}

}  // namespace

CompiledTrinaryNet::CompiledTrinaryNet(const nn::Sequential& net) {
  auto compileBank = [](const TrinaryDense& layer, int inputOffset,
                        int outputOffset) {
    if (layer.inputSize() > kMaxBankInputs) {
      throw std::invalid_argument(
          "CompiledTrinaryNet: a dense bank reads more than 32768 inputs");
    }
    DenseGroup group;
    group.inputOffset = inputOffset;
    group.outputOffset = outputOffset;
    group.rowStart.push_back(0);
    for (int j = 0; j < layer.outputSize(); ++j) {
      for (int i = 0; i < layer.inputSize(); ++i) {
        const int w = layer.effectiveWeight(j, i);
        if (w != 0) {
          group.taps.push_back(static_cast<std::uint16_t>(i << 1 | (w < 0)));
        }
      }
      group.rowStart.push_back(static_cast<std::uint32_t>(group.taps.size()));
      group.biases.push_back(layer.bias(j));
    }
    return group;
  };

  for (std::size_t l = 0; l < net.layerCount(); ++l) {
    const nn::Layer& layer = net.layer(l);
    if (const auto* dense = dynamic_cast<const TrinaryDense*>(&layer)) {
      Stage stage;
      stage.inputSize = dense->inputSize();
      stage.outputSize = dense->outputSize();
      stage.groups.push_back(compileBank(*dense, 0, 0));
      stages_.push_back(std::move(stage));
    } else if (const auto* part =
                   dynamic_cast<const PartitionedDense*>(&layer)) {
      Stage stage;
      stage.inputSize = part->inputSize();
      stage.outputSize = part->outputSize();
      for (int g = 0; g < part->groupCount(); ++g) {
        const PartitionedDense::GroupView view = part->group(g);
        stage.groups.push_back(compileBank(*view.layer, view.inputOffset,
                                           g * part->outputsPerGroup()));
      }
      stages_.push_back(std::move(stage));
    } else if (dynamic_cast<const SpikingThreshold*>(&layer) != nullptr) {
      if (stages_.empty() || stages_.back().thresholdAfter) {
        throw std::invalid_argument(
            "CompiledTrinaryNet: SpikingThreshold must follow a dense stage");
      }
      stages_.back().thresholdAfter = true;
    } else {
      throw std::invalid_argument(
          "CompiledTrinaryNet: unsupported layer type");
    }
  }
  if (stages_.empty()) {
    throw std::invalid_argument("CompiledTrinaryNet: empty network");
  }
  inputSize_ = stages_.front().inputSize;
  outputSize_ = stages_.back().outputSize;
  for (const Stage& stage : stages_) {
    maxWidth_ = std::max(maxWidth_, std::max(stage.inputSize,
                                             stage.outputSize));
  }
}

std::vector<float> CompiledTrinaryNet::forwardBatch(
    const std::vector<float>& input, int count) const {
  if (count < 0 ||
      input.size() != static_cast<std::size_t>(inputSize_) * count) {
    throw std::invalid_argument(
        "CompiledTrinaryNet::forwardBatch: input plane size mismatch");
  }
  std::vector<float> output(static_cast<std::size_t>(outputSize_) * count);
  if (count == 0) return output;

  // Each chunk of tiles owns its two ping-pong planes; a tile's plane rows
  // are `stride` (its width padded to whole lane blocks) floats apart. The
  // input is copied in with zeroed padding, and only real columns are
  // copied out, so tiles are independent and results do not depend on
  // the chunking.
  const auto padded = [](int columns) {
    return (columns + kLanes - 1) / kLanes * kLanes;
  };
  const int tiles = (count + kTileColumns - 1) / kTileColumns;
  parallelForChunked(0, tiles, suggestedGrain(tiles), [&](long t0, long t1) {
    std::vector<float> planes(2 * static_cast<std::size_t>(maxWidth_) *
                              padded(std::min(count, kTileColumns)));
    for (long t = t0; t < t1; ++t) {
      const int lo = static_cast<int>(t) * kTileColumns;
      const int width = std::min(kTileColumns, count - lo);
      const int stride = padded(width);
      float* src = planes.data();
      float* dst = src + static_cast<std::size_t>(maxWidth_) * stride;
      for (int i = 0; i < inputSize_; ++i) {
        const float* from =
            input.data() + static_cast<std::size_t>(i) * count + lo;
        float* row = src + static_cast<std::size_t>(i) * stride;
        std::copy(from, from + width, row);
        std::fill(row + width, row + stride, 0.0f);
      }
      for (const Stage& stage : stages_) {
        for (const DenseGroup& group : stage.groups) {
          const float* in =
              src + static_cast<std::size_t>(group.inputOffset) * stride;
          for (std::size_t j = 0; j < group.biases.size(); ++j) {
            const std::uint32_t begin = group.rowStart[j];
            rowTile(group.taps.data() + begin,
                    static_cast<int>(group.rowStart[j + 1] - begin),
                    group.biases[j], in, stride, stage.thresholdAfter,
                    dst + (group.outputOffset + j) * stride);
          }
        }
        std::swap(src, dst);
      }
      for (int r = 0; r < outputSize_; ++r) {
        const float* row = src + static_cast<std::size_t>(r) * stride;
        std::copy(row, row + width,
                  output.data() + static_cast<std::size_t>(r) * count + lo);
      }
    }
  });
  return output;
}

}  // namespace pcnn::eedn
