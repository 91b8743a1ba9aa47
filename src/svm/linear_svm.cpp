#include "svm/linear_svm.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/target_clones.hpp"

namespace pcnn::svm {

namespace {

/// w.x as 8 strided double lanes -- lane k sums the terms d = k (mod 8) in
/// ascending d -- reduced as ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)). This
/// order is the definition of the score (DESIGN.md 5j): the lanes are
/// independent chains both clones vectorize without reassociating, and
/// the file is built with -ffp-contract=off so neither clone fuses a
/// multiply-add. Every clone therefore returns the same bits.
PCNN_TARGET_CLONES
double laneDot(const double* w, const float* x, std::size_t n) {
  constexpr std::size_t kLanes = 8;
  double lane[kLanes] = {};
  std::size_t d = 0;
  for (; d + kLanes <= n; d += kLanes) {
    for (std::size_t k = 0; k < kLanes; ++k) {
      lane[k] += w[d + k] * static_cast<double>(x[d + k]);
    }
  }
  for (std::size_t k = 0; d + k < n; ++k) {
    lane[k] += w[d + k] * static_cast<double>(x[d + k]);
  }
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

}  // namespace

LinearSvm::LinearSvm(const SvmParams& params) : params_(params) {
  if (params.C <= 0.0) {
    throw std::invalid_argument("LinearSvm: C must be positive");
  }
}

void LinearSvm::train(const std::vector<std::vector<float>>& features,
                      const std::vector<int>& labels) {
  if (features.empty() || features.size() != labels.size()) {
    throw std::invalid_argument("LinearSvm::train: bad dataset shape");
  }
  const std::size_t n = features.size();
  const std::size_t dim = features.front().size();
  for (const auto& row : features) {
    if (row.size() != dim) {
      throw std::invalid_argument("LinearSvm::train: ragged features");
    }
  }
  for (int label : labels) {
    if (label != 1 && label != -1) {
      throw std::invalid_argument("LinearSvm::train: labels must be +-1");
    }
  }

  // Augmented weight vector: [w ; b / biasScale].
  std::vector<double> w(dim + 1, 0.0);
  std::vector<double> alpha(n, 0.0);
  std::vector<double> qii(n);
  for (std::size_t i = 0; i < n; ++i) {
    double q = params_.biasScale * params_.biasScale;
    for (float v : features[i]) q += static_cast<double>(v) * v;
    qii[i] = q > 0.0 ? q : 1.0;
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(params_.seed);

  for (int pass = 0; pass < params_.maxIterations; ++pass) {
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<int>(i) - 1))]);
    }
    double maxViolation = 0.0;
    for (std::size_t idx : order) {
      const auto& x = features[idx];
      const double y = labels[idx];
      double wx = w[dim] * params_.biasScale;
      for (std::size_t d = 0; d < dim; ++d) {
        wx += w[d] * static_cast<double>(x[d]);
      }
      const double gradient = y * wx - 1.0;
      double projected = gradient;
      if (alpha[idx] <= 0.0) {
        projected = std::min(gradient, 0.0);
      } else if (alpha[idx] >= params_.C) {
        projected = std::max(gradient, 0.0);
      }
      maxViolation = std::max(maxViolation, std::abs(projected));
      if (projected == 0.0) continue;
      const double oldAlpha = alpha[idx];
      alpha[idx] =
          std::clamp(oldAlpha - gradient / qii[idx], 0.0, params_.C);
      const double delta = (alpha[idx] - oldAlpha) * y;
      if (delta == 0.0) continue;
      for (std::size_t d = 0; d < dim; ++d) {
        w[d] += delta * static_cast<double>(x[d]);
      }
      w[dim] += delta * params_.biasScale;
    }
    if (maxViolation < params_.tolerance) break;
  }

  weights_.assign(w.begin(), w.begin() + static_cast<long>(dim));
  bias_ = w[dim] * params_.biasScale;
}

double LinearSvm::decision(const std::vector<float>& features) const {
  if (!trained()) {
    throw std::logic_error("LinearSvm::decision: model is not trained");
  }
  if (features.size() != weights_.size()) {
    throw std::invalid_argument("LinearSvm::decision: dimension mismatch");
  }
  return laneDot(weights_.data(), features.data(), features.size()) + bias_;
}

double LinearSvm::accuracy(const std::vector<std::vector<float>>& features,
                           const std::vector<int>& labels) const {
  if (features.empty() || features.size() != labels.size()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (predict(features[i]) == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(features.size());
}

}  // namespace pcnn::svm
