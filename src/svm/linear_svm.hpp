#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace pcnn::svm {

/// Training parameters of the linear SVM.
struct SvmParams {
  double C = 1.0;            ///< soft-margin cost
  int maxIterations = 200;   ///< outer passes of dual coordinate descent
  double tolerance = 1e-4;   ///< projected-gradient stopping criterion
  double biasScale = 1.0;    ///< features are augmented with this constant
  std::uint64_t seed = 3;
};

/// L2-regularized L1-loss (hinge) linear SVM trained by dual coordinate
/// descent -- the LIBLINEAR algorithm, standing in for the LIBSVM linear
/// classifiers the paper trains on HoG features (Sec. 4).
class LinearSvm {
 public:
  explicit LinearSvm(const SvmParams& params = {});

  /// Trains on row features with labels +1/-1. Throws on shape mismatch or
  /// empty input. Retraining from scratch is intended (hard-negative
  /// mining rounds call this repeatedly).
  void train(const std::vector<std::vector<float>>& features,
             const std::vector<int>& labels);

  /// Decision value w.x + b (positive = person), with w.x summed in the
  /// fixed 8-lane order of DESIGN.md 5j. Throws std::logic_error on an
  /// untrained model and std::invalid_argument on a dimension mismatch.
  double decision(const std::vector<float>& features) const;

  int predict(const std::vector<float>& features) const {
    return decision(features) >= 0.0 ? 1 : -1;
  }

  double accuracy(const std::vector<std::vector<float>>& features,
                  const std::vector<int>& labels) const;

  bool trained() const { return !weights_.empty(); }
  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }
  const SvmParams& params() const { return params_; }

  /// Installs an externally provided hyperplane (deserialization). The
  /// model becomes inference-ready; training from here starts fresh.
  void setModel(std::vector<double> weights, double bias) {
    weights_ = std::move(weights);
    bias_ = bias;
  }

 private:
  SvmParams params_;
  std::vector<double> weights_;
  double bias_ = 0.0;
};

}  // namespace pcnn::svm
