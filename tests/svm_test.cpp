#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/rng.hpp"
#include "extract/extractor.hpp"
#include "hog/hog.hpp"
#include "svm/linear_svm.hpp"
#include "svm/mining.hpp"
#include "svm/serialize.hpp"
#include "vision/synth.hpp"

namespace pcnn::svm {
namespace {

TEST(LinearSvm, RejectsBadInput) {
  LinearSvm svm;
  EXPECT_THROW(svm.train({}, {}), std::invalid_argument);
  EXPECT_THROW(svm.train({{1.0f}}, {2}), std::invalid_argument);
  EXPECT_THROW(svm.train({{1.0f}, {1.0f, 2.0f}}, {1, -1}),
               std::invalid_argument);
  SvmParams params;
  params.C = 0.0;
  EXPECT_THROW(LinearSvm{params}, std::invalid_argument);
}

TEST(LinearSvm, SeparatesTrivialData) {
  LinearSvm svm;
  std::vector<std::vector<float>> x = {{2.0f}, {1.5f}, {-1.0f}, {-2.5f}};
  std::vector<int> y = {1, 1, -1, -1};
  svm.train(x, y);
  EXPECT_TRUE(svm.trained());
  EXPECT_DOUBLE_EQ(svm.accuracy(x, y), 1.0);
  EXPECT_GT(svm.decision({3.0f}), 0.0);
  EXPECT_LT(svm.decision({-3.0f}), 0.0);
}

TEST(LinearSvm, LearnsBiasedHyperplane) {
  // Separable at x > 5, so a bias is required.
  LinearSvm svm;
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 40; ++i) {
    const float v = static_cast<float>(i) * 0.25f;
    x.push_back({v});
    y.push_back(v > 5.0f ? 1 : -1);
  }
  svm.train(x, y);
  // The boundary sample at v = 5.0 may fall on the margin; everything
  // else must classify correctly.
  EXPECT_GE(svm.accuracy(x, y), 0.95);
}

TEST(LinearSvm, MarginMaximisation2D) {
  // Canonical 2-point problem: w = (1,0), margin at x=0.
  LinearSvm svm;
  SvmParams params;
  params.C = 100.0;
  params.maxIterations = 2000;
  LinearSvm strict(params);
  strict.train({{1.0f, 0.0f}, {-1.0f, 0.0f}}, {1, -1});
  EXPECT_NEAR(strict.weights()[0], 1.0, 0.05);
  EXPECT_NEAR(strict.weights()[1], 0.0, 0.05);
  EXPECT_NEAR(strict.bias(), 0.0, 0.05);
}

TEST(LinearSvm, NoisyDataStillMostlyCorrect) {
  pcnn::Rng rng(3);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 300; ++i) {
    const bool positive = i % 2 == 0;
    std::vector<float> f(10);
    for (auto& v : f) {
      v = static_cast<float>(rng.normal()) +
          (positive ? 0.8f : -0.8f);
    }
    x.push_back(std::move(f));
    y.push_back(positive ? 1 : -1);
  }
  LinearSvm svm;
  svm.train(x, y);
  EXPECT_GT(svm.accuracy(x, y), 0.9);
}

TEST(LinearSvm, DecisionDimensionCheck) {
  LinearSvm svm;
  svm.train({{1.0f, 0.0f}, {-1.0f, 0.0f}}, {1, -1});
  EXPECT_THROW(svm.decision({1.0f}), std::invalid_argument);
}

TEST(LinearSvm, UntrainedDecisionThrows) {
  // An untrained model has no hyperplane: scoring must fail loudly rather
  // than return the zero bias and call every window a person.
  LinearSvm svm;
  ASSERT_FALSE(svm.trained());
  EXPECT_THROW(svm.decision({}), std::logic_error);
  EXPECT_THROW(svm.decision({1.0f}), std::logic_error);
  EXPECT_THROW(svm.predict({}), std::logic_error);
  svm.setModel({}, 0.5);
  EXPECT_THROW(svm.decision({}), std::logic_error);
}

/// The documented score order (DESIGN.md 5j), one scalar operation at a
/// time: 8 strided double lanes, lane k summing the terms d = k (mod 8) in
/// ascending d, the fixed reduction tree, then the bias.
double referenceDecision(const std::vector<double>& w,
                         const std::vector<float>& x, double bias) {
  double lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t d = 0; d < w.size(); ++d) {
    const double product = w[d] * static_cast<double>(x[d]);
    lane[d % 8] = lane[d % 8] + product;
  }
  const double l01 = lane[0] + lane[1];
  const double l23 = lane[2] + lane[3];
  const double l45 = lane[4] + lane[5];
  const double l67 = lane[6] + lane[7];
  const double lo = l01 + l23;
  const double hi = l45 + l67;
  const double dot = lo + hi;
  return dot + bias;
}

TEST(LinearSvm, DecisionIsTheDocumentedLaneOrderBitwise) {
  // decision runs its x86-64-v3 clone on an AVX2 host, while this file is
  // built without clones: any FMA contraction or different reduction in
  // the kernel shows up as a last-bit mismatch here.
  Rng rng(42);
  for (std::size_t dim : {1u, 7u, 8u, 9u, 3780u, 7560u, 7563u}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<double> w(dim);
      for (double& v : w) v = rng.normal(0.0, 0.3);
      const double bias = rng.uniform(-2.0, 2.0);
      LinearSvm svm;
      svm.setModel(w, bias);
      std::vector<float> x(dim);
      for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      const double got = svm.decision(x);
      const double want = referenceDecision(w, x, bias);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << "dim " << dim << " trial " << trial << ": " << got
          << " != " << want;
    }
  }
}

TEST(Serialize, RoundTripPreservesDecisions) {
  LinearSvm model;
  model.train({{1.0f, 0.2f}, {0.5f, -1.0f}, {-1.0f, 0.1f}, {-0.4f, 1.0f}},
              {1, 1, -1, -1});
  std::stringstream buffer;
  ASSERT_TRUE(trySaveModel(model, buffer).ok());
  StatusOr<LinearSvm> loaded = tryLoadModel(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
  const LinearSvm restored = std::move(loaded).value();
  for (float a : {-1.0f, 0.0f, 0.7f}) {
    for (float b : {-0.5f, 0.3f}) {
      EXPECT_DOUBLE_EQ(model.decision({a, b}), restored.decision({a, b}));
    }
  }
  EXPECT_DOUBLE_EQ(restored.params().C, model.params().C);
}

TEST(Serialize, UntrainedModelRejected) {
  LinearSvm model;
  std::stringstream buffer;
  EXPECT_EQ(trySaveModel(model, buffer).code(),
            pcnn::StatusCode::kFailedPrecondition);
}

TEST(Serialize, BadHeaderIsDataLoss) {
  std::stringstream buffer("not-a-model 3");
  EXPECT_EQ(tryLoadModel(buffer).status().code(), pcnn::StatusCode::kDataLoss);
}

TEST(Serialize, FileRoundTrip) {
  LinearSvm model;
  model.train({{2.0f}, {-2.0f}}, {1, -1});
  const std::string path = "/tmp/pcnn_test_svm_model.txt";
  ASSERT_TRUE(trySaveModelFile(model, path).ok());
  StatusOr<LinearSvm> loaded = tryLoadModelFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
  EXPECT_DOUBLE_EQ(model.decision({1.5f}), loaded.value().decision({1.5f}));
  std::remove(path.c_str());
}

/// A one-pixel-cell extractor: each cell is its pixel's intensity, so a
/// window's flat-cell features are its pixels in row-major order and any
/// pixel-aligned stride is cell-aligned.
class PixelExtractor : public extract::FeatureExtractor {
 public:
  PixelExtractor(int windowW, int windowH)
      : FeatureExtractor("pixels", extract::FeatureLayout::kFlatCell, 1,
                         windowW, windowH, /*cellSize=*/1) {}

  hog::CellGrid cellGrid(const vision::Image& image) override {
    return hog::CellGrid{image.width(), image.height(), 1, image.data()};
  }
  extract::ExtractorInfo info() const override { return {}; }
};

TEST(Mining, RequiresBothClasses) {
  LinearSvm svm;
  PixelExtractor extractor(2, 2);
  EXPECT_THROW(
      trainWithHardNegatives(svm, extractor, {}, {vision::Image(2, 2)}, {}),
      std::invalid_argument);
  EXPECT_THROW(
      trainWithHardNegatives(svm, extractor, {vision::Image(2, 2)}, {}, {}),
      std::invalid_argument);
}

TEST(Mining, MinesFalsePositivesAndImproves) {
  // Tiny synthetic setup: features are 8x16 windows flattened (one-pixel
  // cells); positives are bright-centre windows.
  pcnn::Rng rng(5);
  auto makeWindow = [&](bool positive) {
    vision::Image img(8, 16, 0.2f);
    for (int y = 4; y < 12; ++y) {
      for (int x = 2; x < 6; ++x) {
        img.at(x, y) = positive ? 0.9f : 0.25f;
      }
    }
    for (float& v : img.data()) {
      v += 0.05f * static_cast<float>(rng.normal());
    }
    return img;
  };
  std::vector<vision::Image> pos, neg, scenes;
  for (int i = 0; i < 30; ++i) pos.push_back(makeWindow(true));
  for (int i = 0; i < 30; ++i) neg.push_back(makeWindow(false));
  // Negative scenes containing decoys that replicate the positive pattern:
  // by construction the initial SVM scores them high, so mining must find
  // and absorb them.
  for (int i = 0; i < 2; ++i) {
    vision::Image scene(32, 48, 0.2f);
    const vision::Image decoy = makeWindow(true);
    // On the scan grid so the initial model is guaranteed to fire on it.
    for (int y = 0; y < 16; ++y) {
      for (int x = 0; x < 8; ++x) {
        scene.at(8 + x, 16 + y) = decoy.at(x, y);
      }
    }
    scenes.push_back(scene);
  }

  MiningParams params;
  params.mineThreshold = -0.5f;  // mine near-boundary windows too
  params.scan.windowWidth = 8;
  params.scan.windowHeight = 16;
  params.scan.strideX = 4;
  params.scan.strideY = 4;
  params.scan.pyramid.minWidth = 8;
  params.scan.pyramid.minHeight = 16;
  params.scan.pyramid.maxLevels = 1;
  PixelExtractor extractor(8, 16);

  // Baseline without mining for comparison.
  LinearSvm baseline;
  MiningParams noMining = params;
  noMining.rounds = 0;
  trainWithHardNegatives(baseline, extractor, pos, neg, scenes, noMining);

  LinearSvm svm;
  const MiningResult result =
      trainWithHardNegatives(svm, extractor, pos, neg, scenes, params);
  EXPECT_GT(result.minedNegatives, 0);
  EXPECT_GT(result.finalTrainAccuracy, 0.8);

  // Mining must lower the scene windows' decision values overall.
  auto maxSceneScore = [&](const LinearSvm& model) {
    double best = -1e9;
    // The same grid scan mining runs.
    vision::forEachWindowOnGrid(
        scenes[0], params.scan, extractor.cellSize(),
        [&](const vision::Image& level) { return extractor.cellGrid(level); },
        [&](const vision::Image&, const hog::CellGrid& grid, int cx0, int cy0,
            const vision::Rect&, const vision::Rect&) {
          best = std::max(best,
                          model.decision(extractor.windowFromGrid(grid, cx0,
                                                                  cy0)));
        });
    return best;
  };
  EXPECT_LT(maxSceneScore(svm), maxSceneScore(baseline));
}

}  // namespace
}  // namespace pcnn::svm
