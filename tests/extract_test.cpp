// Conformance suite for the polymorphic extractor layer: every registered
// backend, in both feature layouts, must honour the FeatureExtractor
// contract -- featureDim() is truthful for any window size, the
// cached-grid and block-grid slicing paths are bitwise-identical to
// standalone extraction, and batchFeatures matches the sequential loop at
// any thread count.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "extract/backends.hpp"
#include "extract/extractor.hpp"
#include "extract/registry.hpp"
#include "hog/hog.hpp"
#include "vision/synth.hpp"

namespace pcnn::extract {
namespace {

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : saved_(threadCount()) {
    setThreadCount(n);
  }
  ~ThreadCountGuard() { setThreadCount(saved_); }

 private:
  int saved_;
};

vision::Image texturedImage(int width, int height, std::uint64_t seed) {
  Rng rng(seed);
  return vision::valueNoise(width, height, 16, 0.5f, 0.4f, rng);
}

std::vector<vision::Image> texturedWindows(int count, std::uint64_t seed) {
  std::vector<vision::Image> windows;
  windows.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    windows.push_back(
        texturedImage(64, 128, seed + static_cast<std::uint64_t>(i)));
  }
  return windows;
}

/// Deterministic specs: extraction consumes no randomness, so every path
/// (standalone, cached-grid, batch at any thread count) must agree bitwise.
const std::vector<std::string>& deterministicSpecs() {
  static const std::vector<std::string> specs = {
      "hog", "fixedpoint", "napprox", "napprox:64spike", "parrot"};
  return specs;
}

const std::vector<FeatureLayout>& bothLayouts() {
  static const std::vector<FeatureLayout> layouts = {FeatureLayout::kFlatCell,
                                                     FeatureLayout::kBlockNorm};
  return layouts;
}

std::string caseName(const std::string& spec, FeatureLayout layout) {
  return spec + "/" + layoutName(layout);
}

/// The cellsX x cellsY cells of `grid` whose top-left cell is (cx0, cy0),
/// copied out as a standalone grid.
hog::CellGrid subGrid(const hog::CellGrid& grid, int cx0, int cy0,
                      int cellsX, int cellsY) {
  hog::CellGrid sub;
  sub.cellsX = cellsX;
  sub.cellsY = cellsY;
  sub.bins = grid.bins;
  for (int cy = 0; cy < cellsY; ++cy) {
    for (int cx = 0; cx < cellsX; ++cx) {
      const float* cell = grid.cell(cx0 + cx, cy0 + cy);
      sub.data.insert(sub.data.end(), cell, cell + grid.bins);
    }
  }
  return sub;
}

TEST(ExtractorConformance, FeatureDimMatchesActualVectorLength) {
  for (const vision::Image& window :
       {texturedImage(64, 128, 11), texturedImage(72, 136, 12)}) {
    for (const auto& spec : deterministicSpecs()) {
      for (FeatureLayout layout : bothLayouts()) {
        auto ex = makeExtractor(spec, layout);
        SCOPED_TRACE(caseName(spec, layout) + " " +
                     std::to_string(window.width()) + "x" +
                     std::to_string(window.height()));
        const auto features = ex->windowFeatures(window);
        EXPECT_EQ(static_cast<int>(features.size()), ex->featureDim());
        const int cells = ex->windowCellsX() * ex->windowCellsY();
        if (layout == FeatureLayout::kFlatCell) {
          EXPECT_EQ(ex->featureDim(), cells * ex->bins());
        } else {
          EXPECT_EQ(ex->featureDim(), (ex->windowCellsX() - 1) *
                                          (ex->windowCellsY() - 1) * 4 *
                                          ex->bins());
        }
        // A window larger than the detection window contributes exactly
        // its top-left cells: their histograms for the flat layout, their
        // 2x2 L2 blocks (the reference assembler) for the block layout.
        const hog::CellGrid sub = subGrid(ex->cellGrid(window), 0, 0,
                                          ex->windowCellsX(),
                                          ex->windowCellsY());
        if (layout == FeatureLayout::kFlatCell) {
          EXPECT_EQ(features, sub.data);
        } else {
          hog::HogParams blockParams;
          blockParams.numBins = ex->bins();
          const hog::HogExtractor assembler(blockParams);
          EXPECT_EQ(features, assembler.blocksFromGrid(sub));
        }
      }
    }
  }
}

TEST(ExtractorConformance, WindowFeaturesMatchesGridPathBitwise) {
  const vision::Image window = texturedImage(64, 128, 23);
  for (const auto& spec : deterministicSpecs()) {
    for (FeatureLayout layout : bothLayouts()) {
      auto ex = makeExtractor(spec, layout);
      SCOPED_TRACE(caseName(spec, layout));
      const auto direct = ex->windowFeatures(window);
      const auto viaGrid = ex->windowFromGrid(ex->cellGrid(window), 0, 0);
      EXPECT_EQ(direct, viaGrid);
    }
  }
}

TEST(ExtractorConformance, GridSlicingMatchesStandaloneSubgrid) {
  // A window sliced out of a big image's grid at cell offset (cx0, cy0)
  // must match assembling the corresponding sub-grid standalone: slicing
  // is pure indexing, independent of where the window sits in the level.
  const vision::Image scene = texturedImage(160, 224, 37);
  for (const auto& spec : deterministicSpecs()) {
    for (FeatureLayout layout : bothLayouts()) {
      auto ex = makeExtractor(spec, layout);
      SCOPED_TRACE(caseName(spec, layout));
      const hog::CellGrid grid = ex->cellGrid(scene);
      const int wx = ex->windowCellsX();
      const int wy = ex->windowCellsY();
      for (const auto& [cx0, cy0] : {std::pair{0, 0}, std::pair{3, 2},
                                    std::pair{grid.cellsX - wx,
                                              grid.cellsY - wy}}) {
        EXPECT_EQ(ex->windowFromGrid(grid, cx0, cy0),
                  ex->windowFromGrid(subGrid(grid, cx0, cy0, wx, wy), 0, 0))
            << "offset (" << cx0 << ", " << cy0 << ")";
      }
      if (layout != FeatureLayout::kBlockNorm) continue;
      // The detector's slicer over the level's prepared block grid agrees
      // with windowFromGrid at every window origin of the level.
      const hog::BlockGrid blocks = ex->prepareBlocks(grid);
      std::vector<float> fromBlocks;
      for (int cy0 = 0; cy0 + wy <= grid.cellsY; ++cy0) {
        for (int cx0 = 0; cx0 + wx <= grid.cellsX; ++cx0) {
          ex->windowFromBlocksInto(blocks, cx0, cy0, fromBlocks);
          ASSERT_EQ(fromBlocks, ex->windowFromGrid(grid, cx0, cy0))
              << "origin (" << cx0 << ", " << cy0 << ")";
        }
      }
    }
  }
}

TEST(ExtractorConformance, BatchMatchesSequentialLoopAtAnyThreadCount) {
  const auto windows = texturedWindows(6, 41);
  for (const auto& spec : deterministicSpecs()) {
    for (FeatureLayout layout : bothLayouts()) {
      SCOPED_TRACE(caseName(spec, layout));
      std::vector<std::vector<float>> sequential;
      {
        auto ex = makeExtractor(spec, layout);
        for (const auto& window : windows) {
          sequential.push_back(ex->windowFeatures(window));
        }
      }
      for (int threads : {1, 4}) {
        ThreadCountGuard guard(threads);
        auto ex = makeExtractor(spec, layout);
        EXPECT_EQ(ex->batchFeatures(windows), sequential)
            << threads << " threads";
      }
    }
  }
}

TEST(ExtractorConformance, StochasticParrotBatchIsThreadCountIndependent) {
  // A coding-noise realization depends only on the extractor's RNG stream
  // position, never on pool scheduling: two fresh identically-seeded
  // extractors produce the same batch at 1 and at 4 threads.
  const auto windows = texturedWindows(5, 53);
  std::vector<std::vector<float>> oneThread;
  {
    ThreadCountGuard guard(1);
    auto ex = makeExtractor("parrot:4spike", FeatureLayout::kFlatCell);
    oneThread = ex->batchFeatures(windows);
  }
  ThreadCountGuard guard(4);
  auto ex = makeExtractor("parrot:4spike", FeatureLayout::kFlatCell);
  EXPECT_EQ(ex->batchFeatures(windows), oneThread);
}

TEST(ExtractorRegistry, SpecVariantsConstructAndReportMetadata) {
  auto parrot4 = makeExtractor("parrot:4spike");
  EXPECT_EQ(parrot4->info().spikeWindow, 4);
  EXPECT_EQ(parrot4->info().coding, CodingScheme::kStochasticStream);

  auto napprox64 = makeExtractor("napprox:64spike");
  EXPECT_EQ(napprox64->info().spikeWindow, 64);
  EXPECT_EQ(napprox64->info().coding, CodingScheme::kRateAccumulate);

  auto fixed = makeExtractor("fixedpoint");
  EXPECT_TRUE(fixed->info().fpgaBaseline);
}

TEST(ExtractorRegistry, KnowsExactlyTheFourBackends) {
  const auto names = ExtractorRegistry::instance().names();
  EXPECT_EQ(names, (std::vector<std::string>{"fixedpoint", "hog", "napprox",
                                             "parrot"}));
  EXPECT_TRUE(ExtractorRegistry::instance().contains("parrot"));
  EXPECT_FALSE(ExtractorRegistry::instance().contains("resnet"));
}

TEST(ExtractorRegistry, RejectsUnknownSpecs) {
  EXPECT_THROW(makeExtractor("resnet"), std::invalid_argument);
  EXPECT_THROW(makeExtractor("hog:weird"), std::invalid_argument);
  EXPECT_THROW(makeExtractor("parrot:spike"), std::invalid_argument);
}

TEST(ExtractorPower, Table2RowsComeFromRegistryMetadata) {
  const auto rows = table2FromRegistry();
  ASSERT_EQ(rows.size(), table2Specs().size());
  // Row 0 is the FPGA baseline at its measured 8.6 W system power.
  EXPECT_NEAR(rows[0].watts, 8.6, 1e-6);
  // Software-only extractors report no hardware deployment.
  EXPECT_FALSE(makeExtractor("hog")->powerEstimate().has_value());
  EXPECT_FALSE(makeExtractor("napprox")->powerEstimate().has_value());
  EXPECT_TRUE(makeExtractor("parrot:32spike")->powerEstimate().has_value());
}

TEST(ExtractorPower, ResourceBudgetDerivesFromInfo) {
  const auto budget =
      core::makeResourceBudget(makeExtractor("parrot:4spike")->info());
  EXPECT_EQ(budget.parrotCoresPerCell, 8);  // the paper's per-cell count
  EXPECT_EQ(budget.parrotExtractorCores(), 1024);
  EXPECT_EQ(budget.combinedCores(), 3888);
}

}  // namespace
}  // namespace pcnn::extract
