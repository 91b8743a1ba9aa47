#include "core/detector.hpp"

#include <stdexcept>
#include <utility>

#include "common/parallel.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"

namespace pcnn::core {

namespace {

/// Scan-stage instruments shared by every detector instance.
struct DetectMetrics {
  obs::Counter& windowsScanned = obs::counter("windows_scanned");
  obs::Counter& pyramidLevels = obs::counter("pyramid_levels");
  obs::Counter& gridCacheHits = obs::counter("grid_cache_hits");
  obs::Counter& scenes = obs::counter("detect.scenes");
  obs::Counter& levelsDegraded = obs::counter("detect.level.degraded");
  obs::Counter& windowsLost = obs::counter("detect.windows_lost");
  /// Levels deliberately shed (DetectOptions::skipFinestLevels) and levels
  /// abandoned by a deadline/cancel hook -- deliberate quality loss, kept
  /// separate from the failure-driven detect.level.degraded counter.
  obs::Counter& levelsShed = obs::counter("detect.level.shed");
  obs::Counter& levelsExpired = obs::counter("detect.level.deadline");
  static DetectMetrics& instance() {
    static DetectMetrics m;
    return m;
  }
};

/// Windows a level image would contribute, estimated from its dimensions
/// (used when the level's grid never materialized).
long expectedLevelWindows(const vision::Image& image,
                          const GridDetectorParams& params) {
  const int cellsX = image.width() / params.cellSize;
  const int cellsY = image.height() / params.cellSize;
  const long spanX = cellsX - params.windowCellsX + 1;
  const long spanY = cellsY - params.windowCellsY + 1;
  if (spanX <= 0 || spanY <= 0) return 0;
  return spanX * spanY;
}

}  // namespace

GridDetector::GridDetector(const GridDetectorParams& params,
                           std::shared_ptr<extract::FeatureExtractor> extractor,
                           WindowScorer scorer)
    : params_(params),
      featureExtractor_(std::move(extractor)),
      scorer_(std::move(scorer)) {
  if (!featureExtractor_ || !scorer_) {
    throw std::invalid_argument("GridDetector: null extractor or scorer");
  }
  cellGridUs_ = &obs::histogram("extract." + featureExtractor_->name() +
                                ".cell_grid_us");
  params_.cellSize = featureExtractor_->cellSize();
  params_.windowCellsX = featureExtractor_->windowCellsX();
  params_.windowCellsY = featureExtractor_->windowCellsY();
}

bool GridDetector::scoreWindow(const hog::CellGrid& grid,
                               const hog::BlockGrid& blocks, int wx, int wy,
                               std::vector<float>& features,
                               float& score) const {
  try {
    if (featureExtractor_->layout() == extract::FeatureLayout::kBlockNorm) {
      featureExtractor_->windowFromBlocksInto(blocks, wx, wy, features);
    } else {
      features = featureExtractor_->windowFromGrid(grid, wx, wy);
    }
    score = scorer_(features);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

std::vector<vision::Detection> GridDetector::detectRaw(
    const vision::Image& scene) const {
  return detectRaw(scene, params_.scoreThreshold);
}

std::vector<vision::Detection> GridDetector::detectRaw(
    const vision::Image& scene, float scoreThreshold) const {
  return detectRaw(scene, scoreThreshold, nullptr);
}

std::vector<vision::Detection> GridDetector::detectRaw(
    const vision::Image& scene, float scoreThreshold,
    DegradationReport* report) const {
  return detectRaw(scene, scoreThreshold, report, DetectOptions{});
}

std::vector<vision::Detection> GridDetector::detectRaw(
    const vision::Image& scene, float scoreThreshold,
    DegradationReport* report, const DetectOptions& options) const {
  PCNN_SPAN("detect.detectRaw");
  DetectMetrics& metrics = DetectMetrics::instance();
  metrics.scenes.add();
  const tn::FaultCounts faultsBefore =
      report != nullptr ? tn::globalFaultCounts() : tn::FaultCounts{};
  std::vector<vision::Detection> detections;
  vision::PyramidParams pp = params_.pyramid;
  pp.minWidth = params_.windowCellsX * params_.cellSize;
  pp.minHeight = params_.windowCellsY * params_.cellSize;
  std::vector<vision::PyramidLevel> levels;
  {
    PCNN_SPAN("detect.pyramid");
    levels = vision::buildPyramid(scene, pp);
  }
  metrics.pyramidLevels.add(static_cast<long>(levels.size()));

  const bool blockPath =
      featureExtractor_->layout() == extract::FeatureLayout::kBlockNorm;

  long levelIndex = -1;
  bool abandoned = false;  // a cancel/deadline hook fired; shed the rest
  for (const vision::PyramidLevel& level : levels) {
    ++levelIndex;
    // Deliberate shedding (the serving layer's coarser-pyramid rung):
    // the finest levels are the most expensive and are given up first,
    // attributed as kUnavailable so the caller can see exactly what
    // quality was traded away.
    if (levelIndex < options.skipFinestLevels) {
      metrics.levelsShed.add();
      if (report != nullptr) {
        report->addSkip(static_cast<int>(levelIndex),
                        expectedLevelWindows(level.image, params_),
                        Status::Unavailable("detect: level shed by caller"));
      }
      continue;
    }
    // Deadline enforcement between pyramid levels: once the hook fires,
    // every remaining level is abandoned and attributed; detections from
    // completed levels survive.
    if (!abandoned && options.cancel && options.cancel()) abandoned = true;
    if (abandoned) {
      metrics.levelsExpired.add();
      if (report != nullptr) {
        report->addSkip(static_cast<int>(levelIndex),
                        expectedLevelWindows(level.image, params_),
                        Status::DeadlineExceeded(
                            "detect: level abandoned past deadline"));
      }
      continue;
    }
    PCNN_SPAN_ARG("detect.level", "level", levelIndex);
    // The grid is extracted once per level (extractors may be stateful, so
    // this stays on the calling thread); every window over the level then
    // shares it. Block-norm extractors also normalize every block exactly
    // once here -- adjacent windows overlap by all but one cell column, so
    // the per-window path would redo each block's normalization for each
    // of the up to 4 windows covering it. Rows are scored on the pool,
    // each collecting into its own bucket, and buckets are concatenated in
    // row order afterwards so the output is identical to the sequential
    // scan for any thread count.
    // A level whose grid cannot be produced -- a backend failure, a
    // poisoned image, a simulator fault -- degrades the scene rather than
    // aborting it: the level is skipped, accounted, and the scan goes on.
    auto skipLevel = [&](Status status) {
      PCNN_SPAN_ARG("detect.level.degraded", "level", levelIndex);
      obs::noteFaultEvent("detect.level.degraded");
      metrics.levelsDegraded.add();
      const long lost = expectedLevelWindows(level.image, params_);
      if (lost > 0) metrics.windowsLost.add(lost);
      if (report != nullptr) {
        report->addSkip(static_cast<int>(levelIndex), lost, std::move(status));
      }
    };
    hog::CellGrid grid;
    {
      PCNN_SPAN("detect.cellGrid");
      obs::ScopedTimer timer(cellGridUs());
      StatusOr<hog::CellGrid> gridOr =
          featureExtractor_->tryCellGrid(level.image);
      if (!gridOr.ok()) {
        skipLevel(gridOr.status());
        continue;
      }
      grid = std::move(gridOr).value();
    }
    hog::BlockGrid blocks;
    if (blockPath) {
      PCNN_SPAN("detect.blockGrid");
      try {
        blocks = featureExtractor_->prepareBlocks(grid);
      } catch (const std::exception& e) {
        skipLevel(Status::Internal(std::string("prepareBlocks: ") + e.what()));
        continue;
      }
    }
    const int maxCy = grid.cellsY - params_.windowCellsY;
    const int maxCx = grid.cellsX - params_.windowCellsX;
    if (maxCy < 0 || maxCx < 0) continue;
    // Every window on this level slices the one cached grid instead of
    // recomputing its cells -- each is one grid-cache hit.
    const long levelWindows =
        static_cast<long>(maxCy + 1) * static_cast<long>(maxCx + 1);
    metrics.windowsScanned.add(levelWindows);
    metrics.gridCacheHits.add(levelWindows);
    PCNN_SPAN_ARG("detect.scan", "windows", levelWindows);
    std::vector<std::vector<vision::Detection>> rows(
        static_cast<std::size_t>(maxCy) + 1);
    // Per-row loss tallies: rows are scanned concurrently, so each row
    // counts its own dropped windows and the tallies are summed after the
    // barrier -- deterministic for any thread count.
    std::vector<long> rowWindowsLost(static_cast<std::size_t>(maxCy) + 1, 0);
    auto scanRow = [&](long cy) {
      std::vector<vision::Detection>& row =
          rows[static_cast<std::size_t>(cy)];
      std::vector<float> features;
      for (int cx = 0; cx <= maxCx; ++cx) {
        float score;
        if (!scoreWindow(grid, blocks, cx, static_cast<int>(cy), features,
                         score)) {
          ++rowWindowsLost[static_cast<std::size_t>(cy)];
          continue;
        }
        if (score < scoreThreshold) continue;
        vision::Detection det;
        det.score = score;
        det.box.x = static_cast<float>(cx * params_.cellSize) * level.scale;
        det.box.y = static_cast<float>(static_cast<int>(cy) *
                                       params_.cellSize) *
                    level.scale;
        det.box.w = static_cast<float>(params_.windowCellsX *
                                       params_.cellSize) *
                    level.scale;
        det.box.h = static_cast<float>(params_.windowCellsY *
                                       params_.cellSize) *
                    level.scale;
        row.push_back(det);
      }
    };
    if (params_.parallelScan) {
      parallelFor(0, maxCy + 1, scanRow);
    } else {
      for (int cy = 0; cy <= maxCy; ++cy) scanRow(cy);
    }
    for (const auto& row : rows) {
      detections.insert(detections.end(), row.begin(), row.end());
    }
    long levelWindowsLost = 0;
    for (long lost : rowWindowsLost) levelWindowsLost += lost;
    if (levelWindowsLost > 0) {
      metrics.windowsLost.add(levelWindowsLost);
      if (report != nullptr) report->windowsLost += levelWindowsLost;
    }
  }
  if (report != nullptr) {
    report->faults = tn::globalFaultCounts() - faultsBefore;
  }
  return detections;
}

std::vector<vision::Detection> GridDetector::detect(
    const vision::Image& scene) const {
  return detect(scene, params_.scoreThreshold);
}

std::vector<vision::Detection> GridDetector::detect(
    const vision::Image& scene, float scoreThreshold) const {
  return detect(scene, scoreThreshold, nullptr);
}

std::vector<vision::Detection> GridDetector::detect(
    const vision::Image& scene, float scoreThreshold,
    DegradationReport* report) const {
  return detect(scene, scoreThreshold, report, DetectOptions{});
}

std::vector<vision::Detection> GridDetector::detect(
    const vision::Image& scene, float scoreThreshold,
    DegradationReport* report, const DetectOptions& options) const {
  std::vector<vision::Detection> raw =
      detectRaw(scene, scoreThreshold, report, options);
  PCNN_SPAN_ARG("detect.nms", "candidates", raw.size());
  return vision::nonMaximumSuppression(std::move(raw), params_.nmsEpsilon);
}

}  // namespace pcnn::core
