// GridDetector's single-scene path and the level scan core both paths
// share: the level gate, the degraded-level skip, the full level scan into
// a score plane, the row-parallel window rescoring, and the one emitter
// that turns a score plane into detections. The temporal path
// (detector_batch.cpp) reuses every piece, so the two paths cannot drift
// apart.

#include "core/detector.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "common/parallel.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"

namespace pcnn::core {

namespace {

/// Scan-stage instruments shared by every detector instance and both scan
/// paths.
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

/// Score-plane value of a window whose assembly or scoring failed: below
/// every threshold, so the emitter drops it.
constexpr float kLostScore = -std::numeric_limits<float>::infinity();

long levelWindows(const auto& level) {
  return static_cast<long>(level.spanX) * static_cast<long>(level.spanY);
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
}

std::vector<GridDetector::Level> GridDetector::buildLevels(
    const vision::Image& scene) const {
  vision::PyramidParams pp = params_.pyramid;
  pp.minWidth = featureExtractor_->windowCellsX() * params_.cellSize;
  pp.minHeight = featureExtractor_->windowCellsY() * params_.cellSize;
  std::vector<vision::PyramidLevel> pyramid;
  {
    PCNN_SPAN("detect.pyramid");
    pyramid = vision::buildPyramid(scene, pp);
  }
  std::vector<Level> levels(pyramid.size());
  for (std::size_t li = 0; li < pyramid.size(); ++li) {
    Level& level = levels[li];
    level.image = std::move(pyramid[li].image);
    level.scale = pyramid[li].scale;
    level.spanX = level.image.width() / params_.cellSize -
                  featureExtractor_->windowCellsX() + 1;
    level.spanY = level.image.height() / params_.cellSize -
                  featureExtractor_->windowCellsY() + 1;
  }
  return levels;
}

bool GridDetector::admitLevel(int levelIndex, Level& level,
                              const DetectOptions& options, bool& abandoned,
                              DegradationReport* report) const {
  DetectMetrics& metrics = DetectMetrics::instance();
  // Deliberate shedding (the serving layer's coarser-pyramid rung): the
  // finest levels are the most expensive and are given up first,
  // attributed as kUnavailable so the caller can see exactly what quality
  // was traded away. Deadline enforcement between pyramid levels: once the
  // hook fires, every remaining level is abandoned and attributed;
  // detections from completed levels survive. A skipped level's grids go
  // stale against a live stream, so it is invalidated.
  Status status;
  if (levelIndex < options.skipFinestLevels) {
    metrics.levelsShed.add();
    status = Status::Unavailable("detect: level shed by caller");
  } else {
    if (!abandoned && options.cancel && options.cancel()) abandoned = true;
    if (!abandoned) return true;
    metrics.levelsExpired.add();
    status = Status::DeadlineExceeded("detect: level abandoned past deadline");
  }
  level.valid = false;
  if (report != nullptr) {
    report->addSkip(levelIndex, levelWindows(level), std::move(status));
  }
  return false;
}

void GridDetector::skipLevel(int levelIndex, Level& level, Status status,
                             DegradationReport* report) const {
  PCNN_SPAN_ARG("detect.level.degraded", "level", levelIndex);
  obs::noteFaultEvent("detect.level.degraded");
  DetectMetrics& metrics = DetectMetrics::instance();
  metrics.levelsDegraded.add();
  metrics.windowsLost.add(levelWindows(level));
  level.valid = false;  // rebuilt from scratch when next scanned
  if (report != nullptr) {
    report->addSkip(levelIndex, levelWindows(level), std::move(status));
  }
}

bool GridDetector::scanLevel(int levelIndex, Level& level,
                             DegradationReport* report) const {
  // The grid is extracted once per level (extractors may be stateful, so
  // this stays on the calling thread); every window over the level then
  // shares it. Block-norm extractors also normalize every block exactly
  // once here -- adjacent windows overlap by all but one cell column, so
  // the per-window path would redo each block's normalization for each of
  // the up to 4 windows covering it. A level whose grid cannot be produced
  // -- a backend failure, a poisoned image, a simulator fault -- degrades
  // the scene rather than aborting it: the level is skipped, accounted,
  // and the scan goes on.
  {
    PCNN_SPAN("detect.cellGrid");
    obs::ScopedTimer timer(*cellGridUs_);
    StatusOr<hog::CellGrid> gridOr =
        featureExtractor_->tryCellGrid(level.image);
    if (!gridOr.ok()) {
      skipLevel(levelIndex, level, gridOr.status(), report);
      return false;
    }
    level.grid = std::move(gridOr).value();
  }
  if (featureExtractor_->layout() == extract::FeatureLayout::kBlockNorm) {
    PCNN_SPAN("detect.blockGrid");
    try {
      level.blocks = featureExtractor_->prepareBlocks(level.grid);
    } catch (const std::exception& e) {
      skipLevel(levelIndex, level,
                Status::Internal(std::string("prepareBlocks: ") + e.what()),
                report);
      return false;
    }
  }
  level.scores.resize(static_cast<std::size_t>(levelWindows(level)));
  scoreWindows(level, {}, report);
  level.valid = true;
  return true;
}

long GridDetector::scoreWindows(Level& level,
                                const std::function<bool(int, int)>& selected,
                                DegradationReport* report) const {
  PCNN_SPAN_ARG("detect.scan", "windows", levelWindows(level));
  // Per-row tallies: rows are scored concurrently, so each row counts its
  // own windows and the tallies are summed after the barrier --
  // deterministic for any thread count.
  std::vector<long> rowScored(static_cast<std::size_t>(level.spanY), 0);
  std::vector<long> rowLost(static_cast<std::size_t>(level.spanY), 0);
  parallelFor(0, level.spanY, [&](long wy) {
    float* row = level.scores.data() +
                 static_cast<std::size_t>(wy) *
                     static_cast<std::size_t>(level.spanX);
    std::vector<float> features;
    for (int wx = 0; wx < level.spanX; ++wx) {
      if (selected && !selected(wx, static_cast<int>(wy))) continue;
      ++rowScored[static_cast<std::size_t>(wy)];
      if (!scoreWindow(level.grid, level.blocks, wx, static_cast<int>(wy),
                       features, row[wx])) {
        row[wx] = kLostScore;
        ++rowLost[static_cast<std::size_t>(wy)];
      }
    }
  });
  long scored = 0, lost = 0;
  for (long n : rowScored) scored += n;
  for (long n : rowLost) lost += n;
  if (lost > 0) {
    DetectMetrics::instance().windowsLost.add(lost);
    if (report != nullptr) report->windowsLost += lost;
  }
  return scored;
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

void GridDetector::emitLevelDetections(
    const Level& level, std::vector<vision::Detection>& out) const {
  const int cell = params_.cellSize;
  const float winW = static_cast<float>(featureExtractor_->windowCellsX() *
                                        cell) *
                     level.scale;
  const float winH = static_cast<float>(featureExtractor_->windowCellsY() *
                                        cell) *
                     level.scale;
  for (int wy = 0; wy < level.spanY; ++wy) {
    const float* row = level.scores.data() +
                       static_cast<std::size_t>(wy) *
                           static_cast<std::size_t>(level.spanX);
    for (int wx = 0; wx < level.spanX; ++wx) {
      if (row[wx] < params_.scoreThreshold) continue;
      vision::Detection det;
      det.score = row[wx];
      det.box.x = static_cast<float>(wx * cell) * level.scale;
      det.box.y = static_cast<float>(wy * cell) * level.scale;
      det.box.w = winW;
      det.box.h = winH;
      out.push_back(det);
    }
  }
}

std::vector<vision::Detection> GridDetector::detectRaw(
    const vision::Image& scene, const DetectOptions& options,
    DegradationReport* report) const {
  PCNN_SPAN("detect.detectRaw");
  const FaultAttribution faults(report);
  DetectMetrics& metrics = DetectMetrics::instance();
  metrics.scenes.add();
  std::vector<Level> levels = buildLevels(scene);
  metrics.pyramidLevels.add(static_cast<long>(levels.size()));
  std::vector<vision::Detection> detections;
  bool abandoned = false;  // a cancel/deadline hook fired; shed the rest
  for (std::size_t li = 0; li < levels.size(); ++li) {
    const int levelIndex = static_cast<int>(li);
    Level& level = levels[li];
    if (!admitLevel(levelIndex, level, options, abandoned, report)) continue;
    PCNN_SPAN_ARG("detect.level", "level", levelIndex);
    if (!scanLevel(levelIndex, level, report)) continue;
    // Every window on this level sliced the one cached grid instead of
    // recomputing its cells -- each is one grid-cache hit.
    metrics.windowsScanned.add(levelWindows(level));
    metrics.gridCacheHits.add(levelWindows(level));
    emitLevelDetections(level, detections);
    level = Level{};  // only the detections outlive the level's scan
  }
  return detections;
}

std::vector<vision::Detection> GridDetector::detect(
    const vision::Image& scene, const DetectOptions& options,
    DegradationReport* report) const {
  std::vector<vision::Detection> raw = detectRaw(scene, options, report);
  PCNN_SPAN_ARG("detect.nms", "candidates", raw.size());
  return vision::nonMaximumSuppression(std::move(raw), params_.nmsEpsilon);
}

}  // namespace pcnn::core
