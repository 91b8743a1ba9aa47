// GridDetector::detectBatch -- the video-rate detection path. A burst of
// same-sized frames shares the pyramid geometry and, when temporal reuse
// is on, persistent per-level cell grids, block grids, and window scores:
// each frame diffs against the previous one at tile granularity and only
// the dirty tiles recompute their cell histograms, affected block
// normalizations, and window scores. The reference per-frame path
// (PCNN_TEMPORAL=off) stays bitwise-identical to detect().
//
// Why the reused scan matches the full scan bitwise (deterministic
// backends; see DESIGN.md Section 5g for the full argument):
//  - resizeBilinearInto refreshes level pixels with the exact per-pixel
//    arithmetic of resizeBilinear, and pixels outside every refreshed
//    rect were computed from unchanged source pixels;
//  - cell histograms depend only on the cell's pixels plus a 1-px
//    gradient border, and tryUpdateCellGrid recomputes with one cell of
//    context (extended to the image border at grid edges, where clamping
//    then behaves identically);
//  - each 2x2 block depends only on its own cells; updateBlocks dilates
//    the dirty cell set by one cell left/up;
//  - a window's score depends only on its covered cells, and every window
//    covering a dirty cell is rescored (clean windows keep the cached
//    score the full scan would recompute to the same bits);
//  - detections are emitted from the score grid in the same row-major
//    level order as the sequential scan, so NMS sees an identical input.

#include "core/detector.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/env.hpp"
#include "common/parallel.hpp"
#include "core/temporal.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"

namespace pcnn::core {

namespace {

/// Batch-stage instruments shared by every detector instance.
struct BatchMetrics {
  obs::Counter& frames = obs::counter("detect.frames");
  obs::Counter& tilesReused = obs::counter("detect.tiles_reused");
  obs::Counter& tilesRecomputed = obs::counter("detect.tiles_recomputed");
  obs::Counter& windowsRescored = obs::counter("detect.windows_rescored");
  obs::Counter& windowsReused = obs::counter("detect.windows_reused");
  obs::Counter& levelsDegraded = obs::counter("detect.level.degraded");
  obs::Counter& windowsLost = obs::counter("detect.windows_lost");
  /// Deliberate quality loss (shed / deadline-abandoned levels), kept
  /// separate from failure-driven degradation. Shared names with the
  /// single-scene path in detector.cpp (the registry hands back the same
  /// counters).
  obs::Counter& levelsShed = obs::counter("detect.level.shed");
  obs::Counter& levelsExpired = obs::counter("detect.level.deadline");
  /// Fraction of tiles served from the temporal cache on the most recent
  /// frame, and the most recent frame's instantaneous rate; both are
  /// live-telemetry signals for the streaming exporter.
  obs::Gauge& tileHitRate = obs::gauge("detect.tile_hit_rate");
  obs::Gauge& frameFps = obs::gauge("detect.frame_fps");
  obs::LatencyHistogram& frameUs = obs::histogram("detect.frame_us");
  static BatchMetrics& instance() {
    static BatchMetrics m;
    return m;
  }
};

constexpr float kLostScore = -std::numeric_limits<float>::infinity();

inline int ceilDiv(int a, int b) { return (a + b - 1) / b; }

/// A half-open pixel rectangle (dirty-region bookkeeping).
struct PxRect {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
};

}  // namespace

/// Everything detectBatch keeps alive between frames. One per detector;
/// sized by the first frame's pyramid.
struct GridDetector::TemporalCache {
  explicit TemporalCache(const TemporalSmootherParams& smootherParams)
      : smoother(smootherParams) {}

  struct Level {
    vision::Image image;     ///< the level's (resized) pixels
    float scale = 1.0f;      ///< level-to-scene coordinate scale
    hog::CellGrid grid;      ///< persistent cell histograms
    hog::BlockGrid blocks;   ///< persistent normalized blocks (kBlockNorm)
    std::vector<float> scores;  ///< spanY * spanX cached window scores
    int spanX = 0;
    int spanY = 0;
    bool valid = false;      ///< false -> full recompute next frame
  };

  vision::Image scene;       ///< the previous frame, for tile diffing
  std::vector<Level> levels;
  bool valid = false;        ///< pyramid geometry initialized and current
  TemporalSmoother smoother;
};

void GridDetector::TemporalCacheDeleter::operator()(
    TemporalCache* cache) const {
  delete cache;
}

GridDetector::~GridDetector() = default;

void GridDetector::resetTemporalCache() { temporal_.reset(); }

namespace {

/// Appends the level's above-threshold windows in row-major order --
/// the same order the sequential scan emits, which is what keeps the NMS
/// input identical between the cached and full paths.
void emitLevelDetections(const auto& lc,
                         const GridDetectorParams& params, float threshold,
                         std::vector<vision::Detection>& out) {
  const float cellPx = static_cast<float>(params.cellSize) * lc.scale;
  const float winW =
      static_cast<float>(params.windowCellsX * params.cellSize) * lc.scale;
  const float winH =
      static_cast<float>(params.windowCellsY * params.cellSize) * lc.scale;
  for (int wy = 0; wy < lc.spanY; ++wy) {
    const float* row =
        lc.scores.data() + static_cast<std::size_t>(wy) * lc.spanX;
    for (int wx = 0; wx < lc.spanX; ++wx) {
      if (row[wx] < threshold) continue;
      vision::Detection det;
      det.score = row[wx];
      det.box.x = static_cast<float>(wx) * cellPx;
      det.box.y = static_cast<float>(wy) * cellPx;
      det.box.w = winW;
      det.box.h = winH;
      out.push_back(det);
    }
  }
}

/// Diffs two same-sized frames at tile granularity. Whole rows are
/// compared first (one memcmp per row -- almost every row of a
/// mostly-static scene is untouched); only rows that differ get per-tile
/// segment checks. Returns the dirty bitmap (tilesY x tilesX, row-major).
std::vector<std::uint8_t> diffSceneTiles(const vision::Image& prev,
                                         const vision::Image& next,
                                         int tilePx, int tilesX, int tilesY) {
  std::vector<std::uint8_t> dirty(
      static_cast<std::size_t>(tilesX) * tilesY, 0);
  const int w = prev.width();
  const int h = prev.height();
  const float* a = prev.data().data();
  const float* b = next.data().data();
  for (int y = 0; y < h; ++y) {
    const float* ra = a + static_cast<std::size_t>(y) * w;
    const float* rb = b + static_cast<std::size_t>(y) * w;
    if (std::memcmp(ra, rb, sizeof(float) * static_cast<std::size_t>(w)) ==
        0) {
      continue;
    }
    std::uint8_t* tileRow =
        dirty.data() + static_cast<std::size_t>(y / tilePx) * tilesX;
    for (int tx = 0; tx < tilesX; ++tx) {
      if (tileRow[tx]) continue;
      const int x0 = tx * tilePx;
      const int x1 = x0 + tilePx < w ? x0 + tilePx : w;
      if (std::memcmp(ra + x0, rb + x0,
                      sizeof(float) * static_cast<std::size_t>(x1 - x0)) !=
          0) {
        tileRow[tx] = 1;
      }
    }
  }
  return dirty;
}

/// Merges horizontal runs of dirty tiles into pixel rectangles.
std::vector<PxRect> dirtyTileRuns(const std::vector<std::uint8_t>& dirty,
                                  int tilePx, int tilesX, int tilesY,
                                  int width, int height) {
  std::vector<PxRect> rects;
  for (int ty = 0; ty < tilesY; ++ty) {
    const std::uint8_t* row =
        dirty.data() + static_cast<std::size_t>(ty) * tilesX;
    int tx = 0;
    while (tx < tilesX) {
      if (!row[tx]) {
        ++tx;
        continue;
      }
      int end = tx;
      while (end < tilesX && row[end]) ++end;
      PxRect r;
      r.x0 = tx * tilePx;
      r.x1 = end * tilePx < width ? end * tilePx : width;
      r.y0 = ty * tilePx;
      r.y1 = (ty + 1) * tilePx < height ? (ty + 1) * tilePx : height;
      rects.push_back(r);
      tx = end;
    }
  }
  return rects;
}

/// Maps a dirty scene rect into the level's pixel space, conservatively
/// covering every level pixel whose bilinear support touches the rect
/// (plus a 1-px guard for float rounding).
PxRect mapRectToLevel(const PxRect& r, const vision::Image& scene,
                      const vision::Image& level) {
  const float sx = static_cast<float>(scene.width()) / level.width();
  const float sy = static_cast<float>(scene.height()) / level.height();
  PxRect out;
  out.x0 = static_cast<int>(std::floor(
               (static_cast<float>(r.x0) - 0.5f) / sx - 0.5f)) -
           1;
  out.y0 = static_cast<int>(std::floor(
               (static_cast<float>(r.y0) - 0.5f) / sy - 0.5f)) -
           1;
  out.x1 = static_cast<int>(std::ceil(
               (static_cast<float>(r.x1) + 0.5f) / sx - 0.5f)) +
           1;
  out.y1 = static_cast<int>(std::ceil(
               (static_cast<float>(r.y1) + 0.5f) / sy - 0.5f)) +
           1;
  out.x0 = out.x0 > 0 ? out.x0 : 0;
  out.y0 = out.y0 > 0 ? out.y0 : 0;
  out.x1 = out.x1 < level.width() ? out.x1 : level.width();
  out.y1 = out.y1 < level.height() ? out.y1 : level.height();
  return out;
}

}  // namespace

BatchDetectResult GridDetector::detectBatch(
    const std::vector<vision::Image>& frames) {
  return detectBatch(frames, BatchOptions{}, nullptr);
}

BatchDetectResult GridDetector::detectBatch(
    const std::vector<vision::Image>& frames, const BatchOptions& options,
    std::vector<DegradationReport>* reports) {
  return detectBatch(static_cast<int>(frames.size()),
                     [&frames](int index) {
                       return frames[static_cast<std::size_t>(index)];
                     },
                     options, reports);
}

BatchDetectResult GridDetector::detectBatch(int numFrames,
                                            const FrameProvider& frames) {
  return detectBatch(numFrames, frames, BatchOptions{}, nullptr);
}

BatchDetectResult GridDetector::detectBatch(
    int numFrames, const FrameProvider& frames, const BatchOptions& options,
    std::vector<DegradationReport>* reports) {
  PCNN_SPAN_ARG("detect.batch", "frames", numFrames);
  BatchMetrics& metrics = BatchMetrics::instance();
  const bool temporalOn =
      params_.temporal.enabled && env::flag("PCNN_TEMPORAL", true);
  const bool smoothOn = temporalOn && params_.temporal.smooth;
  BatchDetectResult result;
  result.temporalEnabled = temporalOn;
  result.frames.reserve(static_cast<std::size_t>(numFrames > 0 ? numFrames
                                                               : 0));
  if (reports != nullptr) {
    reports->assign(static_cast<std::size_t>(numFrames > 0 ? numFrames : 0),
                    DegradationReport{});
  }
  if (!temporal_) {
    TemporalSmootherParams sp;
    sp.alpha = params_.temporal.smoothingAlpha;
    sp.matchIou = params_.temporal.matchIou;
    temporal_.reset(new TemporalCache(sp));
  }
  for (int f = 0; f < numFrames; ++f) {
    const vision::Image frame = frames(f);
    PCNN_SPAN_ARG("detect.frame", "frame", f);
    metrics.frames.add();
    const bool measure = obs::metricsEnabled();
    const double frameStartUs = measure ? obs::nowMicros() : 0.0;
    DegradationReport* report =
        reports != nullptr ? &(*reports)[static_cast<std::size_t>(f)]
                           : nullptr;
    const double deadlineUs =
        static_cast<std::size_t>(f) < options.deadlineUs.size()
            ? options.deadlineUs[static_cast<std::size_t>(f)]
            : 0.0;
    FrameResult fr;
    if (!temporalOn) {
      // The reference path: exactly the single-scene pipeline per frame
      // (bitwise-identical detections at any thread count, no smoothing).
      fr.stats.fullRecompute = true;
      DetectOptions frameOptions = options.detect;
      if (deadlineUs > 0.0) {
        // Fold the frame's absolute deadline into the cancel hook, which
        // detectRaw polls between pyramid levels.
        std::function<bool()> userCancel = frameOptions.cancel;
        frameOptions.cancel = [userCancel, deadlineUs]() {
          return (userCancel && userCancel()) ||
                 obs::nowMicros() > deadlineUs;
        };
      }
      fr.detections =
          detect(frame, params_.scoreThreshold, report, frameOptions);
    } else {
      const tn::FaultCounts faultsBefore =
          report != nullptr ? tn::globalFaultCounts() : tn::FaultCounts{};
      std::vector<vision::Detection> raw = detectFrameTemporal(
          frame, fr.stats, options.detect, deadlineUs, report);
      if (report != nullptr) {
        report->faults = tn::globalFaultCounts() - faultsBefore;
      }
      {
        PCNN_SPAN_ARG("detect.nms", "candidates", raw.size());
        fr.detections = vision::nonMaximumSuppression(std::move(raw),
                                                      params_.nmsEpsilon);
      }
      if (smoothOn) {
        fr.detections = temporal_->smoother.apply(fr.detections);
      }
    }
    if (measure) {
      const double frameUs = obs::nowMicros() - frameStartUs;
      metrics.frameUs.record(frameUs);
      metrics.frameFps.set(frameUs > 0.0 ? 1e6 / frameUs : 0.0);
      const long tiles = fr.stats.tilesReused + fr.stats.tilesRecomputed;
      if (tiles > 0) {
        metrics.tileHitRate.set(static_cast<double>(fr.stats.tilesReused) /
                                static_cast<double>(tiles));
      }
    }
    result.frames.push_back(std::move(fr));
  }
  return result;
}

std::vector<vision::Detection> GridDetector::detectFrameTemporal(
    const vision::Image& frame, FrameStats& stats,
    const DetectOptions& options, double deadlineUs,
    DegradationReport* report) {
  BatchMetrics& metrics = BatchMetrics::instance();
  TemporalCache& cache = *temporal_;
  const float threshold = params_.scoreThreshold;
  const bool blockPath =
      featureExtractor_->layout() == extract::FeatureLayout::kBlockNorm;
  const int cell = params_.cellSize;
  const int tileCells =
      params_.temporal.tileCells > 0 ? params_.temporal.tileCells : 1;
  const int tilePx = tileCells * cell;
  std::vector<vision::Detection> detections;

  // Cold start (or a stream whose dimensions changed): rebuild the
  // pyramid geometry; every level then takes the full-compute branch.
  const bool cold = !cache.valid || cache.scene.width() != frame.width() ||
                    cache.scene.height() != frame.height();
  if (cold) {
    cache.levels.clear();
    vision::PyramidParams pp = params_.pyramid;
    pp.minWidth = params_.windowCellsX * cell;
    pp.minHeight = params_.windowCellsY * cell;
    std::vector<vision::PyramidLevel> pyramid;
    {
      PCNN_SPAN("detect.pyramid");
      pyramid = vision::buildPyramid(frame, pp);
    }
    cache.levels.resize(pyramid.size());
    for (std::size_t li = 0; li < pyramid.size(); ++li) {
      cache.levels[li].image = std::move(pyramid[li].image);
      cache.levels[li].scale = pyramid[li].scale;
      cache.levels[li].valid = false;
    }
    stats.fullRecompute = true;
  }

  // Tile-granular scene diff (warm frames only).
  std::vector<PxRect> sceneDirty;
  if (!cold) {
    const int tilesX = ceilDiv(frame.width(), tilePx);
    const int tilesY = ceilDiv(frame.height(), tilePx);
    const std::vector<std::uint8_t> dirtyTiles =
        diffSceneTiles(cache.scene, frame, tilePx, tilesX, tilesY);
    sceneDirty = dirtyTileRuns(dirtyTiles, tilePx, tilesX, tilesY,
                               frame.width(), frame.height());
  }

  // Rescores the windows of a level that `selected(wx, wy)` picks into
  // its score grid. Rows run on the pool, each a disjoint score slice with
  // its own feature buffer and tallies, so the result is deterministic for
  // any thread count. A lost window keeps kLostScore.
  auto rescoreWindows = [&](TemporalCache::Level& lc, auto selected,
                            long& rescored, long& lost) {
    std::vector<long> rowRescored(static_cast<std::size_t>(lc.spanY), 0);
    std::vector<long> rowLost(static_cast<std::size_t>(lc.spanY), 0);
    auto rescanRow = [&](long wy) {
      float* row =
          lc.scores.data() + static_cast<std::size_t>(wy) * lc.spanX;
      std::vector<float> features;
      for (int wx = 0; wx < lc.spanX; ++wx) {
        if (!selected(wx, static_cast<int>(wy))) continue;
        ++rowRescored[static_cast<std::size_t>(wy)];
        if (!scoreWindow(lc.grid, lc.blocks, wx, static_cast<int>(wy),
                         features, row[wx])) {
          row[wx] = kLostScore;
          ++rowLost[static_cast<std::size_t>(wy)];
        }
      }
    };
    if (params_.parallelScan) {
      parallelFor(0, lc.spanY, rescanRow);
    } else {
      for (int wy = 0; wy < lc.spanY; ++wy) rescanRow(wy);
    }
    for (long r : rowRescored) rescored += r;
    for (long l : rowLost) lost += l;
  };

  long levelIndex = -1;
  bool abandoned = false;  // the deadline/cancel hook fired mid-frame
  for (TemporalCache::Level& lc : cache.levels) {
    ++levelIndex;
    PCNN_SPAN_ARG("detect.level", "level", levelIndex);
    const int cellsX = lc.image.width() / cell;
    const int cellsY = lc.image.height() / cell;
    const int tilesAcross = ceilDiv(cellsX, tileCells);
    const int tilesDown = ceilDiv(cellsY, tileCells);
    const long levelTiles = static_cast<long>(tilesAcross) * tilesDown;
    lc.spanX = cellsX - params_.windowCellsX + 1;
    lc.spanY = cellsY - params_.windowCellsY + 1;
    if (lc.spanX <= 0 || lc.spanY <= 0) continue;
    const long levelWindowSpan =
        static_cast<long>(lc.spanX) * static_cast<long>(lc.spanY);

    // Deliberate shedding and deadline abandonment (the serving ladder).
    // A skipped level's cached grid goes stale against the live stream, so
    // it is invalidated and rebuilds from the current frame when the
    // ladder re-enables it.
    if (levelIndex < options.skipFinestLevels) {
      metrics.levelsShed.add();
      lc.valid = false;
      if (report != nullptr) {
        report->addSkip(static_cast<int>(levelIndex), levelWindowSpan,
                        Status::Unavailable("detect: level shed by caller"));
      }
      continue;
    }
    if (!abandoned &&
        ((options.cancel && options.cancel()) ||
         (deadlineUs > 0.0 && obs::nowMicros() > deadlineUs))) {
      abandoned = true;
    }
    if (abandoned) {
      metrics.levelsExpired.add();
      lc.valid = false;
      if (report != nullptr) {
        report->addSkip(static_cast<int>(levelIndex), levelWindowSpan,
                        Status::DeadlineExceeded(
                            "detect: level abandoned past deadline"));
      }
      continue;
    }

    auto skipLevel = [&](Status status) {
      PCNN_SPAN_ARG("detect.level.degraded", "level", levelIndex);
      obs::noteFaultEvent("detect.level.degraded");
      metrics.levelsDegraded.add();
      lc.valid = false;  // rebuilt from scratch on the next frame
      if (report != nullptr) {
        report->addSkip(static_cast<int>(levelIndex), levelWindowSpan,
                        std::move(status));
      }
    };

    if (!lc.valid) {
      // Full compute: cold cache, or the level was invalidated by a
      // failed incremental update or a shed/abandoned scan. On a warm
      // cache the level's pixels are stale (the incremental splice only
      // runs for valid levels), so refresh the whole level from the live
      // frame first -- resizeBilinearInto over the full rect reproduces
      // buildPyramid's resize bit for bit.
      if (!cold) {
        if (levelIndex == 0) {
          std::memcpy(&lc.image.at(0, 0), frame.data().data(),
                      sizeof(float) *
                          static_cast<std::size_t>(frame.width()) *
                          static_cast<std::size_t>(frame.height()));
        } else {
          vision::resizeBilinearInto(frame, lc.image, 0, 0,
                                     lc.image.width(), lc.image.height());
        }
      }
      {
        PCNN_SPAN("detect.cellGrid");
        obs::ScopedTimer timer(cellGridUs());
        StatusOr<hog::CellGrid> gridOr =
            featureExtractor_->tryCellGrid(lc.image);
        if (!gridOr.ok()) {
          skipLevel(gridOr.status());
          continue;
        }
        lc.grid = std::move(gridOr).value();
      }
      if (blockPath) {
        PCNN_SPAN("detect.blockGrid");
        try {
          lc.blocks = featureExtractor_->prepareBlocks(lc.grid);
        } catch (const std::exception& e) {
          skipLevel(
              Status::Internal(std::string("prepareBlocks: ") + e.what()));
          continue;
        }
      }
      const long levelWindows =
          static_cast<long>(lc.spanX) * static_cast<long>(lc.spanY);
      PCNN_SPAN_ARG("detect.scan", "windows", levelWindows);
      lc.scores.assign(static_cast<std::size_t>(levelWindows), kLostScore);
      long rescored = 0, lost = 0;
      rescoreWindows(lc, [](int, int) { return true; }, rescored, lost);
      if (lost > 0) {
        metrics.windowsLost.add(lost);
        if (report != nullptr) report->windowsLost += lost;
      }
      lc.valid = true;
      stats.tilesRecomputed += levelTiles;
      stats.windowsRescored += levelWindows;
      metrics.tilesRecomputed.add(levelTiles);
      metrics.windowsRescored.add(levelWindows);
      emitLevelDetections(lc, params_, threshold, detections);
      continue;
    }

    // Incremental path: refresh the level's pixels under the dirty scene
    // rects, mark the tiles whose cells they touch, and recompute only
    // those.
    std::vector<std::uint8_t> dirtyTiles(
        static_cast<std::size_t>(tilesAcross) * tilesDown, 0);
    bool anyDirty = false;
    for (const PxRect& sceneRect : sceneDirty) {
      PxRect r;
      if (levelIndex == 0) {
        // Level 0 is a verbatim copy of the scene: splice the rows.
        r = sceneRect;
        const float* src = frame.data().data();
        for (int y = r.y0; y < r.y1; ++y) {
          std::memcpy(&lc.image.at(r.x0, y),
                      src + static_cast<std::size_t>(y) * frame.width() + r.x0,
                      sizeof(float) * static_cast<std::size_t>(r.x1 - r.x0));
        }
      } else {
        r = mapRectToLevel(sceneRect, frame, lc.image);
        if (r.x0 >= r.x1 || r.y0 >= r.y1) continue;
        vision::resizeBilinearInto(frame, lc.image, r.x0, r.y0, r.x1, r.y1);
      }
      // The gradient stencil reads 1 px around a cell, so a changed pixel
      // dirties every cell within 1 px -- then tiles containing them.
      const int cx0 = (r.x0 > 0 ? r.x0 - 1 : 0) / cell;
      const int cy0 = (r.y0 > 0 ? r.y0 - 1 : 0) / cell;
      const int cx1 = std::min(cellsX, ceilDiv(r.x1 + 1, cell));
      const int cy1 = std::min(cellsY, ceilDiv(r.y1 + 1, cell));
      if (cx0 >= cx1 || cy0 >= cy1) continue;
      for (int ty = cy0 / tileCells; ty < ceilDiv(cy1, tileCells); ++ty) {
        for (int tx = cx0 / tileCells; tx < ceilDiv(cx1, tileCells); ++tx) {
          dirtyTiles[static_cast<std::size_t>(ty) * tilesAcross + tx] = 1;
          anyDirty = true;
        }
      }
    }

    const long levelWindows =
        static_cast<long>(lc.spanX) * static_cast<long>(lc.spanY);
    if (!anyDirty) {
      // Nothing under this level changed: every tile and window reused.
      stats.tilesReused += levelTiles;
      stats.windowsReused += levelWindows;
      metrics.tilesReused.add(levelTiles);
      metrics.windowsReused.add(levelWindows);
      emitLevelDetections(lc, params_, threshold, detections);
      continue;
    }

    // Merge dirty tiles into per-row cell rects and refresh cells/blocks.
    std::vector<extract::CellRect> cellRects;
    long dirtyTileCount = 0;
    for (int ty = 0; ty < tilesDown; ++ty) {
      int tx = 0;
      while (tx < tilesAcross) {
        if (!dirtyTiles[static_cast<std::size_t>(ty) * tilesAcross + tx]) {
          ++tx;
          continue;
        }
        int end = tx;
        while (end < tilesAcross &&
               dirtyTiles[static_cast<std::size_t>(ty) * tilesAcross + end]) {
          ++end;
        }
        dirtyTileCount += end - tx;
        extract::CellRect rect;
        rect.cx0 = tx * tileCells;
        rect.cx1 = std::min(cellsX, end * tileCells);
        rect.cy0 = ty * tileCells;
        rect.cy1 = std::min(cellsY, (ty + 1) * tileCells);
        cellRects.push_back(rect);
        tx = end;
      }
    }
    {
      PCNN_SPAN("detect.cellGrid");
      obs::ScopedTimer timer(cellGridUs());
      StatusOr<long> updated = featureExtractor_->tryUpdateCellGrid(
          lc.image, cellRects, lc.grid);
      if (!updated.ok()) {
        skipLevel(updated.status());
        continue;
      }
    }
    if (blockPath) {
      PCNN_SPAN("detect.blockGrid");
      try {
        featureExtractor_->updateBlocks(lc.grid, cellRects, lc.blocks);
      } catch (const std::exception& e) {
        skipLevel(
            Status::Internal(std::string("updateBlocks: ") + e.what()));
        continue;
      }
    }

    // Dirty-window mask via 2-D prefix sums over the tile bitmap: a
    // window is rescored iff any tile intersecting its cell footprint is
    // dirty.
    std::vector<int> prefix(
        static_cast<std::size_t>(tilesDown + 1) * (tilesAcross + 1), 0);
    for (int ty = 0; ty < tilesDown; ++ty) {
      for (int tx = 0; tx < tilesAcross; ++tx) {
        prefix[static_cast<std::size_t>(ty + 1) * (tilesAcross + 1) + tx +
               1] =
            prefix[static_cast<std::size_t>(ty) * (tilesAcross + 1) + tx +
                   1] +
            prefix[static_cast<std::size_t>(ty + 1) * (tilesAcross + 1) +
                   tx] -
            prefix[static_cast<std::size_t>(ty) * (tilesAcross + 1) + tx] +
            dirtyTiles[static_cast<std::size_t>(ty) * tilesAcross + tx];
      }
    }
    auto windowDirty = [&](int wx, int wy) {
      const int txa = wx / tileCells;
      const int txb = (wx + params_.windowCellsX - 1) / tileCells;
      const int tya = wy / tileCells;
      const int tyb = (wy + params_.windowCellsY - 1) / tileCells;
      const int sum =
          prefix[static_cast<std::size_t>(tyb + 1) * (tilesAcross + 1) +
                 txb + 1] -
          prefix[static_cast<std::size_t>(tya) * (tilesAcross + 1) + txb +
                 1] -
          prefix[static_cast<std::size_t>(tyb + 1) * (tilesAcross + 1) +
                 txa] +
          prefix[static_cast<std::size_t>(tya) * (tilesAcross + 1) + txa];
      return sum > 0;
    };

    // Rescore only the dirty windows.
    long rescored = 0, lost = 0;
    {
      PCNN_SPAN_ARG("detect.scan", "windows", levelWindows);
      rescoreWindows(lc, windowDirty, rescored, lost);
    }
    if (lost > 0) {
      metrics.windowsLost.add(lost);
      if (report != nullptr) report->windowsLost += lost;
    }
    stats.tilesRecomputed += dirtyTileCount;
    stats.tilesReused += levelTiles - dirtyTileCount;
    stats.windowsRescored += rescored;
    stats.windowsReused += levelWindows - rescored;
    metrics.tilesRecomputed.add(dirtyTileCount);
    metrics.tilesReused.add(levelTiles - dirtyTileCount);
    metrics.windowsRescored.add(rescored);
    metrics.windowsReused.add(levelWindows - rescored);
    emitLevelDetections(lc, params_, threshold, detections);
  }

  cache.scene = frame;
  cache.valid = true;
  return detections;
}

}  // namespace pcnn::core
