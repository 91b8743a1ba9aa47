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
//  - both paths score into a per-level score plane with the same scan
//    core and emit detections from it through the same emitter
//    (detector.cpp), so NMS sees an identical input.

#include "core/detector.hpp"

#include <cmath>
#include <cstring>
#include <utility>

#include "common/env.hpp"
#include "core/temporal.hpp"
#include "obs/obs.hpp"

namespace pcnn::core {

namespace {

/// Temporal-path instruments shared by every detector instance (the level
/// gate, skip, and lost-window counters belong to the scan core in
/// detector.cpp).
struct BatchMetrics {
  obs::Counter& frames = obs::counter("detect.frames");
  obs::Counter& tilesReused = obs::counter("detect.tiles_reused");
  obs::Counter& tilesRecomputed = obs::counter("detect.tiles_recomputed");
  obs::Counter& windowsRescored = obs::counter("detect.windows_rescored");
  obs::Counter& windowsReused = obs::counter("detect.windows_reused");
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

inline int ceilDiv(int a, int b) { return (a + b - 1) / b; }

/// A half-open pixel rectangle (dirty-region bookkeeping).
struct PxRect {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
};

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

/// Everything detectBatch keeps alive between frames. One per detector;
/// sized by the first frame's pyramid.
struct GridDetector::TemporalCache {
  vision::Image scene;  ///< the previous frame, for tile diffing
  std::vector<Level> levels;
  bool valid = false;   ///< pyramid geometry initialized and current
  TemporalSmoother smoother;
};

void GridDetector::TemporalCacheDeleter::operator()(
    TemporalCache* cache) const {
  delete cache;
}

GridDetector::~GridDetector() = default;

void GridDetector::resetTemporalCache() { temporal_.reset(); }

BatchDetectResult GridDetector::detectBatch(
    const std::vector<vision::Image>& frames, const BatchOptions& options,
    std::vector<DegradationReport>* reports) {
  return detectBatch(static_cast<int>(frames.size()),
                     [&frames](int index) {
                       return frames[static_cast<std::size_t>(index)];
                     },
                     options, reports);
}

BatchDetectResult GridDetector::detectBatch(
    int numFrames, const FrameProvider& frames, const BatchOptions& options,
    std::vector<DegradationReport>* reports) {
  PCNN_SPAN_ARG("detect.batch", "frames", numFrames);
  BatchMetrics& metrics = BatchMetrics::instance();
  const bool temporalOn =
      params_.temporal.enabled && env::flag("PCNN_TEMPORAL", true);
  const bool smoothOn = temporalOn && params_.temporal.smooth;
  const std::size_t count =
      static_cast<std::size_t>(numFrames > 0 ? numFrames : 0);
  BatchDetectResult result;
  result.temporalEnabled = temporalOn;
  result.frames.reserve(count);
  if (reports != nullptr) reports->assign(count, DegradationReport{});
  if (!temporal_) temporal_.reset(new TemporalCache);
  for (int f = 0; f < numFrames; ++f) {
    const std::size_t fi = static_cast<std::size_t>(f);
    const vision::Image frame = frames(f);
    PCNN_SPAN_ARG("detect.frame", "frame", f);
    metrics.frames.add();
    const bool measure = obs::metricsEnabled();
    const double frameStartUs = measure ? obs::nowMicros() : 0.0;
    DegradationReport* report = reports != nullptr ? &(*reports)[fi] : nullptr;
    // Fold the frame's absolute deadline into the cancel hook the level
    // gate polls between pyramid levels -- once, for both paths.
    DetectOptions frameOptions = options.detect;
    const double deadlineUs =
        fi < options.deadlineUs.size() ? options.deadlineUs[fi] : 0.0;
    if (deadlineUs > 0.0) {
      frameOptions.cancel = [userCancel = options.detect.cancel,
                             deadlineUs]() {
        return (userCancel && userCancel()) || obs::nowMicros() > deadlineUs;
      };
    }
    FrameResult fr;
    std::vector<vision::Detection> raw;
    if (temporalOn) {
      raw = detectFrameTemporal(frame, fr.stats, frameOptions, report);
    } else {
      // The reference path: exactly the single-scene pipeline per frame
      // (bitwise-identical detections at any thread count, no smoothing).
      fr.stats.fullRecompute = true;
      raw = detectRaw(frame, frameOptions, report);
    }
    {
      PCNN_SPAN_ARG("detect.nms", "candidates", raw.size());
      fr.detections =
          vision::nonMaximumSuppression(std::move(raw), params_.nmsEpsilon);
    }
    if (smoothOn) fr.detections = temporal_->smoother.apply(fr.detections);
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
    const DetectOptions& options, DegradationReport* report) {
  const FaultAttribution faults(report);
  BatchMetrics& metrics = BatchMetrics::instance();
  TemporalCache& cache = *temporal_;
  const int cell = params_.cellSize;
  const int windowCellsX = featureExtractor_->windowCellsX();
  const int windowCellsY = featureExtractor_->windowCellsY();
  const int tileCells =
      params_.temporal.tileCells > 0 ? params_.temporal.tileCells : 1;
  const int tilePx = tileCells * cell;
  std::vector<vision::Detection> detections;

  // Cold start (or a stream whose dimensions changed): rebuild the
  // pyramid; every level then takes the full-scan branch.
  const bool cold = !cache.valid || cache.scene.width() != frame.width() ||
                    cache.scene.height() != frame.height();
  if (cold) {
    cache.levels = buildLevels(frame);
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

  bool abandoned = false;  // the deadline/cancel hook fired mid-frame
  for (std::size_t li = 0; li < cache.levels.size(); ++li) {
    const int levelIndex = static_cast<int>(li);
    Level& lc = cache.levels[li];
    if (!admitLevel(levelIndex, lc, options, abandoned, report)) continue;
    PCNN_SPAN_ARG("detect.level", "level", levelIndex);
    const int cellsX = lc.image.width() / cell;
    const int cellsY = lc.image.height() / cell;
    const int tilesAcross = ceilDiv(cellsX, tileCells);
    const int tilesDown = ceilDiv(cellsY, tileCells);
    const long levelTiles = static_cast<long>(tilesAcross) * tilesDown;
    const long levelWindows =
        static_cast<long>(lc.spanX) * static_cast<long>(lc.spanY);
    // Every branch ends here: account what the level recomputed (the rest
    // of its tiles and windows were reused), then emit from its scores.
    auto finishLevel = [&](long tilesRecomputed, long windowsRescored) {
      stats.tilesRecomputed += tilesRecomputed;
      stats.tilesReused += levelTiles - tilesRecomputed;
      stats.windowsRescored += windowsRescored;
      stats.windowsReused += levelWindows - windowsRescored;
      metrics.tilesRecomputed.add(tilesRecomputed);
      metrics.tilesReused.add(levelTiles - tilesRecomputed);
      metrics.windowsRescored.add(windowsRescored);
      metrics.windowsReused.add(levelWindows - windowsRescored);
      emitLevelDetections(lc, detections);
    };

    if (!lc.valid) {
      // Full scan: cold cache, or the level was invalidated by a failed
      // incremental update or a shed/abandoned scan. On a warm cache the
      // level's pixels are stale (the incremental splice only runs for
      // valid levels), so refresh the whole level from the live frame
      // first -- resizeBilinearInto over the full rect reproduces
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
      if (scanLevel(levelIndex, lc, report)) {
        finishLevel(levelTiles, levelWindows);
      }
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

    if (!anyDirty) {
      finishLevel(0, 0);  // nothing under this level changed
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
      obs::ScopedTimer timer(*cellGridUs_);
      StatusOr<long> updated = featureExtractor_->tryUpdateCellGrid(
          lc.image, cellRects, lc.grid);
      if (!updated.ok()) {
        skipLevel(levelIndex, lc, updated.status(), report);
        continue;
      }
    }
    if (featureExtractor_->layout() == extract::FeatureLayout::kBlockNorm) {
      PCNN_SPAN("detect.blockGrid");
      try {
        featureExtractor_->updateBlocks(lc.grid, cellRects, lc.blocks);
      } catch (const std::exception& e) {
        skipLevel(levelIndex, lc,
                  Status::Internal(std::string("updateBlocks: ") + e.what()),
                  report);
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
      const int txb = (wx + windowCellsX - 1) / tileCells;
      const int tya = wy / tileCells;
      const int tyb = (wy + windowCellsY - 1) / tileCells;
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
    finishLevel(dirtyTileCount, scoreWindows(lc, windowDirty, report));
  }

  cache.scene = frame;
  cache.valid = true;
  return detections;
}

}  // namespace pcnn::core
