#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/degradation.hpp"
#include "extract/extractor.hpp"
#include "obs/obs.hpp"
#include "hog/hog.hpp"
#include "vision/image.hpp"
#include "vision/nms.hpp"
#include "vision/pyramid.hpp"

namespace pcnn::core {

/// Scores a window feature vector; higher = more person-like.
using WindowScorer = std::function<float(const std::vector<float>&)>;

/// Cross-frame reuse knobs for GridDetector::detectBatch. The env var
/// PCNN_TEMPORAL (off/0/false) overrides `enabled` and `smooth` at run
/// time, forcing the bitwise-reference per-frame path.
struct TemporalParams {
  /// Keep per-level cell/block/score grids alive across frames and only
  /// recompute the tiles whose pixels changed. Off: every frame runs the
  /// exact single-scene detect() path.
  bool enabled = true;
  /// EMA box smoothing across the burst (TemporalSmoother).
  bool smooth = true;
  /// Dirty-tracking tile edge in cells (tileCells * cellSize pixels).
  int tileCells = 4;
  float smoothingAlpha = 0.6f;  ///< EMA weight of the newest frame's box
  float matchIou = 0.4f;        ///< det-to-track association threshold
};

/// Multi-scale sliding-window detector over cell grids.
struct GridDetectorParams {
  int cellSize = 8;
  int windowCellsX = 8;   ///< 64-pixel-wide window
  int windowCellsY = 16;  ///< 128-pixel-tall window
  float scoreThreshold = 0.0f;  ///< keep windows scoring at least this
  float nmsEpsilon = 0.2f;      ///< the paper's NMS epsilon
  vision::PyramidParams pyramid;  ///< 1.1x scale steps by default
  /// Scan window rows on the global thread pool (PCNN_NUM_THREADS). The
  /// extractor's windowFromGrid / windowFromBlocks and the scorer are then
  /// called concurrently and must be re-entrant for concurrent reads --
  /// true of FeatureExtractor, LinearSvm::decision and
  /// EednClassifier::score (inference is read-only). Detections are
  /// emitted in the same row-major order as the sequential scan, so
  /// results are identical for any thread count.
  bool parallelScan = true;
  TemporalParams temporal;  ///< detectBatch cross-frame reuse knobs
};

/// Per-call scan controls for deliberate quality shedding and deadline
/// abandonment -- the knobs serve::DetectionService turns under overload.
/// Default-constructed options change nothing: the scan is bitwise
/// identical to the plain detect()/detectBatch() overloads.
struct DetectOptions {
  /// Skip the N finest (largest, most expensive) pyramid levels. Each
  /// skipped level is recorded in the DegradationReport as a LevelSkip
  /// with StatusCode::kUnavailable, so shed quality is attributed rather
  /// than silent. Small far-away targets are lost first; coarse levels
  /// (near, large targets) keep scanning.
  int skipFinestLevels = 0;
  /// Polled before every pyramid level; returning true abandons this and
  /// all remaining levels, each recorded as a LevelSkip with
  /// StatusCode::kDeadlineExceeded. Detections from levels that already
  /// completed are still returned.
  std::function<bool()> cancel;
};

/// Per-burst controls for detectBatch.
struct BatchOptions {
  DetectOptions detect;  ///< applied to every frame of the burst
  /// Absolute per-frame deadlines on the obs::nowMicros() clock. Empty =
  /// no deadlines; 0 for a frame = no deadline for that frame. A frame
  /// whose deadline passes mid-scan abandons its remaining pyramid levels
  /// exactly like DetectOptions::cancel.
  std::vector<double> deadlineUs;
};

/// What one frame of a detectBatch burst cost, at tile and window
/// granularity. Tiles are (temporal.tileCells)^2-cell squares of each
/// pyramid level's cell grid; a frame that could not reuse anything (cold
/// cache, PCNN_TEMPORAL=off, a level invalidated by an extraction
/// failure) reports fullRecompute.
struct FrameStats {
  long tilesReused = 0;
  long tilesRecomputed = 0;
  long windowsRescored = 0;
  long windowsReused = 0;
  bool fullRecompute = false;
};

/// One frame's detections (after NMS and, when enabled, temporal
/// smoothing) plus its reuse accounting.
struct FrameResult {
  std::vector<vision::Detection> detections;
  FrameStats stats;
};

/// detectBatch output: per-frame results in frame order.
struct BatchDetectResult {
  std::vector<FrameResult> frames;
  bool temporalEnabled = false;  ///< params AND env agreed to reuse
};

class GridDetector {
 public:
  /// Detector over a registry-constructed feature extractor. The window
  /// geometry (cellSize, windowCellsX/Y) is taken from the extractor,
  /// overriding the corresponding params fields. The extractor computes
  /// one grid per pyramid level on the calling thread (it may be
  /// stateful); block-norm extractors additionally precompute the level's
  /// normalized block grid once, and window features are then sliced from
  /// it concurrently.
  GridDetector(const GridDetectorParams& params,
               std::shared_ptr<extract::FeatureExtractor> extractor,
               WindowScorer scorer);
  ~GridDetector();  // out of line: the temporal cache is an opaque type

  /// Scans all pyramid levels with a one-cell stride, scores every window,
  /// keeps those above threshold, and applies NMS. Boxes are in original
  /// scene coordinates.
  std::vector<vision::Detection> detect(const vision::Image& scene) const;

  /// Same with a score-threshold override, so evaluation sweeps can vary
  /// the operating point without rebuilding the detector.
  std::vector<vision::Detection> detect(const vision::Image& scene,
                                        float scoreThreshold) const;

  /// Same, additionally filling `report` with what the scan had to give
  /// up: a pyramid level whose grid the extractor cannot produce is
  /// skipped (emitting a "detect.level.degraded" span and counter) instead
  /// of aborting the scene, individual windows whose feature assembly or
  /// scoring throws are dropped, and simulator fault activity during the
  /// call is attributed. `report` may be null.
  std::vector<vision::Detection> detect(const vision::Image& scene,
                                        float scoreThreshold,
                                        DegradationReport* report) const;

  /// Same, additionally honoring per-call shed/deadline controls: the
  /// options' skipped and abandoned levels join `report` as LevelSkips
  /// (kUnavailable / kDeadlineExceeded). Default options reproduce the
  /// three-argument overload bitwise.
  std::vector<vision::Detection> detect(const vision::Image& scene,
                                        float scoreThreshold,
                                        DegradationReport* report,
                                        const DetectOptions& options) const;

  /// Produces the frames of a video burst lazily (frame index -> image),
  /// so a full-HD burst never has to be resident all at once.
  using FrameProvider = std::function<vision::Image(int)>;

  /// Runs a burst of same-sized frames through shared pyramid/scan
  /// machinery. Every frame emits a "detect.frame" span (frame-index
  /// argument) with "detect.level" spans nested under it exactly like the
  /// single-scene path, inside one enclosing "detect.batch" span.
  ///
  /// With params.temporal.enabled (and PCNN_TEMPORAL not off), per-level
  /// cell grids, block grids, and window scores persist across frames --
  /// and across detectBatch calls, until resetTemporalCache() or a frame
  /// of different dimensions arrives. Only tiles whose pixels changed
  /// since the previous frame recompute their cell histograms, affected
  /// block normalizations, and window scores ("detect.tiles_reused" /
  /// "detect.tiles_recomputed" counters); whole-frame recompute remains
  /// the always-available fallback (a level whose incremental update
  /// fails is invalidated, degrades the frame, and is rebuilt from
  /// scratch on the next one). For deterministic backends the reused scan
  /// is bitwise-identical to per-frame detect(); the Parrot's stochastic
  /// coding stream is consumed in a different order on the incremental
  /// path, so its detections are equally valid draws but not bitwise
  /// reproductions (DESIGN.md Section 5g).
  ///
  /// With PCNN_TEMPORAL=off (or temporal.enabled=false) each frame runs
  /// the exact single-scene detect() path -- bitwise-identical detections
  /// at any thread count, no smoothing.
  BatchDetectResult detectBatch(const std::vector<vision::Image>& frames);
  BatchDetectResult detectBatch(int numFrames, const FrameProvider& frames);

  /// Same, additionally honoring per-burst shed/deadline controls and --
  /// when `reports` is non-null -- filling one DegradationReport per frame
  /// (shed levels as kUnavailable, deadline-abandoned levels as
  /// kDeadlineExceeded, plus fault attribution). A level skipped on the
  /// temporal path is invalidated so it rebuilds from the live frame when
  /// the ladder re-enables it. Default options with a null `reports`
  /// reproduce the plain overloads bitwise.
  BatchDetectResult detectBatch(int numFrames, const FrameProvider& frames,
                                const BatchOptions& options,
                                std::vector<DegradationReport>* reports);
  BatchDetectResult detectBatch(const std::vector<vision::Image>& frames,
                                const BatchOptions& options,
                                std::vector<DegradationReport>* reports);

  /// Drops the persistent per-level grids and smoother tracks; the next
  /// frame recomputes everything (use between unrelated bursts).
  void resetTemporalCache();

  /// Same but without NMS (for threshold sweeps in the evaluation).
  std::vector<vision::Detection> detectRaw(const vision::Image& scene) const;
  std::vector<vision::Detection> detectRaw(const vision::Image& scene,
                                           float scoreThreshold) const;
  std::vector<vision::Detection> detectRaw(const vision::Image& scene,
                                           float scoreThreshold,
                                           DegradationReport* report) const;
  std::vector<vision::Detection> detectRaw(const vision::Image& scene,
                                           float scoreThreshold,
                                           DegradationReport* report,
                                           const DetectOptions& options) const;

  const GridDetectorParams& params() const { return params_; }

  const std::shared_ptr<extract::FeatureExtractor>& extractor() const {
    return featureExtractor_;
  }

 private:
  struct TemporalCache;  // defined in detector_batch.cpp
  /// Out-of-line deleter so TUs other than detector_batch.cpp can destroy
  /// a GridDetector without seeing the cache's definition.
  struct TemporalCacheDeleter {
    void operator()(TemporalCache* cache) const;
  };

  /// Per-backend cell-grid latency histogram
  /// ("extract.<backend>.cell_grid_us"), resolved once at construction so
  /// the per-level hot path never touches the metrics registry lock.
  obs::LatencyHistogram& cellGridUs() const { return *cellGridUs_; }

  /// The one window-scoring step of every scan path: assembles the window
  /// whose top-left cell is (wx, wy) into `features` -- a buffer its scan
  /// row reuses across windows, so assembly does not allocate -- and
  /// scores it into `score`. Returns false when assembly or scoring
  /// throws: that window is lost, and the row scans on.
  bool scoreWindow(const hog::CellGrid& grid, const hog::BlockGrid& blocks,
                   int wx, int wy, std::vector<float>& features,
                   float& score) const;

  /// One frame of the temporal path: reuse what the cache allows, refresh
  /// the rest, leave the cache describing this frame. `deadlineUs` <= 0
  /// means no deadline; `report` may be null.
  std::vector<vision::Detection> detectFrameTemporal(
      const vision::Image& frame, FrameStats& stats,
      const DetectOptions& options, double deadlineUs,
      DegradationReport* report);

  GridDetectorParams params_;
  std::shared_ptr<extract::FeatureExtractor> featureExtractor_;
  WindowScorer scorer_;
  obs::LatencyHistogram* cellGridUs_;
  std::unique_ptr<TemporalCache, TemporalCacheDeleter> temporal_;
};

}  // namespace pcnn::core
