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

/// Scores a window feature vector; higher = more person-like. Window rows
/// are scored concurrently on the global thread pool (PCNN_NUM_THREADS),
/// so the scorer -- like the extractor's window assembly -- must be safe
/// for concurrent calls: true of LinearSvm::decision and
/// EednClassifier::score (inference is read-only). Results are identical
/// for any thread count.
using WindowScorer = std::function<float(const std::vector<float>&)>;

/// Cross-frame reuse knobs for GridDetector::detectBatch. The env var
/// PCNN_TEMPORAL (off/0/false) overrides `enabled` and `smooth` at run
/// time, forcing the bitwise-reference per-frame path.
struct TemporalParams {
  /// Keep per-level cell/block/score grids alive across frames and only
  /// recompute the tiles whose pixels changed. Off: every frame runs the
  /// exact single-scene detectRaw() path.
  bool enabled = true;
  /// EMA box smoothing across the burst (TemporalSmoother, default knobs).
  bool smooth = true;
  /// Dirty-tracking tile edge in cells (tileCells * cellSize pixels).
  int tileCells = 4;
};

/// Multi-scale sliding-window detector over cell grids. The window
/// geometry (cell size, window cells) comes from the extractor.
struct GridDetectorParams {
  int cellSize = 8;  ///< overwritten with the extractor's cell size
  float scoreThreshold = 0.0f;  ///< keep windows scoring at least this
  float nmsEpsilon = 0.2f;      ///< the paper's NMS epsilon
  vision::PyramidParams pyramid;  ///< 1.1x scale steps by default
  TemporalParams temporal;  ///< detectBatch cross-frame reuse knobs
};

/// Per-call scan controls for deliberate quality shedding and deadline
/// abandonment -- the knobs serve::DetectionService turns under overload.
/// Default-constructed options change nothing: every level is scanned.
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
  /// no deadlines; 0 for a frame = no deadline for that frame. Each
  /// frame's deadline is folded into that frame's DetectOptions::cancel, so
  /// a frame whose deadline passes mid-scan abandons its remaining pyramid
  /// levels exactly like a firing cancel hook.
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
  /// Detector over a registry-constructed feature extractor, whose window
  /// geometry it scans with. The extractor computes one grid per pyramid
  /// level on the calling thread (it may be stateful); block-norm
  /// extractors additionally precompute the level's normalized block grid
  /// once, and window features are then sliced from it concurrently.
  GridDetector(const GridDetectorParams& params,
               std::shared_ptr<extract::FeatureExtractor> extractor,
               WindowScorer scorer);
  ~GridDetector();  // out of line: the temporal cache is an opaque type

  /// Scans all pyramid levels with a one-cell stride, scores every window,
  /// keeps those scoring at least params.scoreThreshold, and applies NMS.
  /// Boxes are in original scene coordinates.
  ///
  /// `options` sheds levels or abandons the rest of the scan; `report`
  /// (may be null) records what the scan gave up: shed levels
  /// (kUnavailable), abandoned levels (kDeadlineExceeded), levels whose
  /// grid the extractor cannot produce (skipped with a
  /// "detect.level.degraded" span and counter instead of aborting the
  /// scene), individual windows whose assembly or scoring throws, and the
  /// simulator faults raised during the call.
  std::vector<vision::Detection> detect(
      const vision::Image& scene, const DetectOptions& options = {},
      DegradationReport* report = nullptr) const;

  /// Same but without NMS (for threshold sweeps in the evaluation).
  std::vector<vision::Detection> detectRaw(
      const vision::Image& scene, const DetectOptions& options = {},
      DegradationReport* report = nullptr) const;

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
  /// fails, or that is shed or abandoned, is invalidated and rebuilt from
  /// the live frame when next scanned). For deterministic backends the
  /// reused scan is bitwise-identical to per-frame detect(); the Parrot's
  /// stochastic coding stream is consumed in a different order on the
  /// incremental path, so its detections are equally valid draws but not
  /// bitwise reproductions (DESIGN.md Section 5g).
  ///
  /// With PCNN_TEMPORAL=off (or temporal.enabled=false) each frame runs
  /// the exact single-scene detect() path -- bitwise-identical detections
  /// at any thread count, no smoothing.
  ///
  /// `options` applies to every frame (plus each frame's deadline);
  /// `reports`, when non-null, is resized to one DegradationReport per
  /// frame, filled as detect() fills its report.
  BatchDetectResult detectBatch(const std::vector<vision::Image>& frames,
                                const BatchOptions& options = {},
                                std::vector<DegradationReport>* reports =
                                    nullptr);
  BatchDetectResult detectBatch(int numFrames, const FrameProvider& frames,
                                const BatchOptions& options = {},
                                std::vector<DegradationReport>* reports =
                                    nullptr);

  /// Drops the persistent per-level grids and smoother tracks; the next
  /// frame recomputes everything (use between unrelated bursts).
  void resetTemporalCache();

  const GridDetectorParams& params() const { return params_; }

  const std::shared_ptr<extract::FeatureExtractor>& extractor() const {
    return featureExtractor_;
  }

 private:
  /// One pyramid level's scan state: its pixels, grids, and the
  /// spanY x spanX plane of window scores both paths emit detections from
  /// (a window whose assembly or scoring failed holds -infinity, below
  /// every threshold). detectRaw scans each level into one per-call state;
  /// the temporal cache keeps one per level alive across frames.
  struct Level {
    vision::Image image;
    float scale = 1.0f;     ///< level-to-scene coordinate scale
    hog::CellGrid grid;
    hog::BlockGrid blocks;  ///< normalized blocks (kBlockNorm only)
    std::vector<float> scores;
    int spanX = 0;
    int spanY = 0;
    bool valid = false;     ///< temporal path: grids and scores are current
  };

  struct TemporalCache;  // defined in detector_batch.cpp
  /// Out-of-line deleter so TUs other than detector_batch.cpp can destroy
  /// a GridDetector without seeing the cache's definition.
  struct TemporalCacheDeleter {
    void operator()(TemporalCache* cache) const;
  };

  /// The scene's pyramid down to the window size (a "detect.pyramid"
  /// span) as unscanned levels, each holding at least one window.
  std::vector<Level> buildLevels(const vision::Image& scene) const;

  /// The level gate of both scan paths: sheds the options' finest levels
  /// (kUnavailable, "detect.level.shed") and, once the cancel hook fires,
  /// abandons this and every later level (kDeadlineExceeded,
  /// "detect.level.deadline"; `abandoned` latches). Returns false for a
  /// level that must not be scanned; such a level is invalidated.
  bool admitLevel(int levelIndex, Level& level, const DetectOptions& options,
                  bool& abandoned, DegradationReport* report) const;

  /// Records a level the extractor failed on: a "detect.level.degraded"
  /// span, counter, and flight-recorder fault event; its windows join
  /// "detect.windows_lost" and the report; the level is invalidated.
  void skipLevel(int levelIndex, Level& level, Status status,
                 DegradationReport* report) const;

  /// The full level scan: cell grid, block grid, then every window scored
  /// into the level's score plane. Returns false (after skipLevel) when
  /// the extractor fails.
  bool scanLevel(int levelIndex, Level& level,
                 DegradationReport* report) const;

  /// Rescores the windows `selected(wx, wy)` picks (every window when
  /// empty) into the level's score plane, rows in parallel on the pool;
  /// each row writes its own slice, so the plane is identical for any
  /// thread count. Lost windows are tallied into "detect.windows_lost"
  /// and the report. Returns the number of windows scored.
  long scoreWindows(Level& level,
                    const std::function<bool(int, int)>& selected,
                    DegradationReport* report) const;

  /// Assembles the window whose top-left cell is (wx, wy) into `features`
  /// -- a buffer its scan row reuses across windows, so assembly does not
  /// allocate -- and scores it into `score`. Returns false when assembly
  /// or scoring throws.
  bool scoreWindow(const hog::CellGrid& grid, const hog::BlockGrid& blocks,
                   int wx, int wy, std::vector<float>& features,
                   float& score) const;

  /// Appends the level's windows scoring at least the threshold, in
  /// row-major order -- the one emitter of both scan paths.
  void emitLevelDetections(const Level& level,
                           std::vector<vision::Detection>& out) const;

  /// One frame of the temporal path: reuse what the cache allows, refresh
  /// the rest, leave the cache describing this frame.
  std::vector<vision::Detection> detectFrameTemporal(
      const vision::Image& frame, FrameStats& stats,
      const DetectOptions& options, DegradationReport* report);

  GridDetectorParams params_;
  std::shared_ptr<extract::FeatureExtractor> featureExtractor_;
  WindowScorer scorer_;
  /// Per-backend cell-grid latency histogram
  /// ("extract.<backend>.cell_grid_us"), resolved once at construction so
  /// the per-level hot path never touches the metrics registry lock.
  obs::LatencyHistogram* cellGridUs_;
  std::unique_ptr<TemporalCache, TemporalCacheDeleter> temporal_;
};

}  // namespace pcnn::core
