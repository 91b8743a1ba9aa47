#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "hog/hog.hpp"
#include "io/io.hpp"
#include "obs/obs.hpp"
#include "power/power.hpp"
#include "vision/image.hpp"

namespace pcnn::extract {

/// Which feature vector an extractor emits for a detection window.
///
/// The paper runs every extractor through the same two downstream heads:
/// the SVM consumes overlapping 2x2-cell L2-normalized blocks (Fig. 4),
/// while the Eedn classifier consumes the flat concatenation of cell
/// histograms with block normalization elided (Fig. 5, Sec. 5 -- the norm
/// is costly on TrueNorth). Both layouts are assembled from the same
/// per-cell histogram grid, so one extractor instance serves either head.
enum class FeatureLayout {
  kFlatCell,   ///< windowCellsX * windowCellsY * bins, no normalization
  kBlockNorm,  ///< 2x2-cell blocks, 1-cell stride, L2-normalized
};

const char* layoutName(FeatureLayout layout);

/// How the extractor's inputs are delivered on TrueNorth -- determines the
/// throughput (and therefore the module count and power) of a deployment.
enum class CodingScheme {
  kNone,              ///< not spike-coded (software model / FPGA)
  kRateAccumulate,    ///< rate code accumulated for spikeWindow ticks
                      ///< (NApprox: one cell per spikeWindow+overhead ticks)
  kStochasticStream,  ///< stochastic code, pipelined output every tick
                      ///< (Parrot: 1000/spikes cells/s per module)
};

/// Deployment metadata an extractor reports about itself: the resource and
/// precision numbers that feed the Table-2 power model and the Sec. 5.1
/// core accounting (core::ResourceBudget). Zeroed fields mean "not
/// applicable" -- e.g. a float software model has no TrueNorth mapping.
struct ExtractorInfo {
  std::string precision;        ///< human-readable signal resolution
  CodingScheme coding = CodingScheme::kNone;
  int spikeWindow = 0;          ///< coding window in ticks (0 = exact)
  int coresPerCell = 0;         ///< our mapped TrueNorth cores per 8x8 cell
  int paperCoresPerCell = 0;    ///< the paper module's cores per cell
  bool fpgaBaseline = false;    ///< true for the fixed-point FPGA design
};

/// A half-open rectangle of cells [cx0, cx1) x [cy0, cy1) inside a cell
/// grid -- the unit of incremental recomputation (tryUpdateCellGrid /
/// updateBlocks).
struct CellRect {
  int cx0 = 0;
  int cy0 = 0;
  int cx1 = 0;
  int cy1 = 0;
};

/// Polymorphic feature-extraction stage of the partitioned pipeline.
///
/// Captures the contract the system grew implicitly across PR 1: features
/// are assembled from a per-cell histogram grid (hog::CellGrid) that is
/// computed once per image and shared by every window over it, plus
/// whole-window and whole-batch convenience paths. The four backends
/// (classic HoG, fixed-point FPGA HoG, NApprox, Parrot) all implement this
/// interface in both feature layouts; consumers (core::GridDetector,
/// core::PartitionedPipeline, svm mining, the benches) are written against
/// it, so a new backend is a single registry entry away from every harness.
///
/// Threading contract: cellGrid / windowFeatures / batchFeatures may be
/// stateful (the Parrot draws stochastic-coding noise from an internal RNG
/// stream) and must be called from one thread at a time. windowFromGrid is
/// const and re-entrant: the detector scans window rows concurrently over
/// one shared grid.
class FeatureExtractor {
 public:
  virtual ~FeatureExtractor() = default;

  const std::string& name() const { return name_; }
  FeatureLayout layout() const { return layout_; }
  int bins() const { return bins_; }
  int cellSize() const { return cellSize_; }
  int windowCellsX() const { return windowCellsX_; }
  int windowCellsY() const { return windowCellsY_; }

  /// Length of the feature vector windowFromGrid / windowFeatures emit.
  int featureDim() const;

  /// Per-cell histogram grid of a whole (pyramid-level) image. Computed
  /// once per level and sliced by every window over it.
  virtual hog::CellGrid cellGrid(const vision::Image& image) = 0;

  /// Graceful variant of cellGrid: validates the input and converts any
  /// backend failure (a poisoned level image, a simulator fault taking the
  /// cell computation down) into a typed Status instead of an exception,
  /// so consumers like GridDetector can skip the level and keep the scene.
  /// Failures count into the "extract.failures" obs counter. The failure
  /// unit is one grid -- i.e. every cell of one pyramid level.
  StatusOr<hog::CellGrid> tryCellGrid(const vision::Image& image);

  /// Graceful variant of windowFeatures with the same contract.
  StatusOr<std::vector<float>> tryWindowFeatures(const vision::Image& window);

  /// Incrementally refreshes the given cell rectangles of `grid` from
  /// `image` -- the temporal-reuse path: a persistent per-level grid stays
  /// valid across frames and only the cells whose pixels changed are
  /// recomputed. Each rect is expanded by one cell of pixel context (the
  /// gradient stencil reads 1 px beyond the cell), the expanded region is
  /// cropped and run through the backend's own cellGrid, and the interior
  /// target cells are spliced back. For deterministic backends the
  /// refreshed cells are bitwise-identical to a full-image cellGrid;
  /// stochastic backends (the Parrot's coding RNG is consumed in cell
  /// order) produce valid but differently-coded histograms. `grid` must
  /// have the exact geometry cellGrid(image) would produce. Returns the
  /// number of cells recomputed; on failure the grid contents are
  /// unspecified and the caller should fall back to a full recompute.
  StatusOr<long> tryUpdateCellGrid(const vision::Image& image,
                                   const std::vector<CellRect>& dirty,
                                   hog::CellGrid& grid);

  /// Companion of tryUpdateCellGrid for kBlockNorm extractors: refreshes
  /// every block of `blocks` that covers a cell in `dirtyCells` (each 2x2
  /// block dilates the dirty region by one cell leftward/upward). Returns
  /// the number of blocks refreshed; 0 for kFlatCell layouts.
  long updateBlocks(const hog::CellGrid& grid,
                    const std::vector<CellRect>& dirtyCells,
                    hog::BlockGrid& blocks) const;

  /// Features of the window whose top-left cell is (cx0, cy0), sliced out
  /// of a cached grid. Bitwise-identical to extracting the same window's
  /// sub-grid and assembling it standalone. Const and re-entrant.
  std::vector<float> windowFromGrid(const hog::CellGrid& grid, int cx0,
                                    int cy0) const;

  /// Precomputes the per-level normalized block grid (kBlockNorm only --
  /// returns an empty grid for kFlatCell, which has no block structure).
  /// Every block is assembled and L2-normalized once; windowFromBlocks
  /// then slices windows out of it with plain copies, instead of
  /// re-normalizing each block for each of the up to 4 windows covering
  /// it. Const and re-entrant.
  hog::BlockGrid prepareBlocks(const hog::CellGrid& grid) const;

  /// windowFromGrid equivalent over a grid prepared by prepareBlocks:
  /// bitwise-identical features, amortized block normalization. Only valid
  /// for kBlockNorm extractors. Const and re-entrant.
  std::vector<float> windowFromBlocks(const hog::BlockGrid& blocks, int cx0,
                                      int cy0) const;

  /// windowFromBlocks into a caller-owned buffer, resized to the window's
  /// feature length: a buffer reused across windows is never reallocated.
  void windowFromBlocksInto(const hog::BlockGrid& blocks, int cx0, int cy0,
                            std::vector<float>& out) const;

  /// Features of one standalone window (== windowFromGrid(cellGrid(w),0,0)
  /// by default; backends with a native per-window path override to share
  /// it, and the conformance suite checks the two stay bitwise-identical).
  virtual std::vector<float> windowFeatures(const vision::Image& window);

  /// windowFeatures over a batch. Stateless backends run on the global
  /// thread pool; results match the sequential loop bit-for-bit at any
  /// thread count. Stateful backends (Parrot) pre-draw one coding seed per
  /// window so their batch is deterministic for a given extractor state
  /// regardless of the thread count (but consumes the RNG stream
  /// differently than the sequential loop would).
  virtual std::vector<std::vector<float>> batchFeatures(
      const std::vector<vision::Image>& windows);

  /// Deployment metadata (precision, coding, core counts).
  virtual ExtractorInfo info() const = 0;

  /// Stage A of the paper's co-training: trains the extractor itself
  /// (Sec. 3.2 -- the Parrot mimics NApprox on generated oriented samples).
  /// Returns the final-epoch loss; no-op returning 0 for fixed-function
  /// extractors.
  virtual float pretrain(int numSamples, int epochs, float learningRate);

  /// Changes the input spike-coding window without retraining (the Fig. 6
  /// precision sweep). No-op for extractors without a coded input stage.
  virtual void setInputSpikes(int spikes);

  /// True when feature extraction mutates no state, so batches may fan out
  /// per-window on the thread pool.
  virtual bool statelessExtraction() const { return true; }

  /// True when the extractor carries state worth persisting beyond its
  /// construction parameters (the Parrot's trained Eedn weights). Fixed-
  /// function extractors return false -- their saved state is just the
  /// geometry header, and loading it only validates compatibility.
  virtual bool hasTrainedState() const { return false; }

  /// Serializes the extractor's state ("PXST" v1 over io::Writer): a META
  /// chunk carrying name + geometry, then backend-specific chunks
  /// (saveStateBody). Together with the registry spec this is everything
  /// needed to reconstruct the extractor without re-running stage-A
  /// pretraining. May mutate transient caches (compiled plans) but not the
  /// extracted features.
  Status trySaveState(std::ostream& out);
  Status trySaveStateFile(const std::string& path);

  /// Restores state saved by trySaveState into this extractor. The META
  /// chunk must match this instance's name and geometry exactly
  /// (kFailedPrecondition otherwise): state is loaded into an extractor
  /// built from the same spec + options, never coerced across specs.
  /// Unknown chunks are skipped (forward compat).
  Status tryLoadState(std::istream& in);
  Status tryLoadStateFile(const std::string& path);

  /// Table-2 power row for this extractor under the given workload, or
  /// nullopt when the extractor has no hardware deployment (pure software
  /// models). Derived from info() via power::TrueNorthPowerModel /
  /// power::FpgaPowerModel.
  std::optional<power::PowerEstimate> powerEstimate(
      const power::FullHdWorkload& workload = {}) const;

 protected:
  FeatureExtractor(std::string name, FeatureLayout layout, int bins,
                   int windowCellsX, int windowCellsY, int cellSize = 8);

  /// RAII instrumentation for one batchFeatures call: a trace span plus
  /// the backend's "extract.<name>.batch_us" latency histogram and the
  /// global "extract.windows" counter. Backends overriding batchFeatures
  /// open one at entry so every implementation reports identically.
  class BatchScope {
   public:
    BatchScope(FeatureExtractor& extractor, std::size_t windows);

   private:
    obs::Span span_;
    obs::ScopedTimer timer_;
  };

  /// Backend hook appending state chunks after the META chunk. The default
  /// writes nothing (fixed-function extractors are fully described by
  /// their construction parameters).
  virtual Status saveStateBody(io::Writer& writer);

  /// Backend hook consuming the chunks that followed META. Receives every
  /// remaining chunk (unknown tags included -- ignore what you do not
  /// recognize). The default accepts anything.
  virtual Status loadStateBody(const std::vector<io::Reader::Chunk>& chunks);

 private:
  std::string name_;
  FeatureLayout layout_;
  int bins_;
  int cellSize_;
  int windowCellsX_;
  int windowCellsY_;
  hog::HogExtractor blockAssembler_;  ///< block slicing for kBlockNorm
  /// Resolved once at construction; see BatchScope.
  obs::LatencyHistogram* batchUs_;
};

}  // namespace pcnn::extract
