#pragma once

#include <vector>

#include "hog/gradient.hpp"
#include "vision/image.hpp"

namespace pcnn::hog {

/// Configuration of a Histogram-of-Oriented-Gradients extractor.
///
/// The two reference configurations used in the paper's Figure 4 are:
///  - FPGA-HoG: 9 unsigned bins (0-180), weighted voting by magnitude,
///    fixed-point arithmetic (see FixedPointHog);
///  - NApprox(fp): 18 signed bins (0-360), voting by count, float math
///    (see napprox::NApproxHog, which shares this histogram layout).
/// Both exploit contrast normalization over 2x2-cell blocks with a stride
/// of one cell, using the L2 norm v / ||v||_2.
struct HogParams {
  int cellSize = 8;          ///< pixels per cell edge (paper: 8)
  int numBins = 9;           ///< orientation bins
  bool signedOrientation = false;  ///< false: 0-180 deg, true: 0-360 deg
  bool weightedVote = true;  ///< vote by gradient magnitude (vs. by count)
  bool bilinearBinning = true;     ///< bilinear interpolation between bins
  int blockCells = 2;        ///< cells per block edge (paper: 2x2)
  int blockStrideCells = 1;  ///< block stride in cells (paper: 1)
  bool l2Normalize = true;   ///< L2 block normalization (elided on TrueNorth)
  float l2Epsilon = 1e-3f;   ///< epsilon added under the sqrt of the norm
};

/// A dense grid of per-cell orientation histograms.
struct CellGrid {
  int cellsX = 0;
  int cellsY = 0;
  int bins = 0;
  std::vector<float> data;  ///< cellsY * cellsX * bins, row-major

  float* cell(int cx, int cy) {
    return data.data() + (static_cast<std::size_t>(cy) * cellsX + cx) * bins;
  }
  const float* cell(int cx, int cy) const {
    return data.data() + (static_cast<std::size_t>(cy) * cellsX + cx) * bins;
  }
};

/// A dense grid of assembled (and normalized) blocks over a whole cell
/// grid. Each block's values depend only on its own cells, never on the
/// window asking for it -- so one normalization pass per pyramid level can
/// be shared by every overlapping detection window, where the per-window
/// path re-normalizes each block for each of the up-to-blockCells^2
/// windows covering it.
struct BlockGrid {
  int blocksX = 0;
  int blocksY = 0;
  int blockLen = 0;  ///< blockCells^2 * bins floats per block
  std::vector<float> data;  ///< blocksY * blocksX * blockLen, row-major

  float* block(int bx, int by) {
    return data.data() +
           (static_cast<std::size_t>(by) * blocksX + bx) * blockLen;
  }
  const float* block(int bx, int by) const {
    return data.data() +
           (static_cast<std::size_t>(by) * blocksX + bx) * blockLen;
  }
};

/// Reference floating-point HoG extractor (Dalal & Triggs).
class HogExtractor {
 public:
  explicit HogExtractor(const HogParams& params = {});

  const HogParams& params() const { return params_; }

  /// Computes per-cell histograms for the whole image. Cells are
  /// non-overlapping cellSize x cellSize tiles; partial border cells are
  /// dropped.
  CellGrid computeCells(const vision::Image& img) const;

  /// Histogram of a single cell whose top-left pixel is (x0, y0). The
  /// gradients at the cell border use pixels outside the cell (the paper's
  /// "10x10 pixels are fed to HoG" for an 8x8 cell).
  std::vector<float> cellHistogram(const vision::Image& img, int x0,
                                   int y0) const;

  /// Full window descriptor: overlapping blocks of blockCells^2 cells,
  /// each block L2-normalized when l2Normalize is set, concatenated.
  /// For a 64x128 window this yields 7*15*4*numBins features (3780 at 9
  /// bins; 7560 at 18 bins, the count quoted in the paper).
  std::vector<float> windowDescriptor(const vision::Image& window) const;

  /// Flat per-cell descriptor with no block structure or normalization --
  /// the feature layout used when feeding the Eedn classifier, where the
  /// paper elides block normalization (Section 5). 8*16*numBins features
  /// for a 64x128 window.
  std::vector<float> cellDescriptor(const vision::Image& window) const;

  /// Descriptor length of windowDescriptor for the given window size.
  int descriptorSize(int windowWidth, int windowHeight) const;

  /// Assembles (and optionally normalizes) blocks from a precomputed grid.
  std::vector<float> blocksFromGrid(const CellGrid& grid) const;

  /// Assembles the block-normalized descriptor of the window whose top-left
  /// cell is (cx0, cy0) by slicing a cached grid -- the shared-cell-grid
  /// detection path: the grid is computed once per pyramid level and every
  /// overlapping window reuses it instead of re-extracting its cells.
  /// Bitwise-identical to blocksFromGrid over the window's sub-grid.
  std::vector<float> windowDescriptorFromGrid(const CellGrid& grid, int cx0,
                                              int cy0, int windowCellsX,
                                              int windowCellsY) const;

  /// Assembles and normalizes every block of the grid once. Requires
  /// blockStrideCells == 1 (the library-wide default) so that any window
  /// origin lines up with the precomputed blocks.
  BlockGrid blockGridFromCells(const CellGrid& grid) const;

  /// Descriptor of the window whose top-left cell is (cx0, cy0), sliced
  /// out of a precomputed block grid into a caller-owned buffer, resized
  /// to the descriptor length (cleared when the window holds no block).
  /// Bitwise-identical to windowDescriptorFromGrid over the corresponding
  /// cell grid; the block normalization work is amortized across all
  /// windows sharing the grid, and a scan that reuses one buffer per row
  /// assembles windows without allocating.
  void windowDescriptorFromBlocksInto(const BlockGrid& blocks, int cx0,
                                      int cy0, int windowCellsX,
                                      int windowCellsY,
                                      std::vector<float>& out) const;

  /// Re-assembles (and re-normalizes) the blocks [bx0, bx1) x [by0, by1)
  /// of a grid previously built by blockGridFromCells from the (updated)
  /// cell grid -- the incremental path behind temporal detection, where
  /// only the blocks touching recomputed cells change. Each block depends
  /// only on its own cells, so the refreshed blocks are bitwise-identical
  /// to a full blockGridFromCells rebuild. The rect is clamped to the
  /// grid; returns the number of blocks refreshed.
  long refreshBlockRect(const CellGrid& grid, BlockGrid& blocks, int bx0,
                        int by0, int bx1, int by1) const;

 private:
  /// Copies one block's cells to dst and L2-normalizes in place -- the
  /// single implementation behind every block-assembly path, which is what
  /// makes the from-grid and from-blocks descriptors bitwise-identical.
  void assembleBlock(const CellGrid& grid, int cellX, int cellY,
                     float* dst) const;
  HogParams params_;
};

}  // namespace pcnn::hog
