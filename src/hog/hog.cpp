#include "hog/hog.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/parallel.hpp"
#include "hog/cell_kernels.hpp"
#include "obs/obs.hpp"

namespace pcnn::hog {

HogExtractor::HogExtractor(const HogParams& params) : params_(params) {
  if (params.cellSize <= 0 || params.numBins <= 0) {
    throw std::invalid_argument("HogExtractor: invalid params");
  }
}

std::vector<float> HogExtractor::cellHistogram(const vision::Image& img,
                                               int x0, int y0) const {
  std::vector<float> histogram(static_cast<std::size_t>(params_.numBins),
                               0.0f);
  for (int dy = 0; dy < params_.cellSize; ++dy) {
    for (int dx = 0; dx < params_.cellSize; ++dx) {
      const int x = x0 + dx;
      const int y = y0 + dy;
      const float gx = img.atClamped(x + 1, y) - img.atClamped(x - 1, y);
      const float gy = img.atClamped(x, y - 1) - img.atClamped(x, y + 1);
      kernels::voteForPixel(params_, gx, gy, histogram.data());
    }
  }
  return histogram;
}

CellGrid HogExtractor::computeCells(const vision::Image& img) const {
  CellGrid grid;
  grid.cellsX = img.width() / params_.cellSize;
  grid.cellsY = img.height() / params_.cellSize;
  grid.bins = params_.numBins;
  grid.data.assign(static_cast<std::size_t>(grid.cellsX) * grid.cellsY *
                       grid.bins,
                   0.0f);
  if (grid.cellsX <= 0 || grid.cellsY <= 0) return grid;
  const GradientField field = computeGradients(img);
  const kernels::Kind kind = kernels::activeKind();
  kernels::recordDispatch(kind);
  // Each cell row writes a disjoint slice of grid.data, so row blocks can
  // run on any thread without changing the result; the grain amortizes
  // pool dispatch and the batched kernel's row-buffer allocation.
  parallelForChunked(
      0, grid.cellsY, suggestedGrain(grid.cellsY), [&](long lo, long hi) {
        if (kind == kernels::Kind::kBatched) {
          kernels::hogCellRowsBatched(field, params_, grid,
                                      static_cast<int>(lo),
                                      static_cast<int>(hi));
        } else {
          kernels::hogCellRowsScalar(field, params_, grid,
                                     static_cast<int>(lo),
                                     static_cast<int>(hi));
        }
      });
  return grid;
}

std::vector<float> HogExtractor::blocksFromGrid(const CellGrid& grid) const {
  return windowDescriptorFromGrid(grid, 0, 0, grid.cellsX, grid.cellsY);
}

std::vector<float> HogExtractor::windowDescriptorFromGrid(
    const CellGrid& grid, int cx0, int cy0, int windowCellsX,
    int windowCellsY) const {
  const int bc = params_.blockCells;
  const int stride = params_.blockStrideCells;
  const int blocksX = (windowCellsX - bc) / stride + 1;
  const int blocksY = (windowCellsY - bc) / stride + 1;
  std::vector<float> out;
  if (blocksX <= 0 || blocksY <= 0) return out;
  if (cx0 < 0 || cy0 < 0 || cx0 + windowCellsX > grid.cellsX ||
      cy0 + windowCellsY > grid.cellsY) {
    throw std::invalid_argument(
        "windowDescriptorFromGrid: window exceeds grid");
  }
  const int blockLen = bc * bc * grid.bins;
  out.resize(static_cast<std::size_t>(blocksX) * blocksY * blockLen);
  float* dst = out.data();
  for (int by = 0; by < blocksY; ++by) {
    for (int bx = 0; bx < blocksX; ++bx) {
      assembleBlock(grid, cx0 + bx * stride, cy0 + by * stride, dst);
      dst += blockLen;
    }
  }
  return out;
}

void HogExtractor::assembleBlock(const CellGrid& grid, int cellX, int cellY,
                                 float* dst) const {
  const int bc = params_.blockCells;
  const int blockLen = bc * bc * grid.bins;
  float* block = dst;
  for (int cy = 0; cy < bc; ++cy) {
    for (int cx = 0; cx < bc; ++cx) {
      const float* hist = grid.cell(cellX + cx, cellY + cy);
      std::memcpy(dst, hist, sizeof(float) * grid.bins);
      dst += grid.bins;
    }
  }
  if (params_.l2Normalize) {
    double sumSq = 0.0;
    for (int i = 0; i < blockLen; ++i) {
      sumSq += static_cast<double>(block[i]) * block[i];
    }
    // One divide + blockLen multiplies; detection assembles thousands of
    // overlapping blocks per frame, and per-element division was a
    // measurable share of the cached-grid scan.
    const float invNorm = 1.0f /
                          static_cast<float>(std::sqrt(
                              sumSq + params_.l2Epsilon * params_.l2Epsilon));
    for (int i = 0; i < blockLen; ++i) block[i] *= invNorm;
  }
}

BlockGrid HogExtractor::blockGridFromCells(const CellGrid& grid) const {
  if (params_.blockStrideCells != 1) {
    throw std::invalid_argument(
        "blockGridFromCells: requires blockStrideCells == 1 so every "
        "window origin lines up with a precomputed block");
  }
  const int bc = params_.blockCells;
  BlockGrid blocks;
  blocks.blocksX = grid.cellsX - bc + 1;
  blocks.blocksY = grid.cellsY - bc + 1;
  blocks.blockLen = bc * bc * grid.bins;
  if (blocks.blocksX <= 0 || blocks.blocksY <= 0) {
    blocks.blocksX = 0;
    blocks.blocksY = 0;
    return blocks;
  }
  blocks.data.resize(static_cast<std::size_t>(blocks.blocksX) *
                     blocks.blocksY * blocks.blockLen);
  static obs::Counter& blocksNormalized = obs::counter("blocks_normalized");
  blocksNormalized.add(static_cast<long>(blocks.blocksX) * blocks.blocksY);
  // Block rows write disjoint output rows; assembleBlock only reads the
  // grid, so chunk boundaries cannot change any value.
  parallelForChunked(
      0, blocks.blocksY, suggestedGrain(blocks.blocksY),
      [&](long lo, long hi) {
        for (long by = lo; by < hi; ++by) {
          float* dst = blocks.data.data() +
                       static_cast<std::size_t>(by) * blocks.blocksX *
                           blocks.blockLen;
          for (int bx = 0; bx < blocks.blocksX; ++bx) {
            assembleBlock(grid, bx, static_cast<int>(by), dst);
            dst += blocks.blockLen;
          }
        }
      });
  return blocks;
}

long HogExtractor::refreshBlockRect(const CellGrid& grid, BlockGrid& blocks,
                                    int bx0, int by0, int bx1,
                                    int by1) const {
  if (params_.blockStrideCells != 1) {
    throw std::invalid_argument(
        "refreshBlockRect: requires blockStrideCells == 1");
  }
  if (blocks.blocksX != grid.cellsX - params_.blockCells + 1 ||
      blocks.blocksY != grid.cellsY - params_.blockCells + 1 ||
      blocks.blockLen != params_.blockCells * params_.blockCells * grid.bins) {
    throw std::invalid_argument(
        "refreshBlockRect: block grid does not match cell grid");
  }
  bx0 = std::max(0, bx0);
  by0 = std::max(0, by0);
  bx1 = std::min(blocks.blocksX, bx1);
  by1 = std::min(blocks.blocksY, by1);
  if (bx0 >= bx1 || by0 >= by1) return 0;
  for (int by = by0; by < by1; ++by) {
    for (int bx = bx0; bx < bx1; ++bx) {
      assembleBlock(grid, bx, by, blocks.block(bx, by));
    }
  }
  return static_cast<long>(bx1 - bx0) * (by1 - by0);
}

void HogExtractor::windowDescriptorFromBlocksInto(
    const BlockGrid& blocks, int cx0, int cy0, int windowCellsX,
    int windowCellsY, std::vector<float>& out) const {
  const int bc = params_.blockCells;
  const int wbx = windowCellsX - bc + 1;
  const int wby = windowCellsY - bc + 1;
  if (wbx <= 0 || wby <= 0) {
    out.clear();
    return;
  }
  if (cx0 < 0 || cy0 < 0 || cx0 + wbx > blocks.blocksX ||
      cy0 + wby > blocks.blocksY) {
    throw std::invalid_argument(
        "windowDescriptorFromBlocksInto: window exceeds block grid");
  }
  // With stride 1 the window's blocks are wby contiguous runs of wbx
  // blocks in the level-wide grid: a straight row-wise copy. A reused
  // buffer already has the right size, so resize neither allocates nor
  // zero-fills.
  out.resize(static_cast<std::size_t>(wbx) * wby * blocks.blockLen);
  const std::size_t rowLen = static_cast<std::size_t>(wbx) * blocks.blockLen;
  float* dst = out.data();
  for (int by = 0; by < wby; ++by) {
    std::memcpy(dst, blocks.block(cx0, cy0 + by), sizeof(float) * rowLen);
    dst += rowLen;
  }
}

std::vector<float> HogExtractor::windowDescriptor(
    const vision::Image& window) const {
  return blocksFromGrid(computeCells(window));
}

std::vector<float> HogExtractor::cellDescriptor(
    const vision::Image& window) const {
  CellGrid grid = computeCells(window);
  return std::move(grid.data);
}

int HogExtractor::descriptorSize(int windowWidth, int windowHeight) const {
  const int cellsX = windowWidth / params_.cellSize;
  const int cellsY = windowHeight / params_.cellSize;
  const int bc = params_.blockCells;
  const int stride = params_.blockStrideCells;
  const int blocksX = (cellsX - bc) / stride + 1;
  const int blocksY = (cellsY - bc) / stride + 1;
  if (blocksX <= 0 || blocksY <= 0) return 0;
  return blocksX * blocksY * bc * bc * params_.numBins;
}

}  // namespace pcnn::hog
