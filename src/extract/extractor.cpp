#include "extract/extractor.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/parallel.hpp"

namespace pcnn::extract {

namespace {

hog::HogParams blockAssemblyParams(int bins) {
  hog::HogParams hp;
  hp.numBins = bins;
  hp.blockCells = 2;
  hp.blockStrideCells = 1;
  hp.l2Normalize = true;
  return hp;
}

}  // namespace

const char* layoutName(FeatureLayout layout) {
  switch (layout) {
    case FeatureLayout::kFlatCell:
      return "flat-cell";
    case FeatureLayout::kBlockNorm:
      return "block-norm";
  }
  return "?";
}

FeatureExtractor::FeatureExtractor(std::string name, FeatureLayout layout,
                                   int bins, int windowCellsX,
                                   int windowCellsY, int cellSize)
    : name_(std::move(name)),
      layout_(layout),
      bins_(bins),
      cellSize_(cellSize),
      windowCellsX_(windowCellsX),
      windowCellsY_(windowCellsY),
      blockAssembler_(blockAssemblyParams(bins)) {
  if (bins_ <= 0 || cellSize_ <= 0 || windowCellsX_ <= 0 ||
      windowCellsY_ <= 0) {
    throw std::invalid_argument("FeatureExtractor: invalid geometry");
  }
  batchUs_ = &obs::histogram("extract." + name_ + ".batch_us");
}

FeatureExtractor::BatchScope::BatchScope(FeatureExtractor& extractor,
                                         std::size_t windows)
    : span_("extract.batch", "windows", static_cast<long>(windows)),
      timer_(*extractor.batchUs_) {
  static obs::Counter& extracted = obs::counter("extract.windows");
  extracted.add(static_cast<long>(windows));
}

int FeatureExtractor::featureDim() const {
  switch (layout_) {
    case FeatureLayout::kFlatCell:
      return windowCellsX_ * windowCellsY_ * bins_;
    case FeatureLayout::kBlockNorm: {
      const int blocksX = windowCellsX_ - 1;  // 2x2 blocks, 1-cell stride
      const int blocksY = windowCellsY_ - 1;
      return blocksX * blocksY * 4 * bins_;
    }
  }
  return 0;
}

std::vector<float> FeatureExtractor::windowFromGrid(const hog::CellGrid& grid,
                                                    int cx0, int cy0) const {
  if (layout_ == FeatureLayout::kBlockNorm) {
    return blockAssembler_.windowDescriptorFromGrid(grid, cx0, cy0,
                                                    windowCellsX_,
                                                    windowCellsY_);
  }
  if (cx0 < 0 || cy0 < 0 || cx0 + windowCellsX_ > grid.cellsX ||
      cy0 + windowCellsY_ > grid.cellsY) {
    throw std::invalid_argument("windowFromGrid: window exceeds grid");
  }
  std::vector<float> features;
  features.reserve(static_cast<std::size_t>(windowCellsX_) * windowCellsY_ *
                   grid.bins);
  for (int cy = 0; cy < windowCellsY_; ++cy) {
    for (int cx = 0; cx < windowCellsX_; ++cx) {
      const float* hist = grid.cell(cx0 + cx, cy0 + cy);
      features.insert(features.end(), hist, hist + grid.bins);
    }
  }
  return features;
}

hog::BlockGrid FeatureExtractor::prepareBlocks(
    const hog::CellGrid& grid) const {
  if (layout_ != FeatureLayout::kBlockNorm) return {};
  return blockAssembler_.blockGridFromCells(grid);
}

std::vector<float> FeatureExtractor::windowFromBlocks(
    const hog::BlockGrid& blocks, int cx0, int cy0) const {
  std::vector<float> features;
  windowFromBlocksInto(blocks, cx0, cy0, features);
  return features;
}

void FeatureExtractor::windowFromBlocksInto(const hog::BlockGrid& blocks,
                                            int cx0, int cy0,
                                            std::vector<float>& out) const {
  if (layout_ != FeatureLayout::kBlockNorm) {
    throw std::logic_error(
        "windowFromBlocks: only block-norm extractors have a block grid");
  }
  blockAssembler_.windowDescriptorFromBlocksInto(blocks, cx0, cy0,
                                                 windowCellsX_, windowCellsY_,
                                                 out);
}

std::vector<float> FeatureExtractor::windowFeatures(
    const vision::Image& window) {
  return windowFromGrid(cellGrid(window), 0, 0);
}

namespace {

/// Maps an escaping exception to the closest StatusCode; backends signal
/// caller errors with std::invalid_argument / std::out_of_range and
/// anything else (including simulator faults) lands in kInternal.
Status statusFromException(const std::string& where) {
  try {
    throw;  // rethrow the in-flight exception
  } catch (const std::invalid_argument& e) {
    return Status::InvalidArgument(where + ": " + e.what());
  } catch (const std::out_of_range& e) {
    return Status::OutOfRange(where + ": " + e.what());
  } catch (const std::exception& e) {
    return Status::Internal(where + ": " + e.what());
  } catch (...) {
    return Status::Internal(where + ": unknown exception");
  }
}

obs::Counter& extractFailures() {
  static obs::Counter& failures = obs::counter("extract.failures");
  return failures;
}

}  // namespace

StatusOr<hog::CellGrid> FeatureExtractor::tryCellGrid(
    const vision::Image& image) {
  if (image.empty()) {
    extractFailures().add();
    return Status::InvalidArgument("tryCellGrid(" + name_ + "): empty image");
  }
  if (image.width() < cellSize_ || image.height() < cellSize_) {
    extractFailures().add();
    return Status::InvalidArgument(
        "tryCellGrid(" + name_ + "): image " + std::to_string(image.width()) +
        "x" + std::to_string(image.height()) + " smaller than one " +
        std::to_string(cellSize_) + "px cell");
  }
  try {
    return cellGrid(image);
  } catch (...) {
    extractFailures().add();
    return statusFromException("tryCellGrid(" + name_ + ")");
  }
}

StatusOr<std::vector<float>> FeatureExtractor::tryWindowFeatures(
    const vision::Image& window) {
  if (window.width() < windowCellsX_ * cellSize_ ||
      window.height() < windowCellsY_ * cellSize_) {
    extractFailures().add();
    return Status::InvalidArgument(
        "tryWindowFeatures(" + name_ + "): window " +
        std::to_string(window.width()) + "x" +
        std::to_string(window.height()) + " smaller than the " +
        std::to_string(windowCellsX_ * cellSize_) + "x" +
        std::to_string(windowCellsY_ * cellSize_) + " detection window");
  }
  try {
    return windowFeatures(window);
  } catch (...) {
    extractFailures().add();
    return statusFromException("tryWindowFeatures(" + name_ + ")");
  }
}

StatusOr<long> FeatureExtractor::tryUpdateCellGrid(
    const vision::Image& image, const std::vector<CellRect>& dirty,
    hog::CellGrid& grid) {
  if (image.empty()) {
    extractFailures().add();
    return Status::InvalidArgument("tryUpdateCellGrid(" + name_ +
                                   "): empty image");
  }
  const int cellsX = image.width() / cellSize_;
  const int cellsY = image.height() / cellSize_;
  if (grid.cellsX != cellsX || grid.cellsY != cellsY ||
      grid.bins != bins_ ||
      grid.data.size() != static_cast<std::size_t>(cellsX) * cellsY * bins_) {
    extractFailures().add();
    return Status::InvalidArgument(
        "tryUpdateCellGrid(" + name_ + "): grid " +
        std::to_string(grid.cellsX) + "x" + std::to_string(grid.cellsY) +
        " does not match image " + std::to_string(image.width()) + "x" +
        std::to_string(image.height()));
  }
  long recomputed = 0;
  for (const CellRect& rect : dirty) {
    const int cx0 = std::max(0, rect.cx0);
    const int cy0 = std::max(0, rect.cy0);
    const int cx1 = std::min(cellsX, rect.cx1);
    const int cy1 = std::min(cellsY, rect.cy1);
    if (cx0 >= cx1 || cy0 >= cy1) continue;
    // One cell of context on every side: the gradient stencil reads one
    // pixel beyond the cell, so target cells sitting one full cell inside
    // the crop (or on the image border, where clamping behaves alike) see
    // exactly the pixels the full-image computation would.
    const int ecx0 = std::max(0, cx0 - 1);
    const int ecy0 = std::max(0, cy0 - 1);
    const int ecx1 = std::min(cellsX, cx1 + 1);
    const int ecy1 = std::min(cellsY, cy1 + 1);
    const int px0 = ecx0 * cellSize_;
    const int py0 = ecy0 * cellSize_;
    // Extending the crop to the image border when the rect reaches the
    // last cell column/row keeps border clamping identical to the full
    // image (partial leftover pixels < cellSize, so the crop's own cell
    // count is unchanged).
    const int px1 = ecx1 == cellsX ? image.width() : ecx1 * cellSize_;
    const int py1 = ecy1 == cellsY ? image.height() : ecy1 * cellSize_;
    try {
      const vision::Image region =
          image.crop(px0, py0, px1 - px0, py1 - py0);
      const hog::CellGrid sub = cellGrid(region);
      if (sub.cellsX != ecx1 - ecx0 || sub.cellsY != ecy1 - ecy0 ||
          sub.bins != bins_) {
        extractFailures().add();
        return Status::Internal("tryUpdateCellGrid(" + name_ +
                                "): backend produced a mismatched sub-grid");
      }
      const std::size_t rowBytes =
          sizeof(float) * static_cast<std::size_t>(cx1 - cx0) * bins_;
      for (int cy = cy0; cy < cy1; ++cy) {
        std::memcpy(grid.cell(cx0, cy),
                    sub.cell(cx0 - ecx0, cy - ecy0), rowBytes);
      }
      recomputed += static_cast<long>(cx1 - cx0) * (cy1 - cy0);
    } catch (...) {
      extractFailures().add();
      return statusFromException("tryUpdateCellGrid(" + name_ + ")");
    }
  }
  return recomputed;
}

long FeatureExtractor::updateBlocks(const hog::CellGrid& grid,
                                    const std::vector<CellRect>& dirtyCells,
                                    hog::BlockGrid& blocks) const {
  if (layout_ != FeatureLayout::kBlockNorm) return 0;
  long refreshed = 0;
  for (const CellRect& rect : dirtyCells) {
    // A 2x2 block covers cells [bx, bx+1] x [by, by+1]: blocks one to the
    // left/top of a dirty cell also change.
    refreshed += blockAssembler_.refreshBlockRect(
        grid, blocks, rect.cx0 - 1, rect.cy0 - 1, rect.cx1, rect.cy1);
  }
  return refreshed;
}

std::vector<std::vector<float>> FeatureExtractor::batchFeatures(
    const std::vector<vision::Image>& windows) {
  BatchScope scope(*this, windows.size());
  std::vector<std::vector<float>> out(windows.size());
  if (statelessExtraction()) {
    parallelFor(0, static_cast<long>(windows.size()), [&](long i) {
      out[static_cast<std::size_t>(i)] =
          windowFeatures(windows[static_cast<std::size_t>(i)]);
    });
  } else {
    for (std::size_t i = 0; i < windows.size(); ++i) {
      out[i] = windowFeatures(windows[i]);
    }
  }
  return out;
}

namespace {

constexpr char kStateMagic[5] = "PXST";
constexpr std::uint32_t kStateVersion = 1;

std::uint8_t layoutCode(FeatureLayout layout) {
  return layout == FeatureLayout::kBlockNorm ? 1 : 0;
}

}  // namespace

Status FeatureExtractor::trySaveState(std::ostream& out) {
  io::Writer w(out);
  w.header(kStateMagic, kStateVersion);
  {
    std::ostringstream payload;
    io::Writer pw(payload);
    pw.str(name_);
    pw.u8(layoutCode(layout_));
    pw.u32(static_cast<std::uint32_t>(bins_));
    pw.u32(static_cast<std::uint32_t>(cellSize_));
    pw.u32(static_cast<std::uint32_t>(windowCellsX_));
    pw.u32(static_cast<std::uint32_t>(windowCellsY_));
    if (!pw.status().ok()) return pw.status();
    w.chunk("META", payload.str());
  }
  if (Status status = saveStateBody(w); !status.ok()) return status;
  return w.status();
}

Status FeatureExtractor::trySaveStateFile(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::Unavailable("saveStateFile: cannot open " + path);
  }
  return trySaveState(out);
}

Status FeatureExtractor::tryLoadState(std::istream& in) {
  io::Reader r(in);
  if (!r.header(kStateMagic, kStateVersion).ok()) return r.status();

  io::Reader::Chunk chunk;
  bool end = false;
  for (;;) {
    if (!r.nextChunk(chunk, end).ok()) return r.status();
    if (end) return Status::DataLoss("loadState: missing META chunk");
    if (chunk.tag == "META") break;  // unknown chunks skipped
  }
  {
    std::istringstream payload(chunk.payload);
    io::Reader pr(payload);
    std::string name;
    std::uint8_t layout = 0;
    std::uint32_t bins = 0, cellSize = 0, cellsX = 0, cellsY = 0;
    pr.str(name);
    pr.u8(layout);
    pr.u32(bins);
    pr.u32(cellSize);
    pr.u32(cellsX);
    if (!pr.u32(cellsY).ok()) return pr.status();
    if (name != name_) {
      return Status::FailedPrecondition("loadState: state for extractor \"" +
                                        name + "\" does not match \"" +
                                        name_ + "\"");
    }
    if (layout != layoutCode(layout_) ||
        bins != static_cast<std::uint32_t>(bins_) ||
        cellSize != static_cast<std::uint32_t>(cellSize_) ||
        cellsX != static_cast<std::uint32_t>(windowCellsX_) ||
        cellsY != static_cast<std::uint32_t>(windowCellsY_)) {
      return Status::FailedPrecondition(
          "loadState: geometry mismatch for extractor \"" + name_ + "\"");
    }
  }

  std::vector<io::Reader::Chunk> body;
  for (;;) {
    if (!r.nextChunk(chunk, end).ok()) return r.status();
    if (end) break;
    body.push_back(std::move(chunk));
  }
  return loadStateBody(body);
}

Status FeatureExtractor::tryLoadStateFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Unavailable("loadStateFile: cannot open " + path);
  }
  return tryLoadState(in);
}

Status FeatureExtractor::saveStateBody(io::Writer&) { return Status::Ok(); }

Status FeatureExtractor::loadStateBody(
    const std::vector<io::Reader::Chunk>&) {
  return Status::Ok();
}

float FeatureExtractor::pretrain(int, int, float) { return 0.0f; }

void FeatureExtractor::setInputSpikes(int) {}

std::optional<power::PowerEstimate> FeatureExtractor::powerEstimate(
    const power::FullHdWorkload& workload) const {
  const ExtractorInfo meta = info();
  const power::TrueNorthPowerModel model;
  switch (meta.coding) {
    case CodingScheme::kRateAccumulate:
      return model.napprox(workload, meta.spikeWindow,
                           meta.paperCoresPerCell);
    case CodingScheme::kStochasticStream:
      return model.parrot(workload, meta.spikeWindow, meta.paperCoresPerCell);
    case CodingScheme::kNone:
      break;
  }
  if (meta.fpgaBaseline) {
    const power::FpgaPowerModel fpga;
    power::PowerEstimate estimate;
    estimate.approach = "High-precision HoG on FPGA";
    estimate.signalResolution = std::to_string(fpga.bits) + "-bit";
    estimate.watts = fpga.systemWatts;  // system; logic-only is 1.12 W
    return estimate;
  }
  return std::nullopt;
}

}  // namespace pcnn::extract
