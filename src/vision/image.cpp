#include "vision/image.hpp"

#include <algorithm>
#include <cmath>

namespace pcnn::vision {

float Image::sampleBilinear(float x, float y) const {
  const int x0 = static_cast<int>(std::floor(x));
  const int y0 = static_cast<int>(std::floor(y));
  const float fx = x - static_cast<float>(x0);
  const float fy = y - static_cast<float>(y0);
  const float v00 = atClamped(x0, y0);
  const float v10 = atClamped(x0 + 1, y0);
  const float v01 = atClamped(x0, y0 + 1);
  const float v11 = atClamped(x0 + 1, y0 + 1);
  const float top = v00 + fx * (v10 - v00);
  const float bot = v01 + fx * (v11 - v01);
  return top + fy * (bot - top);
}

Image Image::crop(int x, int y, int w, int h) const {
  Image out(w, h);
  for (int j = 0; j < h; ++j) {
    for (int i = 0; i < w; ++i) {
      out.at(i, j) = atClamped(x + i, y + j);
    }
  }
  return out;
}

void Image::clampValues(float lo, float hi) {
  for (float& v : data_) v = std::clamp(v, lo, hi);
}

Image resizeBilinear(const Image& src, int newWidth, int newHeight) {
  if (newWidth <= 0 || newHeight <= 0) {
    throw std::invalid_argument("resizeBilinear: non-positive target size");
  }
  Image out(newWidth, newHeight);
  if (src.empty()) return out;
  resizeBilinearInto(src, out, 0, 0, newWidth, newHeight);
  return out;
}

void resizeBilinearInto(const Image& src, Image& dst, int x0, int y0, int x1,
                        int y1) {
  if (src.empty() || dst.empty()) return;
  x0 = std::max(0, x0);
  y0 = std::max(0, y0);
  x1 = std::min(dst.width(), x1);
  y1 = std::min(dst.height(), y1);
  if (x0 >= x1 || y0 >= y1) return;
  const float sx = static_cast<float>(src.width()) / dst.width();
  const float sy = static_cast<float>(src.height()) / dst.height();
  // Sample at the centre of the destination pixel mapped into source
  // coordinates; -0.5 keeps the mapping symmetric. The taps depend on x
  // alone or y alone, so they are tabulated once per call instead of once
  // per pixel. Each pixel then evaluates sampleBilinear's exact float
  // expressions on the same clamped taps, which keeps the output bitwise
  // equal to per-pixel sampling (DESIGN.md 5j).
  auto tap = [](float s, int size, int& lo, int& hi) {
    const int i = static_cast<int>(std::floor(s));
    lo = std::clamp(i, 0, size - 1);
    hi = std::clamp(i + 1, 0, size - 1);
    return s - static_cast<float>(i);
  };
  const int cols = x1 - x0;
  std::vector<int> xa(static_cast<std::size_t>(cols));
  std::vector<int> xb(static_cast<std::size_t>(cols));
  std::vector<float> fx(static_cast<std::size_t>(cols));
  for (int i = 0; i < cols; ++i) {
    const float srcX = (static_cast<float>(x0 + i) + 0.5f) * sx - 0.5f;
    fx[i] = tap(srcX, src.width(), xa[i], xb[i]);
  }
  const float* pixels = src.data().data();
  const std::size_t stride = static_cast<std::size_t>(src.width());
  for (int y = y0; y < y1; ++y) {
    const float srcY = (static_cast<float>(y) + 0.5f) * sy - 0.5f;
    int ya = 0;
    int yb = 0;
    const float fy = tap(srcY, src.height(), ya, yb);
    const float* rowA = pixels + static_cast<std::size_t>(ya) * stride;
    const float* rowB = pixels + static_cast<std::size_t>(yb) * stride;
    float* out = &dst.at(x0, y);
    for (int i = 0; i < cols; ++i) {
      const float v00 = rowA[xa[i]];
      const float v10 = rowA[xb[i]];
      const float v01 = rowB[xa[i]];
      const float v11 = rowB[xb[i]];
      const float top = v00 + fx[i] * (v10 - v00);
      const float bot = v01 + fx[i] * (v11 - v01);
      out[i] = top + fy * (bot - top);
    }
  }
}

Image rgbToGray(const unsigned char* rgb, int width, int height) {
  Image out(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const std::size_t base =
          (static_cast<std::size_t>(y) * width + x) * 3;
      const float r = rgb[base] / 255.0f;
      const float g = rgb[base + 1] / 255.0f;
      const float b = rgb[base + 2] / 255.0f;
      out.at(x, y) = 0.299f * r + 0.587f * g + 0.114f * b;
    }
  }
  return out;
}

float meanValue(const Image& img) {
  if (img.empty()) return 0.0f;
  double sum = 0.0;
  for (float v : img.data()) sum += v;
  return static_cast<float>(sum / img.data().size());
}

}  // namespace pcnn::vision
