#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/rng.hpp"
#include "vision/draw.hpp"
#include "vision/geometry.hpp"
#include "vision/image.hpp"
#include "vision/nms.hpp"
#include "vision/pgm.hpp"
#include "vision/pyramid.hpp"
#include "vision/sliding_window.hpp"
#include "vision/synth.hpp"

namespace pcnn::vision {
namespace {

TEST(Image, ConstructionAndFill) {
  Image img(4, 3, 0.5f);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_FALSE(img.empty());
  EXPECT_FLOAT_EQ(img.at(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(img.at(3, 2), 0.5f);
}

TEST(Image, DefaultIsEmpty) {
  Image img;
  EXPECT_TRUE(img.empty());
  EXPECT_EQ(img.width(), 0);
}

TEST(Image, NegativeDimensionsThrow) {
  EXPECT_THROW(Image(-1, 4), std::invalid_argument);
  EXPECT_THROW(Image(4, -1), std::invalid_argument);
}

TEST(Image, ClampedAccessReplicatesBorder) {
  Image img(2, 2);
  img.at(0, 0) = 1.0f;
  img.at(1, 0) = 2.0f;
  img.at(0, 1) = 3.0f;
  img.at(1, 1) = 4.0f;
  EXPECT_FLOAT_EQ(img.atClamped(-5, -5), 1.0f);
  EXPECT_FLOAT_EQ(img.atClamped(10, 0), 2.0f);
  EXPECT_FLOAT_EQ(img.atClamped(0, 10), 3.0f);
  EXPECT_FLOAT_EQ(img.atClamped(10, 10), 4.0f);
}

TEST(Image, BilinearSamplingInterpolates) {
  Image img(2, 1);
  img.at(0, 0) = 0.0f;
  img.at(1, 0) = 1.0f;
  EXPECT_NEAR(img.sampleBilinear(0.5f, 0.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(img.sampleBilinear(0.25f, 0.0f), 0.25f, 1e-6f);
}

TEST(Image, CropTakesSubImage) {
  Image img(4, 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) img.at(x, y) = static_cast<float>(y * 4 + x);
  }
  Image sub = img.crop(1, 1, 2, 2);
  EXPECT_EQ(sub.width(), 2);
  EXPECT_FLOAT_EQ(sub.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(sub.at(1, 1), 10.0f);
}

TEST(Image, ClampValuesBoundsRange) {
  Image img(2, 1);
  img.at(0, 0) = -3.0f;
  img.at(1, 0) = 7.0f;
  img.clampValues(0.0f, 1.0f);
  EXPECT_FLOAT_EQ(img.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(img.at(1, 0), 1.0f);
}

TEST(Image, ResizePreservesConstantImage) {
  Image img(10, 20, 0.3f);
  Image out = resizeBilinear(img, 7, 13);
  EXPECT_EQ(out.width(), 7);
  EXPECT_EQ(out.height(), 13);
  for (float v : out.data()) EXPECT_NEAR(v, 0.3f, 1e-6f);
}

TEST(Image, ResizeRejectsBadTarget) {
  Image img(10, 10);
  EXPECT_THROW(resizeBilinear(img, 0, 5), std::invalid_argument);
}

/// Source image filled with seeded uniform noise.
Image noiseImage(int width, int height, std::uint64_t seed) {
  Image img(width, height);
  Rng rng(seed);
  for (float& v : img.data()) v = static_cast<float>(rng.uniform());
  return img;
}

/// dst's rect [x0, x1) x [y0, y1), sampled pixel by pixel through
/// sampleBilinear at resizeBilinear's centre-aligned mapping -- the
/// reference the table-driven resize must reproduce bit for bit.
void referenceResizeInto(const Image& src, Image& dst, int x0, int y0,
                         int x1, int y1) {
  const float sx = static_cast<float>(src.width()) / dst.width();
  const float sy = static_cast<float>(src.height()) / dst.height();
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) {
      const float srcX = (static_cast<float>(x) + 0.5f) * sx - 0.5f;
      const float srcY = (static_cast<float>(y) + 0.5f) * sy - 0.5f;
      dst.at(x, y) = src.sampleBilinear(srcX, srcY);
    }
  }
}

bool bitwiseEqual(const Image& a, const Image& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.data().data(), b.data().data(),
                     sizeof(float) * a.data().size()) == 0;
}

TEST(Image, ResizeMatchesPerPixelSamplingBitwise) {
  // Every 1.1x pyramid step of each source, down to a 1-pixel side: the
  // whole-image resize and a full-rect resizeBilinearInto must both equal
  // per-pixel sampleBilinear exactly (DESIGN.md 5j). The temporal path
  // splices resizeBilinearInto rects into levels built by resizeBilinear,
  // so any divergence between the two would break its parity contract.
  const int sources[][2] = {{640, 480}, {1920, 1080}, {65, 129}, {7, 3}};
  std::uint64_t seed = 11;
  for (const auto& dims : sources) {
    const Image src = noiseImage(dims[0], dims[1], ++seed);
    for (float scale = 1.0f;; scale *= 1.1f) {
      const int w = static_cast<int>(std::lround(dims[0] / scale));
      const int h = static_cast<int>(std::lround(dims[1] / scale));
      if (w < 1 || h < 1) break;
      Image expected(w, h);
      referenceResizeInto(src, expected, 0, 0, w, h);
      ASSERT_TRUE(bitwiseEqual(resizeBilinear(src, w, h), expected))
          << dims[0] << "x" << dims[1] << " -> " << w << "x" << h;
      Image into(w, h, -1.0f);
      resizeBilinearInto(src, into, 0, 0, w, h);
      ASSERT_TRUE(bitwiseEqual(into, expected))
          << dims[0] << "x" << dims[1] << " -> " << w << "x" << h;
    }
  }
}

TEST(Image, ResizeIntoDirtyRectsMatchPerPixelSamplingBitwise) {
  // Dirty sub-rectangles, including degenerate and border cases: pixels
  // inside the (clamped) rect are refreshed bit for bit, pixels outside
  // keep their old value.
  const Image src = noiseImage(97, 61, 5);
  const int sizes[][2] = {{88, 55}, {41, 29}, {97, 61}, {130, 70}, {1, 1}};
  for (const auto& size : sizes) {
    const int w = size[0];
    const int h = size[1];
    const int rects[][4] = {
        {3, 2, 17, 11},          // interior
        {5, 0, 6, h},            // 1 pixel wide, full height
        {0, 4, w, 5},            // 1 pixel tall, full width
        {w - 1, h - 1, w, h},    // the last pixel alone
        {w - 7, 1, w, h},        // touches the last column and row
        {-9, -4, 6, 5},          // clamped past the top-left border
        {w - 3, h - 2, w + 40, h + 9},  // clamped past the bottom-right
        {-5, -5, w + 5, h + 5},  // covers everything, clamped on all sides
        {6, 6, 6, 9},            // empty (x0 == x1)
        {8, 9, 2, 3},            // inverted
    };
    for (const auto& r : rects) {
      Image expected(w, h, -7.0f);
      referenceResizeInto(src, expected, std::max(0, r[0]), std::max(0, r[1]),
                          std::min(w, r[2]), std::min(h, r[3]));
      Image into(w, h, -7.0f);
      resizeBilinearInto(src, into, r[0], r[1], r[2], r[3]);
      ASSERT_TRUE(bitwiseEqual(into, expected))
          << w << "x" << h << " rect " << r[0] << "," << r[1] << " " << r[2]
          << "," << r[3];
    }
  }
}

TEST(Image, RgbToGrayUsesLumaWeights) {
  const unsigned char rgb[3] = {255, 0, 0};
  Image img = rgbToGray(rgb, 1, 1);
  EXPECT_NEAR(img.at(0, 0), 0.299f, 1e-3f);
}

TEST(Image, MeanValue) {
  Image img(2, 1);
  img.at(0, 0) = 0.0f;
  img.at(1, 0) = 1.0f;
  EXPECT_NEAR(meanValue(img), 0.5f, 1e-6f);
  EXPECT_FLOAT_EQ(meanValue(Image{}), 0.0f);
}

TEST(Geometry, IouIdentityAndDisjoint) {
  Rect a{0, 0, 10, 10};
  EXPECT_NEAR(iou(a, a), 1.0f, 1e-6f);
  Rect b{20, 20, 10, 10};
  EXPECT_FLOAT_EQ(iou(a, b), 0.0f);
}

TEST(Geometry, IouHalfOverlap) {
  Rect a{0, 0, 10, 10};
  Rect b{5, 0, 10, 10};
  // intersection 50, union 150.
  EXPECT_NEAR(iou(a, b), 50.0f / 150.0f, 1e-5f);
}

TEST(Geometry, OverlapOverMin) {
  Rect big{0, 0, 100, 100};
  Rect small{10, 10, 10, 10};
  EXPECT_NEAR(overlapOverMin(big, small), 1.0f, 1e-6f);
}

TEST(Nms, SuppressesNestedWeakerBoxes) {
  std::vector<Detection> dets = {
      {{0, 0, 100, 100}, 0.9f},
      {{5, 5, 90, 90}, 0.5f},   // inside the first
      {{300, 300, 50, 50}, 0.7f},
  };
  auto kept = nonMaximumSuppression(dets, 0.2f);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_FLOAT_EQ(kept[0].score, 0.9f);
  EXPECT_FLOAT_EQ(kept[1].score, 0.7f);
}

TEST(Nms, KeepsPartiallyOverlappingBoxes) {
  std::vector<Detection> dets = {
      {{0, 0, 100, 100}, 0.9f},
      {{70, 0, 100, 100}, 0.8f},  // 30% of the smaller box overlaps
  };
  auto kept = nonMaximumSuppression(dets, 0.2f);
  EXPECT_EQ(kept.size(), 2u);
}

TEST(Nms, Idempotent) {
  Rng rng(99);
  std::vector<Detection> dets;
  for (int i = 0; i < 40; ++i) {
    dets.push_back({{static_cast<float>(rng.uniformInt(0, 200)),
                     static_cast<float>(rng.uniformInt(0, 200)),
                     static_cast<float>(rng.uniformInt(20, 80)),
                     static_cast<float>(rng.uniformInt(40, 160))},
                    static_cast<float>(rng.uniform())});
  }
  const auto once = nonMaximumSuppression(dets, 0.2f);
  const auto twice = nonMaximumSuppression(once, 0.2f);
  ASSERT_EQ(once.size(), twice.size());
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_FLOAT_EQ(once[i].score, twice[i].score);
  }
}

TEST(Nms, KeptSetRespectsOverlapBound) {
  Rng rng(101);
  std::vector<Detection> dets;
  for (int i = 0; i < 60; ++i) {
    dets.push_back({{static_cast<float>(rng.uniformInt(0, 100)),
                     static_cast<float>(rng.uniformInt(0, 100)),
                     64.0f, 128.0f},
                    static_cast<float>(rng.uniform())});
  }
  const float epsilon = 0.2f;
  const auto kept = nonMaximumSuppression(dets, epsilon);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    for (std::size_t j = i + 1; j < kept.size(); ++j) {
      EXPECT_LE(overlapOverMin(kept[i].box, kept[j].box),
                1.0f - epsilon + 1e-6f);
    }
  }
}

TEST(Nms, EmptyInput) {
  EXPECT_TRUE(nonMaximumSuppression({}, 0.2f).empty());
}

TEST(Pyramid, ScalesByFactor) {
  Image img(220, 440, 0.5f);
  PyramidParams pp;
  pp.scaleFactor = 1.1f;
  pp.minWidth = 64;
  pp.minHeight = 128;
  auto levels = buildPyramid(img, pp);
  ASSERT_GE(levels.size(), 3u);
  EXPECT_EQ(levels[0].image.width(), 220);
  EXPECT_FLOAT_EQ(levels[0].scale, 1.0f);
  EXPECT_NEAR(levels[1].image.width(), 200, 1);
  EXPECT_NEAR(levels[1].scale, 1.1f, 1e-5f);
  // Smallest level still fits the window.
  EXPECT_GE(levels.back().image.width(), 64);
  EXPECT_GE(levels.back().image.height(), 128);
}

TEST(Pyramid, RejectsNonShrinkingFactor) {
  Image img(100, 100);
  PyramidParams pp;
  pp.scaleFactor = 1.0f;
  EXPECT_THROW(buildPyramid(img, pp), std::invalid_argument);
}

// The deprecated brute-force scan stays covered until it is removed.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

TEST(SlidingWindow, CountMatchesClosedForm) {
  Image img(128, 256, 0.0f);
  SlidingWindowParams params;
  params.pyramid.maxLevels = 1;  // single level
  const long expected =
      ((128 - 64) / 8 + 1) * ((256 - 128) / 8 + 1);
  EXPECT_EQ(countWindows(img, params), expected);
}

TEST(SlidingWindow, OriginalCoordinatesScaled) {
  Image img(141, 282, 0.0f);  // second level ~128x256
  SlidingWindowParams params;
  bool sawScaled = false;
  forEachWindow(img, params,
                [&](const Image&, const Rect& inLevel, const Rect& inOrig) {
                  // Restrict to level 1 (level 2 windows scale by 1.21).
                  if (inOrig.w > 64.5f && inOrig.w < 75.0f) {
                    sawScaled = true;
                    EXPECT_NEAR(inOrig.w / inLevel.w, 1.1f, 0.02f);
                  }
                });
  EXPECT_TRUE(sawScaled);
}

#pragma GCC diagnostic pop

TEST(Pgm, RoundTrip) {
  Image img(16, 8);
  Rng rng(11);
  for (float& v : img.data()) v = static_cast<float>(rng.uniform());
  const std::string path = "/tmp/pcnn_test_roundtrip.pgm";
  writePgm(img, path);
  Image back = readPgm(path);
  ASSERT_EQ(back.width(), 16);
  ASSERT_EQ(back.height(), 8);
  for (std::size_t i = 0; i < img.data().size(); ++i) {
    EXPECT_NEAR(back.data()[i], img.data()[i], 1.0f / 255.0f);
  }
  std::remove(path.c_str());
}

TEST(Pgm, MissingFileThrows) {
  EXPECT_THROW(readPgm("/tmp/definitely_missing_pcnn.pgm"),
               std::runtime_error);
}

TEST(Synth, ValueNoiseStaysInRange) {
  Rng rng(5);
  Image img = valueNoise(64, 64, 8, 0.5f, 0.3f, rng);
  for (float v : img.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(Synth, PositiveWindowHasPersonContrast) {
  SyntheticPersonDataset dataset;
  Rng rng(7);
  // A positive window must contain more gradient energy in its centre
  // column band than a flat background would.
  const Image img = dataset.positiveWindow(rng);
  EXPECT_EQ(img.width(), 64);
  EXPECT_EQ(img.height(), 128);
  double centerVar = 0.0;
  const float mean = meanValue(img);
  for (int y = 20; y < 110; ++y) {
    for (int x = 24; x < 40; ++x) {
      centerVar += (img.at(x, y) - mean) * (img.at(x, y) - mean);
    }
  }
  EXPECT_GT(centerVar, 1.0);
}

TEST(Synth, WindowsAreDeterministicGivenSeed) {
  SyntheticPersonDataset dataset;
  Rng rngA(42), rngB(42);
  const Image a = dataset.positiveWindow(rngA);
  const Image b = dataset.positiveWindow(rngB);
  EXPECT_EQ(a.data(), b.data());
}

TEST(Synth, SceneGroundTruthInsideImage) {
  SyntheticPersonDataset dataset;
  Rng rng(3);
  const Scene scene = dataset.scene(rng, 320, 240, 3, 96, 160);
  EXPECT_EQ(scene.groundTruth.size(), 3u);
  for (const Rect& gt : scene.groundTruth) {
    EXPECT_GT(gt.w, 0.0f);
    EXPECT_GT(gt.h, 0.0f);
    // Window-aligned boxes keep the 1:2 aspect.
    EXPECT_NEAR(gt.h / gt.w, 2.0f, 0.01f);
  }
}

TEST(Draw, RgbFromGrayReplicatesChannels) {
  Image gray(2, 1);
  gray.at(0, 0) = 0.25f;
  gray.at(1, 0) = 0.75f;
  RgbImage rgb(gray);
  for (int c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(rgb.at(0, 0, c), 0.25f);
    EXPECT_FLOAT_EQ(rgb.at(1, 0, c), 0.75f);
  }
}

TEST(Draw, RectOutlineAndClipping) {
  RgbImage img(10, 10);
  drawRect(img, Rect{2, 3, 4, 5}, Color{1, 0, 0});
  EXPECT_FLOAT_EQ(img.at(2, 3, 0), 1.0f);   // top-left corner
  EXPECT_FLOAT_EQ(img.at(5, 7, 0), 1.0f);   // bottom-right corner
  EXPECT_FLOAT_EQ(img.at(3, 5, 0), 0.0f);   // interior untouched
  // Clipping: a rect hanging off the image must not crash or wrap.
  drawRect(img, Rect{-5, -5, 8, 8}, Color{0, 1, 0});
  EXPECT_FLOAT_EQ(img.at(2, 0, 1), 1.0f);
}

TEST(Draw, LineEndpoints) {
  RgbImage img(10, 10);
  drawLine(img, 0, 0, 9, 9, Color{0, 0, 1});
  EXPECT_FLOAT_EQ(img.at(0, 0, 2), 1.0f);
  EXPECT_FLOAT_EQ(img.at(9, 9, 2), 1.0f);
  EXPECT_FLOAT_EQ(img.at(5, 5, 2), 1.0f);  // on the diagonal
}

TEST(Draw, PpmWriteProducesCorrectSize) {
  RgbImage img(7, 3, 0.5f, 0.5f, 0.5f);
  const std::string path = "/tmp/pcnn_test_draw.ppm";
  writePpm(img, path);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  ASSERT_TRUE(in.good());
  // header "P6\n7 3\n255\n" = 11 bytes + 7*3*3 payload.
  EXPECT_EQ(static_cast<long>(in.tellg()), 11 + 7 * 3 * 3);
  std::remove(path.c_str());
}

TEST(Draw, NegativeDimensionsThrow) {
  EXPECT_THROW(RgbImage(-1, 3), std::invalid_argument);
}

TEST(Synth, NegativeWindowsVary) {
  SyntheticPersonDataset dataset;
  Rng rng(9);
  const Image a = dataset.negativeWindow(rng);
  const Image b = dataset.negativeWindow(rng);
  EXPECT_NE(a.data(), b.data());
}

}  // namespace
}  // namespace pcnn::vision
