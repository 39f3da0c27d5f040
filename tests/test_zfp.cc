// ZFP-style fixed-rate compressor tests (the cuZFP stand-in): transform
// invertibility, rate/ratio arithmetic, quality-vs-rate monotonicity, and
// the fixed-rate-mode limitation itself.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "core/metrics.hh"
#include "zfp/zfp.hh"

namespace {

using namespace szp;
using zfp::ZfpConfig;
using zfp::zfp_compress;
using zfp::zfp_decompress;

std::vector<float> smooth_field(const Extents& ext, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(ext.count());
  float acc = 0.0f;
  for (auto& x : v) {
    acc = 0.99f * acc + 0.04f * dist(rng);
    x = acc;
  }
  return v;
}

ZfpConfig rate(double bits) {
  ZfpConfig cfg;
  cfg.rate_bits_per_value = bits;
  return cfg;
}

class ZfpRanks : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ZfpRanks, HighRateRoundTripIsNearLossless) {
  const auto [rank, ragged] = GetParam();
  const Extents ext = rank == 1   ? Extents::d1(ragged ? 1001 : 1024)
                      : rank == 2 ? Extents::d2(ragged ? 33 : 32, ragged ? 47 : 48)
                                  : Extents::d3(ragged ? 9 : 8, ragged ? 13 : 12, ragged ? 18 : 16);
  const auto data = smooth_field(ext, static_cast<std::uint32_t>(rank * 7 + ragged));
  const auto c = zfp_compress(data, ext, rate(32.0));
  const auto d = zfp_decompress(c.bytes);
  ASSERT_EQ(d.extents, ext);
  const auto m = compare_fields(data, d.data);
  // At 32 bits/value every encoded plane fits: error is just the 25-bit
  // fixed-point rounding of the block max.
  EXPECT_LT(m.max_abs_error, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(RankRagged, ZfpRanks,
                         ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Bool()));

TEST(Zfp, ErrorDecreasesMonotonicallyWithRate) {
  const Extents ext = Extents::d2(64, 64);
  const auto data = smooth_field(ext, 3);
  double prev_err = 1e30;
  for (const double bits : {2.0, 4.0, 8.0, 16.0}) {
    const auto d = zfp_decompress(zfp_compress(data, ext, rate(bits)).bytes);
    const double err = compare_fields(data, d.data).max_abs_error;
    EXPECT_LT(err, prev_err) << bits;
    prev_err = err;
  }
}

TEST(Zfp, RatioTracksTheFixedRate) {
  // Fixed-rate mode: the ratio is known before compressing — and it is the
  // ONLY mode (the cuZFP limitation the paper cites, §VI).
  const Extents ext = Extents::d3(32, 32, 32);
  const auto data = smooth_field(ext, 4);
  for (const double bits : {4.0, 8.0, 16.0}) {
    const auto c = zfp_compress(data, ext, rate(bits));
    EXPECT_NEAR(c.ratio, 32.0 / bits, 0.15 * 32.0 / bits) << bits;
  }
}

TEST(Zfp, RatioIsDataIndependent) {
  // The flip side of fixed rate: rough data gets the same ratio as smooth
  // data (where an error-bounded compressor would differ wildly).
  const Extents ext = Extents::d2(48, 48);
  const auto smooth = smooth_field(ext, 5);
  std::vector<float> rough(ext.count());
  std::mt19937 rng(6);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& x : rough) x = dist(rng);

  const auto cs = zfp_compress(smooth, ext, rate(8.0));
  const auto cr = zfp_compress(rough, ext, rate(8.0));
  EXPECT_EQ(cs.bytes.size(), cr.bytes.size());
}

TEST(Zfp, ConstantAndZeroBlocks) {
  const Extents ext = Extents::d2(16, 16);
  std::vector<float> zeros(ext.count(), 0.0f);
  auto d = zfp_decompress(zfp_compress(zeros, ext, rate(4.0)).bytes);
  for (const auto v : d.data) EXPECT_EQ(v, 0.0f);

  std::vector<float> constant(ext.count(), 7.25f);
  d = zfp_decompress(zfp_compress(constant, ext, rate(8.0)).bytes);
  for (const auto v : d.data) EXPECT_NEAR(v, 7.25f, 1e-3f);
}

TEST(Zfp, NegativeValuesSurvive) {
  // 1-D blocks are header-heavy (16-bit exponent per 4 values), so the
  // effective payload at 16 bits/value is modest; check sign fidelity and
  // sub-percent relative error rather than a tight absolute bound.
  const Extents ext = Extents::d1(64);
  std::vector<float> data(64);
  for (std::size_t i = 0; i < 64; ++i) data[i] = -5.0f + 0.1f * static_cast<float>(i);
  const auto d = zfp_decompress(zfp_compress(data, ext, rate(16.0)).bytes);
  const auto m = compare_fields(data, d.data);
  EXPECT_LT(m.max_abs_error / m.value_range, 0.01);
  for (std::size_t i = 0; i < 40; ++i) EXPECT_LT(d.data[i], 0.0f) << i;
}

TEST(Zfp, SmoothDataBeatsRoughAtSameRate) {
  // The transform concentrates smooth blocks' energy in few coefficients,
  // so truncation hurts smooth data less.
  const Extents ext = Extents::d2(64, 64);
  const auto smooth = smooth_field(ext, 8);
  std::vector<float> rough(ext.count());
  std::mt19937 rng(9);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& x : rough) x = dist(rng);

  const auto ds = zfp_decompress(zfp_compress(smooth, ext, rate(6.0)).bytes);
  const auto dr = zfp_decompress(zfp_compress(rough, ext, rate(6.0)).bytes);
  EXPECT_LT(compare_fields(smooth, ds.data).nrmse, compare_fields(rough, dr.data).nrmse);
}

TEST(Zfp, RejectsBadInput) {
  std::vector<float> data(16, 1.0f);
  EXPECT_THROW((void)zfp_compress(data, Extents::d1(17), rate(8.0)), std::invalid_argument);
  EXPECT_THROW((void)zfp_compress(data, Extents::d1(16), rate(0.5)), std::invalid_argument);
  EXPECT_THROW((void)zfp_compress(data, Extents::d1(16), rate(40.0)), std::invalid_argument);

  std::vector<std::uint8_t> junk{9, 9, 9, 9};
  EXPECT_THROW((void)zfp_decompress(junk), std::runtime_error);

  auto c = zfp_compress(data, Extents::d1(16), rate(8.0));
  c.bytes.resize(c.bytes.size() - 4);
  EXPECT_THROW((void)zfp_decompress(c.bytes), std::runtime_error);
}

// ---- Lifting transform at the int32 limits --------------------------------

/// The lifts spelled out in int64 with an explicit reduction mod 2^32 after
/// every step: the two's-complement semantics the transforms promise.
std::int32_t wrap32(std::int64_t v) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(v));
}

std::array<std::int32_t, 4> reference_inv_lift(std::array<std::int32_t, 4> v) {
  std::int64_t x = v[0], y = v[1], z = v[2], w = v[3];
  y = wrap32(y + (w >> 1)); w = wrap32(w - (y >> 1));
  y = wrap32(y + w); w = wrap32(w * 2); w = wrap32(w - y);
  z = wrap32(z + x); x = wrap32(x * 2); x = wrap32(x - z);
  y = wrap32(y + z); z = wrap32(z * 2); z = wrap32(z - y);
  w = wrap32(w + x); x = wrap32(x * 2); x = wrap32(x - w);
  return {wrap32(x), wrap32(y), wrap32(z), wrap32(w)};
}

std::array<std::int32_t, 4> reference_fwd_lift(std::array<std::int32_t, 4> v) {
  std::int64_t x = v[0], y = v[1], z = v[2], w = v[3];
  x = wrap32(x + w); x >>= 1; w = wrap32(w - x);
  z = wrap32(z + y); z >>= 1; y = wrap32(y - z);
  x = wrap32(x + z); x >>= 1; z = wrap32(z - x);
  w = wrap32(w + y); w >>= 1; y = wrap32(y - w);
  w = wrap32(w + (y >> 1)); y = wrap32(y - (w >> 1));
  return {wrap32(x), wrap32(y), wrap32(z), wrap32(w)};
}

TEST(ZfpLift, ExtremeCoefficientsWrapInsteadOfOverflowing) {
  // Coefficients a corrupt stream can decode to: every combination of
  // INT32_MIN / INT32_MAX / -1 / 0 / 1 in the four lanes, through both lifts
  // at a non-unit stride.  An UBSan build flags any signed overflow here.
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  const std::array<std::int32_t, 5> picks{kMin, kMax, -1, 0, 1};
  std::size_t cases = 0;
  for (const auto a : picks)
    for (const auto b : picks)
      for (const auto c : picks)
        for (const auto d : picks) {
          const std::array<std::int32_t, 4> in{a, b, c, d};
          std::array<std::int32_t, 8> strided{a, 7, b, 7, c, 7, d, 7};
          zfp::inv_lift(strided.data(), 2);
          EXPECT_EQ((std::array<std::int32_t, 4>{strided[0], strided[2], strided[4], strided[6]}),
                    reference_inv_lift(in));
          EXPECT_EQ(strided[1], 7);  // off-stride lanes untouched
          std::array<std::int32_t, 4> fwd = in;
          zfp::fwd_lift(fwd.data(), 1);
          EXPECT_EQ(fwd, reference_fwd_lift(in));
          ++cases;
        }
  EXPECT_EQ(cases, 625u);
}

/// The former plain-int32 lifts, valid only where nothing overflows.
std::array<std::int32_t, 4> plain_inv_lift(std::array<std::int32_t, 4> v) {
  std::int32_t x = v[0], y = v[1], z = v[2], w = v[3];
  y += w >> 1; w -= y >> 1;
  y += w; w <<= 1; w -= y;
  z += x; x <<= 1; x -= z;
  y += z; z <<= 1; z -= y;
  w += x; x <<= 1; x -= w;
  return {x, y, z, w};
}

std::array<std::int32_t, 4> plain_fwd_lift(std::array<std::int32_t, 4> v) {
  std::int32_t x = v[0], y = v[1], z = v[2], w = v[3];
  x += w; x >>= 1; w -= x;
  z += y; z >>= 1; y -= z;
  x += z; x >>= 1; z -= x;
  w += y; w >>= 1; y -= w;
  w += y >> 1; y -= w >> 1;
  return {x, y, z, w};
}

TEST(ZfpLift, InRangeCoefficientsKeepTheirBits) {
  // Blocks a valid encoder produces never wrap; there the wrapping lifts
  // give exactly the plain int32 arithmetic's bits.  |coeff| < 2^26 keeps
  // every intermediate of the plain version inside int32.
  std::mt19937 rng(17);
  std::uniform_int_distribution<std::int32_t> coeff(-(1 << 26), 1 << 26);
  for (int i = 0; i < 10000; ++i) {
    const std::array<std::int32_t, 4> in{coeff(rng), coeff(rng), coeff(rng), coeff(rng)};
    auto inv = in;
    zfp::inv_lift(inv.data(), 1);
    ASSERT_EQ(inv, plain_inv_lift(in));
    auto fwd = in;
    zfp::fwd_lift(fwd.data(), 1);
    ASSERT_EQ(fwd, plain_fwd_lift(in));
  }
}

}  // namespace
