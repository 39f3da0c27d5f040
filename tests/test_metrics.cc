// Distortion metric tests (PSNR, max error, compression ratio).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/eb.hh"
#include "core/metrics.hh"

namespace {

using szp::compare_fields;
using szp::compression_ratio;
using szp::ErrorBound;
using szp::ValueRange;

TEST(Metrics, IdenticalFieldsHaveInfinitePsnr) {
  const std::vector<float> a{0.0f, 1.0f, 2.0f, 3.0f};
  const auto m = compare_fields(a, a);
  EXPECT_EQ(m.max_abs_error, 0.0);
  EXPECT_EQ(m.mse, 0.0);
  EXPECT_TRUE(std::isinf(m.psnr_db));
}

TEST(Metrics, KnownErrorValues) {
  const std::vector<float> a{0.0f, 10.0f};
  const std::vector<float> b{1.0f, 10.0f};
  const auto m = compare_fields(a, b);
  EXPECT_DOUBLE_EQ(m.max_abs_error, 1.0);
  EXPECT_DOUBLE_EQ(m.mse, 0.5);
  EXPECT_DOUBLE_EQ(m.value_range, 10.0);
  // PSNR = 20 log10(10) - 10 log10(0.5) = 20 + 3.0103
  EXPECT_NEAR(m.psnr_db, 23.0103, 1e-3);
}

TEST(Metrics, SizeMismatchThrows) {
  const std::vector<float> a{1.0f};
  const std::vector<float> b{1.0f, 2.0f};
  EXPECT_THROW((void)compare_fields(a, b), std::invalid_argument);
}

TEST(Metrics, CompressionRatio) {
  EXPECT_DOUBLE_EQ(compression_ratio(100, 25), 4.0);
  EXPECT_DOUBLE_EQ(compression_ratio(100, 0), 0.0);
}

TEST(ValueRangeT, MinMax) {
  const std::vector<float> v{3.0f, -1.0f, 7.0f};
  const auto r = ValueRange::of(v);
  EXPECT_EQ(r.min, -1.0);
  EXPECT_EQ(r.max, 7.0);
  EXPECT_EQ(r.span(), 8.0);
}

/// Scalar reference: NaN never enters min/max, any NaN or ±Inf clears
/// `finite`.
template <typename T>
ValueRange reference_range(const std::vector<T>& v) {
  ValueRange r{std::numeric_limits<double>::infinity(),
               -std::numeric_limits<double>::infinity(), true};
  for (const T x : v) {
    r.finite = r.finite && std::isfinite(x);
    if (std::isnan(x)) continue;
    r.min = std::min(r.min, static_cast<double>(x));
    r.max = std::max(r.max, static_cast<double>(x));
  }
  return r;
}

template <typename T>
void expect_range_eq(const ValueRange& got, const ValueRange& want, const std::string& where) {
  EXPECT_EQ(got.finite, want.finite) << where;
  EXPECT_EQ(got.min, want.min) << where;  // == also equates +0 and -0
  EXPECT_EQ(got.max, want.max) << where;
  // The resolved bound only sees span() and max_abs(): those are bit-exact.
  if (std::isfinite(want.min) && std::isfinite(want.max)) {
    EXPECT_EQ(got.span(), want.span()) << where;
    EXPECT_EQ(got.max_abs(), want.max_abs()) << where;
  }
}

template <typename T>
void check_value_range_oracle() {
  using L = std::numeric_limits<T>;
  const std::vector<T> specials{T{0},         -T{0},        L::denorm_min(), -L::denorm_min(),
                                L::min(),     L::max(),     L::lowest(),     T{1.5},
                                L::infinity(), -L::infinity(), L::quiet_NaN()};
  // Every special value alone.
  for (const T x : specials) {
    const std::vector<T> one{x};
    expect_range_eq<T>(ValueRange::of(one), reference_range(one), "single");
  }
  // Specials scattered over fields that span the scan's lanes and runs.
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> dist(-5.0, 5.0);
  for (const std::size_t n : {std::size_t{2}, std::size_t{15}, std::size_t{16},
                              std::size_t{17}, std::size_t{40}, ValueRange::kRunElems + 17,
                              3 * ValueRange::kRunElems + 5}) {
    for (std::size_t pick = 0; pick <= specials.size(); ++pick) {
      std::vector<T> v(n);
      for (auto& x : v) x = static_cast<T>(dist(rng));
      if (pick < specials.size()) {
        v[rng() % n] = specials[pick];
        v[n - 1] = specials[pick];
      }
      const std::string where = "n=" + std::to_string(n) + " special " + std::to_string(pick);
      const ValueRange want = reference_range(v);
      expect_range_eq<T>(ValueRange::of(v), want, where);
      // Any split into runs merges to the same range (the streamed scan
      // splits the field differently from the in-memory one).
      ValueRange merged = ValueRange::of_run(v.data(), std::min<std::size_t>(n, 7));
      for (std::size_t at = 7; at < n; at += 1000) {
        merged.merge(ValueRange::of_run(v.data() + at, std::min<std::size_t>(1000, n - at)));
      }
      expect_range_eq<T>(merged, want, where + " merged");
    }
  }
  // An all-NaN run: no value enters min/max.
  const std::vector<T> nans(33, L::quiet_NaN());
  const ValueRange r = ValueRange::of(nans);
  EXPECT_FALSE(r.finite);
  EXPECT_EQ(r.min, std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.max, -std::numeric_limits<double>::infinity());
}

TEST(ValueRangeOracle, SpecialValuesFloat) { check_value_range_oracle<float>(); }

TEST(ValueRangeOracle, SpecialValuesDouble) { check_value_range_oracle<double>(); }

TEST(ErrorBoundT, AbsoluteIgnoresRange) {
  EXPECT_DOUBLE_EQ(ErrorBound::absolute(0.5).resolve(100.0), 0.5);
}

TEST(ErrorBoundT, RelativeScalesByRange) {
  EXPECT_DOUBLE_EQ(ErrorBound::relative(1e-2).resolve(50.0), 0.5);
  // Degenerate (constant) fields fall back to range 1.
  EXPECT_DOUBLE_EQ(ErrorBound::relative(1e-2).resolve(0.0), 1e-2);
}

TEST(ErrorBoundT, InvalidValuesThrow) {
  EXPECT_THROW((void)ErrorBound::absolute(0.0).resolve(1.0), std::invalid_argument);
  EXPECT_THROW((void)ErrorBound::relative(-1.0).resolve(1.0), std::invalid_argument);
}

}  // namespace
