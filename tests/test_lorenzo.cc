// Lorenzo predictor tests: dual-quantization correctness, the partial-sum
// reconstruction theorem (paper §IV-B), the error-bound invariant, outlier
// schemes, and chunk-boundary handling.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/predictor/lorenzo.hh"
#include "sim/sparse.hh"

namespace {

using namespace szp;

std::vector<float> random_field(const Extents& ext, std::uint32_t seed, float amplitude = 1.0f) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-amplitude, amplitude);
  std::vector<float> v(ext.count());
  // Smooth-ish random walk along x so most residuals are small but not all.
  float acc = 0.0f;
  for (auto& x : v) {
    acc = 0.98f * acc + 0.1f * dist(rng);
    x = acc + 0.02f * dist(rng);
  }
  return v;
}

/// The construct's gathered outliers scattered back to one value per
/// element (0 where there is none).
std::vector<qdiff_t> dense_outliers(const LorenzoConstructResult& res) {
  std::vector<qdiff_t> dense(res.quant.size(), 0);
  sim::scatter_add(lorenzo_outliers(res), std::span<qdiff_t>(dense));
  return dense;
}

/// Full fine-grained round trip through the cuSZ+ residual scheme.
std::vector<float> roundtrip_fine(std::span<const float> data, const Extents& ext, double eb,
                                  const QuantConfig& qcfg, const ReconstructConfig& rcfg) {
  auto res = lorenzo_construct(data, ext, eb, qcfg, OutlierScheme::kResidual);
  const auto sparse = lorenzo_outliers(res);
  std::vector<float> out(ext.count());
  lorenzo_reconstruct(res.quant, sparse, qcfg.radius(), ext, eb, out, rcfg);
  return out;
}

/// Round trip through the cuSZ value scheme + coarse reconstruction.
std::vector<float> roundtrip_coarse(std::span<const float> data, const Extents& ext, double eb,
                                    const QuantConfig& qcfg) {
  auto res = lorenzo_construct(data, ext, eb, qcfg, OutlierScheme::kValue,
                               ConstructVariant::kBaseline);
  std::vector<float> out(ext.count());
  const auto dense = dense_outliers(res);
  lorenzo_reconstruct_coarse(std::span<const quant_t>(res.quant.data(), res.quant.size()),
                             std::span<const qdiff_t>(dense.data(), dense.size()), ext, eb, qcfg,
                             out);
  return out;
}

double max_error(std::span<const float> a, std::span<const float> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return m;
}

Extents extents_for(int rank, bool ragged) {
  // Ragged sizes are deliberately not multiples of the chunk shapes.
  switch (rank) {
    case 1: return Extents::d1(ragged ? 1000 : 1024);
    case 2: return Extents::d2(ragged ? 37 : 32, ragged ? 53 : 48);
    default: return Extents::d3(ragged ? 11 : 16, ragged ? 19 : 16, ragged ? 21 : 24);
  }
}

// ---- Error-bound property sweep: rank x eb x raggedness ------------------

class LorenzoRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, double, bool>> {};

// Raw kernels guarantee error <= eb (+ float32 output rounding); the strict
// `< eb` contract is enforced one level up by the Compressor's margin.
constexpr double kFloatRounding = 1e-6;

TEST_P(LorenzoRoundTrip, FineGrainedHonorsErrorBound) {
  const auto [rank, eb, ragged] = GetParam();
  const Extents ext = extents_for(rank, ragged);
  const auto data = random_field(ext, static_cast<std::uint32_t>(rank * 100 + ragged));
  const auto out = roundtrip_fine(data, ext, eb, QuantConfig{}, ReconstructConfig{});
  EXPECT_LE(max_error(data, out), eb + kFloatRounding) << "rank=" << rank << " eb=" << eb;
}

TEST_P(LorenzoRoundTrip, CoarseBaselineHonorsErrorBound) {
  const auto [rank, eb, ragged] = GetParam();
  const Extents ext = extents_for(rank, ragged);
  const auto data = random_field(ext, static_cast<std::uint32_t>(rank * 100 + 50 + ragged));
  const auto out = roundtrip_coarse(data, ext, eb, QuantConfig{});
  EXPECT_LE(max_error(data, out), eb + kFloatRounding) << "rank=" << rank << " eb=" << eb;
}

TEST_P(LorenzoRoundTrip, FineAndCoarseAgreeExactly) {
  // Both schemes reconstruct the same prequantized integers, so their float
  // outputs must agree bit-for-bit.
  const auto [rank, eb, ragged] = GetParam();
  const Extents ext = extents_for(rank, ragged);
  const auto data = random_field(ext, static_cast<std::uint32_t>(rank * 1000 + ragged));
  const auto fine = roundtrip_fine(data, ext, eb, QuantConfig{}, ReconstructConfig{});
  const auto coarse = roundtrip_coarse(data, ext, eb, QuantConfig{});
  EXPECT_EQ(fine, coarse);
}

INSTANTIATE_TEST_SUITE_P(
    RankEbRagged, LorenzoRoundTrip,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(1e-2, 1e-3, 1e-4),
                       ::testing::Bool()));

// ---- Reconstruction variants (Table II ablation) -------------------------

// The third parameter is the spacing of forced spikes (every k-th element),
// from an outlier at every element (k = 1) to sparse ones (k = 16).  Both
// partial-sum variants run one host body, so they must agree bit for bit
// with each other and with the default whatever the outlier density.
class ReconstructVariants
    : public ::testing::TestWithParam<std::tuple<int, ReconstructVariant, std::size_t>> {};

TEST_P(ReconstructVariants, AllVariantsProduceIdenticalOutput) {
  const auto [rank, variant, spike_every] = GetParam();
  if (variant == ReconstructVariant::kCoarseChunkSerial) GTEST_SKIP();
  const Extents ext = extents_for(rank, true);
  auto data = random_field(ext, 99);
  for (std::size_t i = 0; i < data.size(); i += spike_every) data[i] += (i % 2 != 0) ? 4.f : -4.f;
  const double eb = 1e-3;

  const auto reference = roundtrip_fine(data, ext, eb, QuantConfig{}, ReconstructConfig{});
  const auto out = roundtrip_fine(data, ext, eb, QuantConfig{}, ReconstructConfig{variant});
  EXPECT_EQ(out, reference);
  EXPECT_LE(max_error(data, out), eb + kFloatRounding);
}

INSTANTIATE_TEST_SUITE_P(
    VariantSeq, ReconstructVariants,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(ReconstructVariant::kNaivePartialSum,
                                         ReconstructVariant::kOptimizedPartialSum),
                       ::testing::Values(std::size_t{1}, std::size_t{4}, std::size_t{8},
                                         std::size_t{16})));

// ---- Hand-verified partial-sum theorem -----------------------------------

TEST(Lorenzo, PartialSumEqualsSerialReconstruction2D) {
  // 4x4 single chunk; quant residuals chosen by hand.  The paper's theorem:
  // d[y,x] = sum_{j<=y} sum_{i<=x} q'[j,i].
  const Extents ext = Extents::d2(4, 4);
  const std::vector<qdiff_t> q0{1, 0, 2, -1, 0, 3, 0, 0, -2, 0, 1, 0, 0, 0, 0, 4};
  // Codes carry the residuals; the 4 at (3,3) travels as an outlier.
  const std::int32_t r = QuantConfig{}.radius();
  std::vector<quant_t> codes(16);
  for (std::size_t i = 0; i < 16; ++i) codes[i] = static_cast<quant_t>(q0[i] + r);
  codes[15] = static_cast<quant_t>(r);
  sim::SparseVector<qdiff_t> outliers;
  outliers.indices = {15};
  outliers.values = {4};
  std::vector<float> out(16);
  lorenzo_reconstruct(codes, outliers, r, ext, 0.5, out);  // 2eb = 1 => out == sums

  for (std::size_t y = 0; y < 4; ++y) {
    for (std::size_t x = 0; x < 4; ++x) {
      qdiff_t sum = 0;
      for (std::size_t j = 0; j <= y; ++j)
        for (std::size_t i = 0; i <= x; ++i) sum += q0[j * 4 + i];
      EXPECT_EQ(out[y * 4 + x], static_cast<float>(sum)) << "y=" << y << " x=" << x;
    }
  }
}

TEST(Lorenzo, ConstantFieldNeedsOneCodePerChunkRow) {
  // A constant field prequantizes to a constant integer; within each chunk
  // only position (0,0,..) carries a nonzero residual (the boundary is 0).
  const Extents ext = Extents::d1(512);
  std::vector<float> data(512, 10.0f);
  auto res = lorenzo_construct(data, ext, 0.01, QuantConfig{});
  const auto r = static_cast<quant_t>(QuantConfig{}.radius());
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < 512; ++i) {
    if (res.quant[i] != r) ++nonzero;
  }
  EXPECT_EQ(nonzero, 2u);  // one per 256-chunk
  EXPECT_EQ(res.quant[0], r + 500);  // round(10/0.02) = 500
  EXPECT_EQ(res.quant[256], r + 500);
}

TEST(Lorenzo, OutliersUseResidualSpaceInPlusScheme) {
  // A huge isolated spike must overflow the quantizer and land in the
  // outlier stream as a residual, with the quant-code parked at radius.
  const Extents ext = Extents::d1(256);
  std::vector<float> data(256, 0.0f);
  data[100] = 1000.0f;
  const double eb = 0.01;
  auto res = lorenzo_construct(data, ext, eb, QuantConfig{});
  const auto r = static_cast<quant_t>(QuantConfig{}.radius());

  const auto outlier = dense_outliers(res);
  EXPECT_EQ(res.quant[100], r);
  EXPECT_EQ(outlier[100], 50000);   // round(1000/0.02) - 0
  EXPECT_EQ(res.quant[101], r);
  EXPECT_EQ(outlier[101], -50000);  // back down
  // And the round trip still honors the bound.
  const auto out = roundtrip_fine(data, ext, eb, QuantConfig{}, {});
  EXPECT_LE(max_error(data, out), eb + kFloatRounding);
}

TEST(Lorenzo, ValueSchemeUsesPlaceholderZero) {
  const Extents ext = Extents::d1(256);
  std::vector<float> data(256, 0.0f);
  data[100] = 1000.0f;
  auto res = lorenzo_construct(data, ext, 0.01, QuantConfig{}, OutlierScheme::kValue);
  EXPECT_EQ(res.quant[100], 0);
  EXPECT_EQ(dense_outliers(res)[100], 50000);  // prequantized *value*
}

TEST(Lorenzo, ChunksAreIndependent) {
  // Mutating data in one chunk must not change quant-codes in another.
  const Extents ext = Extents::d1(1024);
  auto data = random_field(ext, 5);
  auto base = lorenzo_construct(data, ext, 1e-3, QuantConfig{});
  data[700] += 100.0f;  // chunk 2
  auto mutated = lorenzo_construct(data, ext, 1e-3, QuantConfig{});
  for (std::size_t i = 0; i < 512; ++i) {  // chunks 0-1 untouched
    EXPECT_EQ(base.quant[i], mutated.quant[i]) << "i=" << i;
  }
}

TEST(Lorenzo, SmallerCapacityProducesMoreOutliers) {
  const Extents ext = Extents::d2(64, 64);
  const auto data = random_field(ext, 12, 5.0f);
  const double eb = 1e-4;
  auto big = lorenzo_construct(data, ext, eb, QuantConfig{4096});
  auto small = lorenzo_construct(data, ext, eb, QuantConfig{16});
  const auto nnz = [](const LorenzoConstructResult& r) {
    std::size_t c = 0;
    for (const auto v : dense_outliers(r)) c += v != 0 ? 1u : 0u;
    return c;
  };
  EXPECT_GE(nnz(small), nnz(big));
  EXPECT_GT(nnz(small), 0u);
  // Both still reconstruct within bound.
  for (const auto cap : {std::uint32_t{16}, std::uint32_t{4096}}) {
    const auto out = roundtrip_fine(data, ext, eb, QuantConfig{cap}, {});
    EXPECT_LE(max_error(data, out), eb + kFloatRounding) << "cap=" << cap;
  }
}

// ---- Exact-bytes oracle: the construct kernel against a scalar reference --

/// Scalar reference construct: one chunk at a time, std::llround prequant
/// into int64 and the rank's Lorenzo stencil with a zero chunk boundary.
template <typename T>
void reference_construct(const std::vector<T>& data, const Extents& ext, double eb,
                         const QuantConfig& qcfg, OutlierScheme scheme,
                         std::vector<quant_t>& quant, std::vector<qdiff_t>& outlier) {
  const ChunkShape cs = ChunkShape::for_rank(ext.rank);
  const double inv2eb = 1.0 / (2.0 * eb);
  const std::int64_t r = qcfg.radius();
  quant.assign(ext.count(), 0);
  outlier.assign(ext.count(), 0);
  for (std::size_t z0 = 0; z0 < ext.nz; z0 += cs.cz)
    for (std::size_t y0 = 0; y0 < ext.ny; y0 += cs.cy)
      for (std::size_t x0 = 0; x0 < ext.nx; x0 += cs.cx) {
        const std::size_t w = std::min(cs.cx, ext.nx - x0);
        const std::size_t h = std::min(cs.cy, ext.ny - y0);
        const std::size_t d = std::min(cs.cz, ext.nz - z0);
        std::vector<std::int64_t> pq(w * h * d);
        const auto lidx = [&](std::size_t lz, std::size_t ly, std::size_t lx) {
          return (lz * h + ly) * w + lx;
        };
        for (std::size_t lz = 0; lz < d; ++lz)
          for (std::size_t ly = 0; ly < h; ++ly)
            for (std::size_t lx = 0; lx < w; ++lx)
              pq[lidx(lz, ly, lx)] = std::llround(
                  static_cast<double>(data[ext.index(z0 + lz, y0 + ly, x0 + lx)]) * inv2eb);
        const auto at = [&](std::ptrdiff_t lz, std::ptrdiff_t ly,
                            std::ptrdiff_t lx) -> std::int64_t {
          if (lx < 0 || ly < 0 || lz < 0) return 0;
          return pq[lidx(static_cast<std::size_t>(lz), static_cast<std::size_t>(ly),
                         static_cast<std::size_t>(lx))];
        };
        for (std::size_t lz = 0; lz < d; ++lz)
          for (std::size_t ly = 0; ly < h; ++ly)
            for (std::size_t lx = 0; lx < w; ++lx) {
              const auto x = static_cast<std::ptrdiff_t>(lx);
              const auto y = static_cast<std::ptrdiff_t>(ly);
              const auto z = static_cast<std::ptrdiff_t>(lz);
              std::int64_t pred = 0;
              if (ext.rank == 1) {
                pred = at(0, 0, x - 1);
              } else if (ext.rank == 2) {
                pred = at(0, y - 1, x) + at(0, y, x - 1) - at(0, y - 1, x - 1);
              } else {
                pred = at(z, y - 1, x) + at(z, y, x - 1) + at(z - 1, y, x) -
                       at(z, y - 1, x - 1) - at(z - 1, y - 1, x) - at(z - 1, y, x - 1) +
                       at(z - 1, y - 1, x - 1);
              }
              const std::int64_t v = pq[lidx(lz, ly, lx)];
              const std::int64_t delta = v - pred;
              const std::size_t gi = ext.index(z0 + lz, y0 + ly, x0 + lx);
              if (delta > -r && delta < r) {
                quant[gi] = static_cast<quant_t>(delta + r);
              } else if (scheme == OutlierScheme::kResidual) {
                quant[gi] = static_cast<quant_t>(r);
                outlier[gi] = static_cast<qdiff_t>(delta);
              } else {
                quant[gi] = 0;
                outlier[gi] = static_cast<qdiff_t>(v);
              }
            }
      }
}

/// Compares the kernel's quant codes and gathered outliers with the reference
/// element by element, for both outlier schemes and both cost variants.
template <typename T>
void expect_matches_reference(const std::vector<T>& data, const Extents& ext, double eb,
                              const QuantConfig& qcfg) {
  for (const auto scheme : {OutlierScheme::kResidual, OutlierScheme::kValue}) {
    std::vector<quant_t> ref_q;
    std::vector<qdiff_t> ref_o;
    reference_construct(data, ext, eb, qcfg, scheme, ref_q, ref_o);
    for (const auto variant : {ConstructVariant::kOptimized, ConstructVariant::kBaseline}) {
      const auto res = lorenzo_construct(data, ext, eb, qcfg, scheme, variant);
      const auto outlier = dense_outliers(res);
      ASSERT_EQ(res.quant.size(), ref_q.size());
      ASSERT_EQ(outlier.size(), ref_o.size());
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < ref_q.size(); ++i) {
        if (res.quant[i] != ref_q[i] || outlier[i] != ref_o[i]) {
          if (++mismatches <= 5) {
            ADD_FAILURE() << "i=" << i << " quant " << res.quant[i] << " vs " << ref_q[i]
                          << ", outlier " << outlier[i] << " vs " << ref_o[i]
                          << " (scheme " << static_cast<int>(scheme) << ", variant "
                          << static_cast<int>(variant) << ")";
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << "rank=" << ext.rank << " nx=" << ext.nx << " ny=" << ext.ny
                                << " nz=" << ext.nz;
    }
  }
}

/// Half-quantum ties ±(k+½)·2eb, their neighbouring doubles/floats, and
/// values next to the ±2^27 prequant limit, scattered over a 3-D field so
/// they meet every stencil position and produce both in-range codes and
/// outliers.
template <typename T>
std::vector<T> tie_and_limit_values() {
  const double eb = 0.5;  // 2eb = 1: the ties are exact in both types
  std::vector<T> v;
  for (int k = -300; k <= 300; ++k) {
    const T tie = static_cast<T>((k + 0.5) * 2 * eb);
    v.push_back(tie);
    v.push_back(std::nextafter(tie, std::numeric_limits<T>::infinity()));
    v.push_back(std::nextafter(tie, -std::numeric_limits<T>::infinity()));
    v.push_back(static_cast<T>(k * 2 * eb));
  }
  // Largest magnitudes below the limit: 2^27-1 is exact in double; float
  // holds 24 significant bits, so its nearest values are 2^27-8 and 2^27-16.
  const double near = std::is_same_v<T, float> ? 0x1p27 - 8 : 0x1p27 - 1;
  for (const double m : {near, near - 0.5, near - 1.5, 0x1p27 - 16, 0x1p26 + 0.5}) {
    v.push_back(static_cast<T>(m));
    v.push_back(static_cast<T>(-m));
  }
  if constexpr (std::is_same_v<T, double>) {
    for (const double m : {0x1p27 - 0.5, 0x1p27 - 0.75, 0x1p26 - 0.5}) {
      v.push_back(m);
      v.push_back(-m);
    }
  }
  return v;
}

template <typename T>
void check_ties_and_limits() {
  const auto values = tie_and_limit_values<T>();
  const Extents ext = Extents::d3(9, 11, 300);
  std::vector<T> data(ext.count());
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> pick(0, values.size() - 1);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = i < values.size() ? values[i] : values[pick(rng)];
  }
  // Every value is inside the prequant limit, so the kernel must accept
  // them all and match the reference on all three ranks.
  for (const auto v : values) {
    ASSERT_LT(std::abs(static_cast<double>(v)), 0x1p27);
  }
  expect_matches_reference(data, ext, 0.5, QuantConfig{});
  expect_matches_reference(data, Extents::d2(99, 300), 0.5, QuantConfig{});
  expect_matches_reference(data, Extents::d1(ext.count()), 0.5, QuantConfig{64});
  // Ties under a non-power-of-two bound: not exact, but right at the edge.
  std::vector<T> near_ties(ext.count());
  const double eb = 1e-3;
  for (std::size_t i = 0; i < near_ties.size(); ++i) {
    const auto k = static_cast<double>(static_cast<std::int64_t>(i % 4001) - 2000);
    near_ties[i] = static_cast<T>((k + 0.5) * 2 * eb);
  }
  expect_matches_reference(near_ties, ext, eb, QuantConfig{});
}

TEST(LorenzoOracle, HalfQuantumTiesAndLimitMatchLlroundFloat) { check_ties_and_limits<float>(); }

TEST(LorenzoOracle, HalfQuantumTiesAndLimitMatchLlroundDouble) {
  check_ties_and_limits<double>();
}

class LorenzoOracleRagged
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(LorenzoOracleRagged, MatchesScalarReferenceBytes) {
  const auto [rank, nx] = GetParam();
  // ny / nz are not multiples of the 16 (2-D) or 8 (3-D) chunk.
  const Extents ext = rank == 1   ? Extents::d1(nx)
                      : rank == 2 ? Extents::d2(19, nx)
                                  : Extents::d3(9, 11, nx);
  const auto smooth = random_field(ext, static_cast<std::uint32_t>(rank * 1000 + nx));
  std::vector<double> wide(smooth.begin(), smooth.end());
  // Spikes force outliers on chunk corners, edges and interiors.
  for (std::size_t i = 0; i < wide.size(); i += 37) wide[i] += (i % 2 != 0 ? 3.0 : -3.0);
  const std::vector<float> narrow(wide.begin(), wide.end());
  for (const double eb : {1e-2, 1e-4}) {
    expect_matches_reference(narrow, ext, eb, QuantConfig{});
    expect_matches_reference(wide, ext, eb, QuantConfig{});
  }
  expect_matches_reference(narrow, ext, 1e-3, QuantConfig{16});
}

INSTANTIATE_TEST_SUITE_P(
    RankNx, LorenzoOracleRagged,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(std::size_t{1}, std::size_t{7}, std::size_t{8},
                                         std::size_t{9}, std::size_t{255}, std::size_t{256},
                                         std::size_t{257}, std::size_t{300},
                                         std::size_t{513})));

// ---- Exact-bytes oracle: the reconstruct kernel against a scalar reference --

/// Scalar reference of the decode the fused kernel replaces: q' = quant -
/// radius, scatter-add the outliers, then per-chunk inclusive sums along x,
/// y and z in int64, scaled by 2eb.  The sums are reduced mod 2^32 before
/// the scale, as the kernel's wrapping int32 arithmetic does.
template <typename T>
std::vector<T> reference_reconstruct(const std::vector<quant_t>& quant,
                                     const sim::SparseVector<qdiff_t>& outliers,
                                     std::int32_t radius, const Extents& ext, double eb) {
  const ChunkShape cs = ChunkShape::for_rank(ext.rank);
  const std::size_t n = ext.count(), nx = ext.nx, nxy = ext.nx * ext.ny;
  std::vector<std::int64_t> q(n);
  for (std::size_t i = 0; i < n; ++i) q[i] = static_cast<std::int64_t>(quant[i]) - radius;
  for (std::size_t k = 0; k < outliers.nnz(); ++k) q[outliers.indices[k]] += outliers.values[k];
  // Raster order: the predecessor along each axis is already summed.
  for (std::size_t i = 0; i < n; ++i) {
    if ((i % nx) % cs.cx != 0) q[i] += q[i - 1];
  }
  for (std::size_t i = 0; ext.rank >= 2 && i < n; ++i) {
    if ((i / nx % ext.ny) % cs.cy != 0) q[i] += q[i - nx];
  }
  for (std::size_t i = 0; ext.rank >= 3 && i < n; ++i) {
    if ((i / nxy) % cs.cz != 0) q[i] += q[i - nxy];
  }
  std::vector<T> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto wrapped = static_cast<std::int32_t>(static_cast<std::uint32_t>(q[i]));
    out[i] = static_cast<T>(static_cast<double>(wrapped) * 2.0 * eb);
  }
  return out;
}

/// Outlier positions that meet every boundary the kernel cares about: the
/// first and last element of each chunk and of each 256-wide host block,
/// the first and last element of the field, plus ~1% elsewhere.  Values are
/// large residual-space corrections of both signs.
sim::SparseVector<qdiff_t> boundary_outliers(const Extents& ext, std::mt19937& rng) {
  const ChunkShape cs = ChunkShape::for_rank(ext.rank);
  const auto first = [](std::size_t c, std::size_t unit) { return c % unit == 0; };
  const auto last = [](std::size_t c, std::size_t unit, std::size_t len) {
    return c % unit == unit - 1 || c == len - 1;
  };
  std::uniform_int_distribution<qdiff_t> value(-100000, 100000);
  sim::SparseVector<qdiff_t> sparse;
  const std::size_t n = ext.count();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t x = i % ext.nx, y = i / ext.nx % ext.ny, z = i / (ext.nx * ext.ny);
    const bool yz_first = first(y, cs.cy) && first(z, cs.cz);
    const bool yz_last = last(y, cs.cy, ext.ny) && last(z, cs.cz, ext.nz);
    const bool chunk_edge = (yz_first && first(x, cs.cx)) || (yz_last && last(x, cs.cx, ext.nx));
    const bool block_edge = (yz_first && first(x, 256)) || (yz_last && last(x, 256, ext.nx));
    if (chunk_edge || block_edge || i == 0 || i == n - 1 || rng() % 100 == 0) {
      sparse.indices.push_back(i);
      sparse.values.push_back(value(rng) | 1);  // nonzero
    }
  }
  return sparse;
}

template <typename T>
void expect_reconstruct_matches_reference(const std::vector<quant_t>& quant,
                                          const sim::SparseVector<qdiff_t>& outliers,
                                          std::int32_t radius, const Extents& ext, double eb) {
  const auto ref = reference_reconstruct<T>(quant, outliers, radius, ext, eb);
  for (const auto variant :
       {ReconstructVariant::kOptimizedPartialSum, ReconstructVariant::kNaivePartialSum}) {
    std::vector<T> out(ext.count());
    lorenzo_reconstruct(quant, outliers, radius, ext, eb, out, {variant});
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (out[i] != ref[i] && ++mismatches <= 5) {
        ADD_FAILURE() << "i=" << i << ": " << out[i] << " vs " << ref[i] << " (variant "
                      << static_cast<int>(variant) << ")";
      }
    }
    EXPECT_EQ(mismatches, 0u) << "rank=" << ext.rank << " nx=" << ext.nx << " ny=" << ext.ny
                              << " nz=" << ext.nz << " nnz=" << outliers.nnz();
  }
}

class LorenzoReconstructOracle
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(LorenzoReconstructOracle, MatchesScalarReferenceBits) {
  const auto [rank, nx] = GetParam();
  // ny / nz are not multiples of the 16 (2-D) or 8 (3-D) chunk.
  const Extents ext = rank == 1   ? Extents::d1(nx)
                      : rank == 2 ? Extents::d2(19, nx)
                                  : Extents::d3(9, 11, nx);
  std::mt19937 rng(static_cast<std::uint32_t>(rank * 7919 + nx));
  const std::int32_t radius = QuantConfig{}.radius();
  std::uniform_int_distribution<std::int32_t> resid(-40, 40);
  std::vector<quant_t> quant(ext.count());
  for (auto& q : quant) q = static_cast<quant_t>(radius + resid(rng));
  const auto outliers = boundary_outliers(ext, rng);
  for (const auto i : outliers.indices) quant[i] = static_cast<quant_t>(radius);
  expect_reconstruct_matches_reference<float>(quant, outliers, radius, ext, 1e-3);
  expect_reconstruct_matches_reference<double>(quant, outliers, radius, ext, 1e-3);
  // No outliers at all: the search never finds a row hit.
  const sim::SparseVector<qdiff_t> none;
  expect_reconstruct_matches_reference<float>(quant, none, radius, ext, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    RankNx, LorenzoReconstructOracle,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(std::size_t{1}, std::size_t{7}, std::size_t{8},
                                         std::size_t{9}, std::size_t{255}, std::size_t{256},
                                         std::size_t{257}, std::size_t{300},
                                         std::size_t{513})));

TEST(LorenzoReconstruct, SumsWrapLikeInt32OnCorruptInput) {
  // Extreme codes and INT32 outliers push every partial sum past int32:
  // the kernel must wrap (no signed overflow) and still match the mod-2^32
  // reference bit for bit.
  const Extents ext = Extents::d3(9, 11, 300);
  std::vector<quant_t> quant(ext.count(), 65535);
  sim::SparseVector<qdiff_t> outliers;
  for (std::size_t i = 0; i < ext.count(); i += 5) {
    outliers.indices.push_back(i);
    outliers.values.push_back(i % 2 != 0 ? std::numeric_limits<qdiff_t>::max()
                                         : std::numeric_limits<qdiff_t>::min());
  }
  expect_reconstruct_matches_reference<float>(quant, outliers, 0, ext, 0.5);
  expect_reconstruct_matches_reference<double>(quant, outliers, 1, ext, 0.5);
}

TEST(LorenzoReconstruct, UnorderedOutliersStayInsideTheOutput) {
  // The decoder rejects unsorted indices before the kernel runs; called
  // directly with them, the kernel may drop outliers but must not touch
  // memory outside `out` (an ASan build checks that).
  const Extents ext = Extents::d2(20, 300);
  std::vector<quant_t> quant(ext.count(), 512);
  sim::SparseVector<qdiff_t> outliers;
  outliers.indices = {5999, 4000, 4000, 17, 6000, 1u << 30, 3};
  outliers.values = {1, 2, 3, 4, 5, 6, 7};
  std::vector<float> out(ext.count(), std::numeric_limits<float>::quiet_NaN());
  lorenzo_reconstruct(quant, outliers, 512, ext, 0.5, out);
  for (const float v : out) ASSERT_TRUE(std::isfinite(v));
}

TEST(Lorenzo, InvalidArgumentsThrow) {
  const Extents ext = Extents::d1(100);
  std::vector<float> data(50);
  EXPECT_THROW((void)lorenzo_construct(data, ext, 1e-3, QuantConfig{}),
               std::invalid_argument);
  std::vector<float> ok(100);
  EXPECT_THROW((void)lorenzo_construct(ok, ext, -1.0, QuantConfig{}), std::invalid_argument);
  EXPECT_THROW((void)lorenzo_construct(ok, ext, 1e-3, QuantConfig{7}), std::invalid_argument);

  std::vector<quant_t> q(100);
  std::vector<float> out(99);
  const sim::SparseVector<qdiff_t> none;
  EXPECT_THROW((void)lorenzo_reconstruct(q, none, 512, ext, 1e-3, out), std::invalid_argument);
  std::vector<float> out100(100);
  sim::SparseVector<qdiff_t> ragged;
  ragged.indices = {1, 2};
  ragged.values = {5};
  EXPECT_THROW((void)lorenzo_reconstruct(q, ragged, 512, ext, 1e-3, out100),
               std::invalid_argument);
  EXPECT_THROW((void)lorenzo_reconstruct(q, none, 512, ext, 1e-3, out100,
                                         {ReconstructVariant::kCoarseChunkSerial}),
               std::invalid_argument);

  // The kernel itself enforces |d|/2eb < 2^27 (exact int32 prequant), so
  // direct callers cannot get silently narrowed outliers.  The bad element
  // sits in a later block of a multi-block grid: the error surfaces through
  // the launch's rethrow.
  const Extents big = Extents::d1(1000);
  std::vector<double> limit(1000, 1.0);
  limit[700] = 0x1p27 - 1;  // 2eb = 1: just inside
  EXPECT_NO_THROW((void)lorenzo_construct(limit, big, 0.5, QuantConfig{}));
  for (const double bad : {0x1p27, -0x1p27, 1e300, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    limit[700] = bad;
    EXPECT_THROW((void)lorenzo_construct(limit, big, 0.5, QuantConfig{}), std::invalid_argument)
        << "value " << bad;
  }
  std::vector<float> nan3(Extents::d3(9, 9, 300).count(), 0.0f);
  nan3.back() = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW((void)lorenzo_construct(nan3, Extents::d3(9, 9, 300), 1e-3, QuantConfig{}),
               std::invalid_argument);
}

// ---- Outlier compaction oracle: the construct's staged outliers, scanned
// and filled by lorenzo_gather_outliers, must be exactly the non-zero values
// of the scalar reference's dense outlier array, in index order. ----------

enum class OutlierLayout { kEdges, kAll, kNone };

/// Field with spikes on the first and last element of every chunk, of every
/// 256-wide host block, of every row and of the field (kEdges); a
/// checkerboard of ±1000 where every element is an outlier (kAll); or a
/// gentle ramp with none (kNone).  At eb = 0.01 a 1000 spike prequantizes to
/// 50000, far outside any radius; the element after it falls back to 0,
/// which kValue stores as a value-0 outlier that must not be emitted.
template <typename T>
std::vector<T> layout_field(const Extents& ext, OutlierLayout layout) {
  const ChunkShape cs = ChunkShape::for_rank(ext.rank);
  std::vector<T> data(ext.count(), T{0});
  for (std::size_t z = 0; z < ext.nz; ++z) {
    for (std::size_t y = 0; y < ext.ny; ++y) {
      for (std::size_t x = 0; x < ext.nx; ++x) {
        T& v = data[ext.index(z, y, x)];
        switch (layout) {
          case OutlierLayout::kAll:
            v = static_cast<T>((x + y + z) % 2 == 0 ? 1000.0 : -1000.0);
            break;
          case OutlierLayout::kNone:
            v = static_cast<T>(0.001 * static_cast<double>(x + y + z));
            break;
          case OutlierLayout::kEdges: {
            const bool edge = x == 0 || x + 1 == ext.nx || x % cs.cx == 0 ||
                              x % cs.cx == cs.cx - 1 || x % 256 == 0 || x % 256 == 255;
            const bool chunk_corner = (y % cs.cy == 0 || y % cs.cy == cs.cy - 1) &&
                                      (z % cs.cz == 0 || z % cs.cz == cs.cz - 1);
            if (edge && chunk_corner) v = T{1000};
            break;
          }
        }
      }
    }
  }
  if (layout == OutlierLayout::kEdges) {
    data.front() = T{1000};
    data.back() = T{-1000};
  }
  return data;
}

template <typename T>
void expect_compaction_matches_reference(const Extents& ext, OutlierLayout layout) {
  const auto data = layout_field<T>(ext, layout);
  for (const auto scheme : {OutlierScheme::kResidual, OutlierScheme::kValue}) {
    std::vector<quant_t> ref_q;
    std::vector<qdiff_t> ref_o;
    reference_construct(data, ext, 0.01, QuantConfig{}, scheme, ref_q, ref_o);
    sim::SparseVector<qdiff_t> want;
    for (std::size_t i = 0; i < ref_o.size(); ++i) {
      if (ref_o[i] != 0) {
        want.indices.push_back(i);
        want.values.push_back(ref_o[i]);
      }
    }
    const auto res = lorenzo_construct(data, ext, 0.01, QuantConfig{}, scheme);
    const auto got = lorenzo_outliers(res);
    const std::string where = "rank=" + std::to_string(ext.rank) +
                              " nx=" + std::to_string(ext.nx) + " ny=" +
                              std::to_string(ext.ny) + " nz=" + std::to_string(ext.nz) +
                              " layout=" + std::to_string(static_cast<int>(layout)) +
                              " scheme=" + std::to_string(static_cast<int>(scheme));
    ASSERT_EQ(got.indices, want.indices) << where;
    ASSERT_EQ(got.values, want.values) << where;
    ASSERT_EQ(std::vector<quant_t>(res.quant.begin(), res.quant.end()), ref_q) << where;
    if (layout == OutlierLayout::kAll && scheme == OutlierScheme::kResidual) {
      EXPECT_EQ(got.nnz(), ext.count()) << where;
    }
    if (layout == OutlierLayout::kNone) EXPECT_EQ(got.nnz(), 0u) << where;
    if (layout == OutlierLayout::kEdges && scheme == OutlierScheme::kValue &&
        ext.count() > 1) {
      // The element after a spike falls back to 0: a value-0 outlier the
      // gather leaves out, as a dense-to-sparse gather would.
      std::size_t zero_value_outliers = 0;
      for (std::size_t i = 0; i < ref_q.size(); ++i) {
        zero_value_outliers += ref_q[i] == 0 && ref_o[i] == 0 ? 1u : 0u;
      }
      EXPECT_GT(zero_value_outliers, 0u) << where;
    }
  }
}

template <typename T>
void check_compaction_all_shapes() {
  for (const std::size_t nx : {1, 7, 8, 9, 255, 256, 257, 300, 513}) {
    for (const auto layout : {OutlierLayout::kEdges, OutlierLayout::kAll, OutlierLayout::kNone}) {
      expect_compaction_matches_reference<T>(Extents::d1(nx), layout);
      expect_compaction_matches_reference<T>(Extents::d2(nx, 19), layout);
      expect_compaction_matches_reference<T>(Extents::d3(nx, 9, 11), layout);
    }
  }
}

TEST(OutlierCompaction, MatchesDenseReferenceFloat) { check_compaction_all_shapes<float>(); }

TEST(OutlierCompaction, MatchesDenseReferenceDouble) { check_compaction_all_shapes<double>(); }

TEST(OutlierCompaction, ReusedResultGathersOnlyTheLatestField) {
  // A reused result keeps its stash pages: a field without outliers after
  // one full of them must gather nothing.
  const Extents ext = Extents::d3(300, 9, 11);
  LorenzoConstructResult res;
  lorenzo_construct_into<float>(layout_field<float>(ext, OutlierLayout::kAll), ext, 0.01,
                                QuantConfig{}, OutlierScheme::kResidual,
                                ConstructVariant::kOptimized, res);
  EXPECT_EQ(lorenzo_outliers(res).nnz(), ext.count());
  lorenzo_construct_into<float>(layout_field<float>(ext, OutlierLayout::kNone), ext, 0.01,
                                QuantConfig{}, OutlierScheme::kResidual,
                                ConstructVariant::kOptimized, res);
  EXPECT_EQ(lorenzo_outliers(res).nnz(), 0u);
}

TEST(Lorenzo, MinimalSizes) {
  for (const int rank : {1, 2, 3}) {
    Extents ext = rank == 1 ? Extents::d1(1) : rank == 2 ? Extents::d2(1, 1) : Extents::d3(1, 1, 1);
    std::vector<float> data{3.14159f};
    const auto out = roundtrip_fine(data, ext, 1e-4, QuantConfig{}, {});
    EXPECT_LE(max_error(data, out), 1e-4 + kFloatRounding);
  }
}

}  // namespace
