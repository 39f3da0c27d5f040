#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "core/predictor/lorenzo.hh"
#include "sim/check.hh"
#include "sim/launch.hh"

namespace szp {

namespace {

// One host block covers a run of whole chunks along x, at most 256 elements
// wide: 1 chunk in 1-D, 16 in 2-D, 32 in 3-D.  Chunks keep their own zero
// prediction boundary, so the bytes do not depend on the block width; the
// wide rows are what let the loops stream (thread coarsening, DESIGN.md §2).
constexpr std::size_t kBlockWidth = 256;

// Block-local prequant tile with a zero halo plane, row and column in front
// of the interior: (cz+1) x (cy+1) x (kBlockWidth+1) int32.  (cz+1)(cy+1)
// is 4 / 34 / 81 for ranks 1 / 2 / 3, so 3-D sets the size: 83 KB.
constexpr std::size_t kPitchX = kBlockWidth + 1;
constexpr std::size_t kTileElems = 9 * 9 * kPitchX;

// Exactness precondition: |d / 2eb| < 2^27 keeps prequant values, the 7-term
// prediction and the residual inside int32 / qdiff_t.
constexpr double kPrequantLimit = 0x1p27;
constexpr std::int64_t kPrequantLimitBits = std::bit_cast<std::int64_t>(kPrequantLimit);

// Bandwidth derating factors calibrated against the construction
// throughputs published for cuSZ (Table VI "cuSZ" column) and cuSZ+
// (Table VI "ours"), per rank.  See DESIGN.md §2 (roofline substitution).
constexpr std::array<double, 4> kBaselineFactor{0.0, 0.58, 0.70, 0.56};
constexpr std::array<double, 4> kOptimizedFactor{0.0, 0.85, 0.76, 0.82};

/// Prequantizes one row, d° = round(d / 2eb) with halves away from zero —
/// exactly std::llround, but in a form the loop vectorizes: the int32
/// conversion truncates toward zero and the exact remainder f = t - trunc(t)
/// adds ±1 when |f| >= 0.5.  Returns false when some |d / 2eb| is not below
/// 2^27 or is NaN; those lanes are clamped to ±2^27 first so every
/// conversion stays in range.  The check ANDs the sign of
/// bits(|t|) - bits(2^27), which is negative exactly when |t| < 2^27 (the
/// bit patterns of non-negative doubles order like their values, NaN last).
template <typename T>
bool prequant_row(const T* src, std::size_t w, double inv2eb, std::int32_t* dst) {
  std::int64_t all_below = -1;
  for (std::size_t i = 0; i < w; ++i) {
    const double t = static_cast<double>(src[i]) * inv2eb;
    const double a = std::fabs(t);
    all_below &= std::bit_cast<std::int64_t>(a) - kPrequantLimitBits;
    const double tc = std::copysign(a < kPrequantLimit ? a : kPrequantLimit, t);
    const double tr = static_cast<double>(static_cast<std::int32_t>(tc));
    const double f = tc - tr;
    dst[i] = static_cast<std::int32_t>(tr + std::copysign(std::fabs(f) >= 0.5 ? 1.0 : 0.0, f));
  }
  return all_below < 0;
}

/// Lorenzo prediction and postquantization of one row.  `cur` is the row's
/// prequant tile row; `up`, `back` and `back_up` are its y-1, z-1 and
/// (z-1, y-1) neighbours.  All four point at the halo column, so element lx
/// is at [lx + 1].  One 7-term formula serves every rank: absent z/y
/// neighbours read the zero halo, and the four x-1 terms are masked at each
/// chunk's first column, the chunk's zero prediction boundary.
void predict_row(const std::int32_t* cur, const std::int32_t* up, const std::int32_t* back,
                 const std::int32_t* back_up, std::uint32_t w, std::uint32_t x_in_chunk,
                 std::int32_t r, bool residual, quant_t* q, qdiff_t* o) {
  // Code of an out-of-range element: δ'=0 (cuSZ+) or the placeholder 0 (cuSZ).
  const std::int32_t q_out = residual ? r : 0;
  for (std::uint32_t lx = 0; lx < w; ++lx) {
    const std::int32_t west_mask = -static_cast<std::int32_t>((lx & x_in_chunk) != 0);
    const std::int32_t west = cur[lx] - up[lx] - back[lx] + back_up[lx];
    const std::int32_t pred = up[lx + 1] + back[lx + 1] - back_up[lx + 1] + (west & west_mask);
    const std::int32_t c = cur[lx + 1];
    const std::int32_t delta = c - pred;
    const bool in = delta > -r && delta < r;
    q[lx] = static_cast<quant_t>(in ? delta + r : q_out);
    // cuSZ+ keeps the residual δ as the outlier; cuSZ the value d°.
    o[lx] = in ? 0 : (residual ? delta : c);
  }
}

}  // namespace

template <typename T>
void lorenzo_construct_into(std::span<const T> data, const Extents& ext, double eb_abs,
                            const QuantConfig& qcfg, OutlierScheme scheme,
                            ConstructVariant variant, LorenzoConstructResult& res) {
  qcfg.validate();
  if (data.size() != ext.count()) {
    throw std::invalid_argument("lorenzo_construct: data size does not match extents");
  }
  if (!(eb_abs > 0.0) || !std::isfinite(eb_abs)) {
    throw std::invalid_argument("lorenzo_construct: error bound must be positive and finite");
  }

  const std::size_t n = ext.count();
  res.cost = {};
  // Every element of both outputs is written by the kernel: no zero-fill.
  res.quant.resize(n);
  res.outlier_dense.resize(n);

  const double inv2eb = 1.0 / (2.0 * eb_abs);
  const std::int32_t r = qcfg.radius();
  const bool residual = scheme == OutlierScheme::kResidual;
  const ChunkShape cs = ChunkShape::for_rank(ext.rank);
  const std::size_t bw = kBlockWidth / cs.cx * cs.cx;  // whole chunks per block row
  const auto x_in_chunk = static_cast<std::uint32_t>(cs.cx - 1);  // cx is a power of two
  const std::size_t pitch_y = (cs.cy + 1) * kPitchX;

  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  sim::traffic::Scope traffic_scope;  // contract-derived volumes for res.cost
  // Every block owns one box of the row-major field, `bw` wide and one chunk
  // high and deep: the same box for the read of `data` and the writes of
  // `quant`/`outlier`.
  const auto tile_of = [&](ctr::AccessKind a, const char* buf) {
    return ctr::box(a, buf, ctr::bx() * bw, static_cast<std::int64_t>(bw),
                    ctr::by() * cs.cy, static_cast<std::int64_t>(cs.cy), ctr::bz() * cs.cz,
                    static_cast<std::int64_t>(cs.cz), static_cast<std::int64_t>(ext.nx),
                    static_cast<std::int64_t>(ext.ny), static_cast<std::int64_t>(ext.nz));
  };
  chk::launch_3d("lorenzo_construct",
                 {static_cast<std::uint32_t>(sim::div_ceil(ext.nx, bw)),
                  static_cast<std::uint32_t>(sim::div_ceil(ext.ny, cs.cy)),
                  static_cast<std::uint32_t>(sim::div_ceil(ext.nz, cs.cz))},
                 chk::bufs(chk::in(data, "data"),
                           chk::out(std::span<quant_t>(res.quant), "quant"),
                           chk::out(std::span<qdiff_t>(res.outlier_dense), "outlier")),
                 ctr::contract(tile_of(ctr::AccessKind::kRead, "data"),
                               tile_of(ctr::AccessKind::kWrite, "quant"),
                               tile_of(ctr::AccessKind::kWrite, "outlier")),
                 [&](std::uint32_t bx, std::uint32_t by, std::uint32_t bz, const auto& vdata,
                     const auto& vquant, const auto& voutlier) {
    const std::size_t x0 = bx * bw, y0 = by * cs.cy, z0 = bz * cs.cz;
    const std::size_t w = std::min(bw, ext.nx - x0);
    const std::size_t h = std::min(cs.cy, ext.ny - y0);
    const std::size_t d = std::min(cs.cz, ext.nz - z0);

    // "Shared memory": the prequantized block (Algorithm 1 line 2).  Only
    // the halo is zeroed; the interior is written before it is read.
    std::array<std::int32_t, kTileElems> tile;
    const auto row_of = [&](std::size_t tz, std::size_t ty) {
      return tile.data() + tz * pitch_y + ty * kPitchX;
    };
    std::fill_n(row_of(0, 0), (h + 1) * kPitchX, 0);  // z halo plane
    for (std::size_t tz = 1; tz <= d; ++tz) {
      std::fill_n(row_of(tz, 0), w + 1, 0);  // y halo row
      for (std::size_t ty = 1; ty <= h; ++ty) row_of(tz, ty)[0] = 0;  // x halo column
    }

    bool ok = true;
    for (std::size_t lz = 0; lz < d; ++lz) {
      for (std::size_t ly = 0; ly < h; ++ly) {
        const std::size_t gi = ext.index(z0 + lz, y0 + ly, x0);
        vdata.note_read(gi, w);
        std::int32_t* cur = row_of(lz + 1, ly + 1);
        ok &= prequant_row(vdata.data() + gi, w, inv2eb, cur + 1);

        const std::int32_t* up = row_of(lz + 1, ly);
        const std::int32_t* back = row_of(lz, ly + 1);
        const std::int32_t* back_up = row_of(lz, ly);
        vquant.note_write(gi, w);
        voutlier.note_write(gi, w);
        predict_row(cur, up, back, back_up, static_cast<std::uint32_t>(w), x_in_chunk, r,
                    residual, vquant.data() + gi, voutlier.data() + gi);
      }
    }
    if (!ok) {
      throw std::invalid_argument(
          "lorenzo_construct: |d|/2eb must be finite and below 2^27 for exact "
          "integer prequantization");
    }
  });

  // Traffic from the footprint contract (boxes over data/quant/outlier);
  // arithmetic and calibration stay the wrapper's.  The variant only picks
  // the modeled kernel: the host body is the same.
  const bool baseline = variant == ConstructVariant::kBaseline;
  traffic_scope.apply(res.cost);
  res.cost.flops = n * (2 + (std::size_t{1} << ext.rank));
  res.cost.parallel_items = n;
  res.cost.pattern = baseline ? sim::AccessPattern::kTiledShared
                              : sim::AccessPattern::kCoalescedStreaming;
  res.cost.custom_factor = baseline ? kBaselineFactor[static_cast<std::size_t>(ext.rank)]
                                    : kOptimizedFactor[static_cast<std::size_t>(ext.rank)];
}

template <typename T>
LorenzoConstructResult lorenzo_construct(std::span<const T> data, const Extents& ext,
                                         double eb_abs, const QuantConfig& qcfg,
                                         OutlierScheme scheme, ConstructVariant variant) {
  LorenzoConstructResult res;
  lorenzo_construct_into(data, ext, eb_abs, qcfg, scheme, variant, res);
  return res;
}

template void lorenzo_construct_into<float>(std::span<const float>, const Extents&, double,
                                            const QuantConfig&, OutlierScheme, ConstructVariant,
                                            LorenzoConstructResult&);
template void lorenzo_construct_into<double>(std::span<const double>, const Extents&, double,
                                             const QuantConfig&, OutlierScheme, ConstructVariant,
                                             LorenzoConstructResult&);
template LorenzoConstructResult lorenzo_construct<float>(std::span<const float>, const Extents&,
                                                         double, const QuantConfig&,
                                                         OutlierScheme, ConstructVariant);
template LorenzoConstructResult lorenzo_construct<double>(std::span<const double>, const Extents&,
                                                          double, const QuantConfig&,
                                                          OutlierScheme, ConstructVariant);

}  // namespace szp
