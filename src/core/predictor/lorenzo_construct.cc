#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "core/predictor/lorenzo.hh"
#include "sim/check.hh"
#include "sim/device_scan.hh"
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
// They apply to the contract bytes: 4 B read + 2 B written per float
// element, the row-count table and 12 B per outlier (no dense outlier
// array), so the modeled Table VI construct columns match the published
// ones as they did at 10 B/elem.
constexpr std::array<double, 4> kBaselineFactor{0.0, 0.352, 0.426, 0.350};
constexpr std::array<double, 4> kOptimizedFactor{0.0, 0.517, 0.462, 0.514};

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
/// chunk's first column, the chunk's zero prediction boundary.  Writes the
/// row's codes to `q` and its outlier values (0 for in-range elements) to
/// the block-local row `o`; returns true when some element is out of range.
bool predict_row(const std::int32_t* cur, const std::int32_t* up, const std::int32_t* back,
                 const std::int32_t* back_up, std::uint32_t w, std::uint32_t x_in_chunk,
                 std::int32_t r, bool residual, quant_t* q, qdiff_t* o) {
  // Code of an out-of-range element: δ'=0 (cuSZ+) or the placeholder 0 (cuSZ).
  const std::int32_t q_out = residual ? r : 0;
  std::int32_t any_out = 0;
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
    any_out |= static_cast<std::int32_t>(!in);
  }
  return any_out != 0;
}

/// Host-block geometry shared by the construct and the gather: blocks are
/// runs of whole chunks along x, `bw` wide and one chunk high and deep, and
/// block (bx, by, bz) owns stash slice (bz*gy + by)*gx + bx.
struct BlockGrid {
  ChunkShape cs;
  std::size_t bw, gx, gy, gz;

  explicit BlockGrid(const Extents& ext)
      : cs(ChunkShape::for_rank(ext.rank)),
        bw(kBlockWidth / cs.cx * cs.cx),
        gx(sim::div_ceil(ext.nx, bw)),
        gy(sim::div_ceil(ext.ny, cs.cy)),
        gz(sim::div_ceil(ext.nz, cs.cz)) {}

  [[nodiscard]] std::size_t slice() const { return bw * cs.cy * cs.cz; }
  [[nodiscard]] std::size_t blocks() const { return gx * gy * gz; }
  [[nodiscard]] sim::Dim3 dim() const {
    return {static_cast<std::uint32_t>(gx), static_cast<std::uint32_t>(gy),
            static_cast<std::uint32_t>(gz)};
  }
  /// First element of block (bx, by, bz)'s stash slice, as a contract term.
  [[nodiscard]] sim::contract::Term slice_base() const {
    namespace ctr = sim::contract;
    const auto s = static_cast<std::int64_t>(slice());
    return ctr::bx() * s + ctr::by() * static_cast<std::int64_t>(gx * slice()) +
           ctr::bz() * static_cast<std::int64_t>(gx * gy * slice());
  }
  /// The block's rows in the row-count table, a box over (gx, ny, nz).
  [[nodiscard]] sim::contract::Clause rows_of(sim::contract::AccessKind a, const char* buf,
                                              const Extents& ext) const {
    namespace ctr = sim::contract;
    return ctr::box(a, buf, ctr::bx(), 1, ctr::by() * cs.cy, static_cast<std::int64_t>(cs.cy),
                    ctr::bz() * cs.cz, static_cast<std::int64_t>(cs.cz),
                    static_cast<std::int64_t>(gx), static_cast<std::int64_t>(ext.ny),
                    static_cast<std::int64_t>(ext.nz));
  }
};

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
  const BlockGrid g(ext);
  // Every code and every row count is written by the kernel, and each block
  // writes only the head of its stash slice: no zero-fill.  clear() first,
  // so a growing buffer does not copy stale contents into its new pages.
  res.quant.resize(n);
  LorenzoOutlierStash& stash = res.stash;
  stash.ext = ext;
  stash.idx.clear();
  stash.idx.resize(g.blocks() * g.slice());
  stash.val.clear();
  stash.val.resize(g.blocks() * g.slice());
  stash.row_nnz.resize(g.gx * ext.ny * ext.nz);

  const double inv2eb = 1.0 / (2.0 * eb_abs);
  const std::int32_t r = qcfg.radius();
  const bool residual = scheme == OutlierScheme::kResidual;
  const ChunkShape cs = g.cs;
  const std::size_t bw = g.bw;
  const auto x_in_chunk = static_cast<std::uint32_t>(cs.cx - 1);  // cx is a power of two
  const std::size_t pitch_y = (cs.cy + 1) * kPitchX;
  const std::size_t slice = g.slice();

  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  sim::traffic::Scope traffic_scope;  // contract-derived volumes for res.cost
  // Every block owns one box of the row-major field, `bw` wide and one chunk
  // high and deep: the same box for the read of `data` and the write of
  // `quant`.  It also owns its stash slice, of which it writes only the
  // head: the outliers it finds, counted into `emitted` for the traffic.
  const auto tile_of = [&](ctr::AccessKind a, const char* buf) {
    return ctr::box(a, buf, ctr::bx() * bw, static_cast<std::int64_t>(bw),
                    ctr::by() * cs.cy, static_cast<std::int64_t>(cs.cy), ctr::bz() * cs.cz,
                    static_cast<std::int64_t>(cs.cz), static_cast<std::int64_t>(ext.nx),
                    static_cast<std::int64_t>(ext.ny), static_cast<std::int64_t>(ext.nz));
  };
  std::atomic<std::uint64_t> emitted{0};
  const auto stash_of = [&](const char* buf) {
    return ctr::writes(buf, g.slice_base(), static_cast<std::int64_t>(slice)).counted_by(emitted);
  };
  chk::launch_3d("lorenzo_construct", g.dim(),
                 chk::bufs(chk::in(data, "data"),
                           chk::out(std::span<quant_t>(res.quant), "quant"),
                           chk::out(std::span<std::uint64_t>(stash.idx), "stash_idx"),
                           chk::out(std::span<qdiff_t>(stash.val), "stash_val"),
                           chk::out(std::span<std::size_t>(stash.row_nnz), "row_nnz")),
                 ctr::contract(tile_of(ctr::AccessKind::kRead, "data"),
                               tile_of(ctr::AccessKind::kWrite, "quant"),
                               stash_of("stash_idx"), stash_of("stash_val"),
                               g.rows_of(ctr::AccessKind::kWrite, "row_nnz", ext)),
                 [&](std::uint32_t bx, std::uint32_t by, std::uint32_t bz, const auto& vdata,
                     const auto& vquant, const auto& vidx, const auto& vval,
                     const auto& vrows) {
    const std::size_t x0 = bx * bw, y0 = by * cs.cy, z0 = bz * cs.cz;
    const std::size_t w = std::min(bw, ext.nx - x0);
    const std::size_t h = std::min(cs.cy, ext.ny - y0);
    const std::size_t d = std::min(cs.cz, ext.nz - z0);
    const std::size_t base = ((bz * g.gy + by) * g.gx + bx) * slice;
    std::size_t k = base;  // next free stash entry

    // "Shared memory": the prequantized block (Algorithm 1 line 2).  Only
    // the halo is zeroed; the interior is written before it is read.
    std::array<std::int32_t, kTileElems> tile;
    std::array<qdiff_t, kBlockWidth> orow;  // the current row's outlier values
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
        const std::size_t row_start = k;
        if (predict_row(cur, up, back, back_up, static_cast<std::uint32_t>(w), x_in_chunk, r,
                        residual, vquant.data() + gi, orow.data())) {
          // Compact the row's non-zero outlier values (a kValue outlier
          // whose value is 0 has nothing to store) onto the stash.
          std::uint64_t* idx = vidx.data();
          qdiff_t* val = vval.data();
          for (std::size_t lx = 0; lx < w; ++lx) {
            if (orow[lx] != 0) {
              idx[k] = gi + lx;
              val[k] = orow[lx];
              ++k;
            }
          }
          vidx.note_write(row_start, k - row_start);
          vval.note_write(row_start, k - row_start);
        }
        vrows[((z0 + lz) * ext.ny + (y0 + ly)) * g.gx + bx] = k - row_start;
      }
    }
    emitted.fetch_add(k - base, std::memory_order_relaxed);
    if (!ok) {
      throw std::invalid_argument(
          "lorenzo_construct: |d|/2eb must be finite and below 2^27 for exact "
          "integer prequantization");
    }
  });

  // Traffic from the footprint contract (boxes over data/quant/row_nnz,
  // 12 B per emitted outlier);
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

sim::KernelCost lorenzo_gather_outliers(const LorenzoOutlierStash& stash,
                                        sim::SparseVector<qdiff_t>& out,
                                        std::vector<std::size_t>& row_offset) {
  const Extents& ext = stash.ext;
  const BlockGrid g(ext);
  const std::size_t rows = stash.row_nnz.size();
  const std::size_t slice = g.slice();
  const ChunkShape cs = g.cs;

  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  sim::traffic::Scope traffic_scope;
  // Output position of every row segment: rows ascend in global index, so
  // the scan lays the segments out in index order.
  row_offset.resize(rows);
  const std::size_t nnz = sim::device_exclusive_scan(
      std::span<const std::size_t>(stash.row_nnz.data(), rows),
      std::span<std::size_t>(row_offset.data(), rows));
  out.indices.resize(nnz);
  out.values.resize(nnz);

  // Each block copies its slice head, row by row, to the rows' scanned
  // positions.  Those positions are data-dependent, so the copies stay on
  // dynamic checking, bounded by the scan total.
  const auto bounded = [&](ctr::AccessKind a, const char* buf) {
    return ctr::bounded_dyn(a, buf, static_cast<std::int64_t>(nnz));
  };
  chk::launch_3d(
      "gather_outlier/fill", g.dim(),
      chk::bufs(chk::in(std::span<const std::size_t>(stash.row_nnz.data(), rows), "row_nnz"),
                chk::in(std::span<const std::size_t>(row_offset.data(), rows), "row_offset"),
                chk::in(std::span<const std::uint64_t>(stash.idx.data(), stash.idx.size()),
                        "stash_idx"),
                chk::in(std::span<const qdiff_t>(stash.val.data(), stash.val.size()),
                        "stash_val"),
                chk::out(std::span<std::uint64_t>(out.indices), "indices"),
                chk::out(std::span<qdiff_t>(out.values), "values")),
      ctr::contract(g.rows_of(ctr::AccessKind::kRead, "row_nnz", ext),
                    g.rows_of(ctr::AccessKind::kRead, "row_offset", ext),
                    bounded(ctr::AccessKind::kRead, "stash_idx"),
                    bounded(ctr::AccessKind::kRead, "stash_val"),
                    bounded(ctr::AccessKind::kWrite, "indices"),
                    bounded(ctr::AccessKind::kWrite, "values")),
      [&](std::uint32_t bx, std::uint32_t by, std::uint32_t bz, const auto& vrows,
          const auto& voff, const auto& vsidx, const auto& vsval, const auto& vidx,
          const auto& vval) {
    const std::size_t y0 = by * cs.cy, z0 = bz * cs.cz;
    const std::size_t h = std::min(cs.cy, ext.ny - y0);
    const std::size_t d = std::min(cs.cz, ext.nz - z0);
    std::size_t k = ((bz * g.gy + by) * g.gx + bx) * slice;
    for (std::size_t z = z0; z < z0 + d; ++z) {
      for (std::size_t y = y0; y < y0 + h; ++y) {
        const std::size_t row = (z * ext.ny + y) * g.gx + bx;
        const std::size_t c = vrows[row];
        if (c == 0) continue;
        const std::size_t o = voff[row];
        vsidx.note_read(k, c);
        vsval.note_read(k, c);
        vidx.note_write(o, c);
        vval.note_write(o, c);
        std::copy_n(vsidx.data() + k, c, vidx.data() + o);
        std::copy_n(vsval.data() + k, c, vval.data() + o);
        k += c;
      }
    }
  });

  sim::KernelCost cost;
  traffic_scope.apply(cost);
  cost.flops = rows + nnz;
  cost.parallel_items = rows;
  cost.pattern = sim::AccessPattern::kScattered;
  return cost;
}

sim::SparseVector<qdiff_t> lorenzo_outliers(const LorenzoConstructResult& res) {
  sim::SparseVector<qdiff_t> out;
  std::vector<std::size_t> row_offset;
  (void)lorenzo_gather_outliers(res.stash, out, row_offset);
  return out;
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
