#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/error.hh"
#include "core/predictor/lorenzo.hh"
#include "sim/check.hh"
#include "sim/launch.hh"

namespace szp {

namespace {

constexpr std::size_t kMaxChunkElems = 512;

// The partial-sum kernel's host block is the construct's (DESIGN.md §2.4):
// a run of whole chunks along x, at most 256 elements wide, one chunk high
// and deep.
constexpr std::size_t kBlockWidth = 256;
constexpr std::size_t kMaxChunkRows = 16;  // cy of the 2-D chunk

// Bandwidth derating factors calibrated from Table II of the paper (V100
// columns): coarse cuSZ kernel, naive shared-memory partial sum, and the
// optimized fused partial sum, per rank.  The partial-sum factors apply to
// the fused kernel's contract bytes: 2 B read + 4 B written per float
// element, plus 12 B per outlier.
constexpr std::array<double, 4> kCoarseFactor{0.0, 0.037, 0.33, 0.066};
constexpr std::array<double, 4> kNaiveFactor{0.0, 0.282, 0.221, 0.196};
constexpr std::array<double, 4> kFusedFactor{0.0, 0.352, 0.287, 0.267};

struct Grid {
  ChunkShape cs;
  std::size_t gx, gy, gz;
};

Grid make_grid(const Extents& ext) {
  Grid g{ChunkShape::for_rank(ext.rank), 0, 0, 0};
  g.gx = sim::div_ceil(ext.nx, g.cs.cx);
  g.gy = sim::div_ceil(ext.ny, g.cs.cy);
  g.gz = sim::div_ceil(ext.nz, g.cs.cz);
  return g;
}

/// Inclusive x scan of one tile row with a reset at every chunk start
/// (x_in_chunk = cx - 1, cx a power of two): the chunk-local partial sum
/// along x.  Unsigned, so sums wrap like sim::wrapping_add.
void chunk_scan_row(std::uint32_t* row, std::size_t w, std::uint32_t x_in_chunk) {
  std::uint32_t acc = 0;
  for (std::size_t lx = 0; lx < w; ++lx) {
    acc = ((lx & x_in_chunk) != 0 ? acc : 0u) + row[lx];
    row[lx] = acc;
  }
}

/// dst[i] += src[i] over one tile row (the y and z partial-sum steps).
void add_row(std::uint32_t* dst, const std::uint32_t* src, std::size_t w) {
  for (std::size_t lx = 0; lx < w; ++lx) dst[lx] += src[lx];
}

}  // namespace

template <typename T>
sim::KernelCost lorenzo_reconstruct(std::span<const quant_t> quant,
                                    const sim::SparseVector<qdiff_t>& outliers,
                                    std::int32_t radius, const Extents& ext, double eb_abs,
                                    std::span<T> out, const ReconstructConfig& cfg) {
  if (cfg.variant == ReconstructVariant::kCoarseChunkSerial) {
    // A caller choice, not stream damage: decode_guard passes it through.
    throw ConfigError(
        "lorenzo_reconstruct: coarse variant needs lorenzo_reconstruct_coarse");
  }
  if (quant.size() != ext.count() || out.size() != ext.count() ||
      outliers.indices.size() != outliers.values.size()) {
    throw std::invalid_argument("lorenzo_reconstruct: size mismatch");
  }
  const std::size_t n = ext.count();
  const std::size_t nnz = outliers.nnz();
  const double eb2 = 2.0 * eb_abs;
  const ChunkShape cs = ChunkShape::for_rank(ext.rank);
  const std::size_t bw = kBlockWidth / cs.cx * cs.cx;  // whole chunks per block row
  const auto x_in_chunk = static_cast<std::uint32_t>(cs.cx - 1);  // cx is a power of two
  const auto bias = static_cast<std::uint32_t>(radius);

  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  sim::traffic::Scope traffic_scope;  // contract-derived volumes for the cost
  // Every block owns one box of the row-major field, `bw` wide and one chunk
  // high and deep, for the read of `quant` and the write of `out`.  Each
  // block consumes the outliers whose indices fall in its rows; those sets
  // are disjoint, so nnz bounds both outlier reads over the whole launch.
  const auto tile_of = [&](ctr::AccessKind a, const char* buf) {
    return ctr::box(a, buf, ctr::bx() * bw, static_cast<std::int64_t>(bw),
                    ctr::by() * cs.cy, static_cast<std::int64_t>(cs.cy), ctr::bz() * cs.cz,
                    static_cast<std::int64_t>(cs.cz), static_cast<std::int64_t>(ext.nx),
                    static_cast<std::int64_t>(ext.ny), static_cast<std::int64_t>(ext.nz));
  };
  chk::launch_3d(
      "lorenzo_reconstruct",
      {static_cast<std::uint32_t>(sim::div_ceil(ext.nx, bw)),
       static_cast<std::uint32_t>(sim::div_ceil(ext.ny, cs.cy)),
       static_cast<std::uint32_t>(sim::div_ceil(ext.nz, cs.cz))},
      chk::bufs(chk::in(quant, "quant"),
                chk::in(std::span<const std::uint64_t>(outliers.indices), "outlier_idx"),
                chk::in(std::span<const qdiff_t>(outliers.values), "outlier_val"),
                chk::out(out, "out")),
      ctr::contract(tile_of(ctr::AccessKind::kRead, "quant"),
                    ctr::reads_dyn("outlier_idx", static_cast<std::int64_t>(nnz)),
                    ctr::reads_dyn("outlier_val", static_cast<std::int64_t>(nnz)),
                    tile_of(ctr::AccessKind::kWrite, "out")),
      [&](std::uint32_t bx, std::uint32_t by, std::uint32_t bz, const auto& vquant,
          const auto& vidx, const auto& vval, const auto& vout) {
    const std::size_t x0 = bx * bw, y0 = by * cs.cy, z0 = bz * cs.cz;
    const std::size_t w = std::min(bw, ext.nx - x0);
    const std::size_t h = std::min(cs.cy, ext.ny - y0);
    const std::size_t d = std::min(cs.cz, ext.nz - z0);
    const std::uint64_t* idx = vidx.data();
    const qdiff_t* val = vval.data();

    // "Shared memory": the current row, the running y sum of the current
    // plane, and the z-summed rows of the previous plane.  Each is written
    // before it is read, so nothing is zero-filled.  The partial sums are
    // linear and wrap mod 2^32, so running x, then y, then z gives the same
    // bits as any other order.
    std::array<std::uint32_t, kBlockWidth> row;
    std::array<std::uint32_t, kBlockWidth> ysum;
    std::array<std::uint32_t, kMaxChunkRows * kBlockWidth> plane;

    std::size_t p = 0;  // next outlier at or after the current row
    for (std::size_t lz = 0; lz < d; ++lz) {
      for (std::size_t ly = 0; ly < h; ++ly) {
        const std::size_t gi = ext.index(z0 + lz, y0 + ly, x0);
        vquant.note_read(gi, w);
        const quant_t* q = vquant.data() + gi;
        for (std::size_t lx = 0; lx < w; ++lx) row[lx] = q[lx] - bias;

        // Algorithm 1 line 9: fuse the row's outliers.  Rows ascend in
        // global index, so the search only moves forward; the unsigned
        // offset test also stops at an out-of-order index, so malformed
        // input can never write outside the row.
        if (p < nnz && idx[p] < gi) {
          p = static_cast<std::size_t>(std::lower_bound(idx + p, idx + nnz, gi) - idx);
        }
        const std::size_t p0 = p;
        for (; p < nnz; ++p) {
          const std::uint64_t off = idx[p] - gi;
          if (off >= w) break;
          row[off] += static_cast<std::uint32_t>(val[p]);
        }
        if (p > p0) {
          vidx.note_read(p0, p - p0);
          vval.note_read(p0, p - p0);
        }

        // Partial sums (Algorithm 1 lines 10-12).
        chunk_scan_row(row.data(), w, x_in_chunk);
        const std::uint32_t* sum = row.data();
        if (h > 1) {
          if (ly == 0) {
            std::copy_n(sum, w, ysum.data());
          } else {
            add_row(ysum.data(), sum, w);
          }
          sum = ysum.data();
        }
        if (d > 1) {
          std::uint32_t* zrow = plane.data() + ly * kBlockWidth;
          if (lz == 0) {
            std::copy_n(sum, w, zrow);
          } else {
            add_row(zrow, sum, w);
          }
          sum = zrow;
        }

        // Algorithm 1 line 13: scale back to data units, the only store.
        vout.note_write(gi, w);
        T* o = vout.data() + gi;
        for (std::size_t lx = 0; lx < w; ++lx) {
          o[lx] = static_cast<T>(static_cast<double>(static_cast<qdiff_t>(sum[lx])) * eb2);
        }
      }
    }
  });

  const bool naive = cfg.variant == ReconstructVariant::kNaivePartialSum;
  sim::KernelCost c;
  // Contract-derived traffic (quant read, outliers read, out stored); the
  // simulated fused launch stands in for one launch per scan direction on
  // the device, so the modeled launch count stays ext.rank.
  traffic_scope.apply(c);
  c.flops = n * (2 * static_cast<std::size_t>(ext.rank) + 2) + nnz;
  c.parallel_items = n;
  c.pattern = naive ? sim::AccessPattern::kTiledShared
                    : sim::AccessPattern::kCoalescedStreaming;
  const auto& table = naive ? kNaiveFactor : kFusedFactor;
  c.custom_factor = table[static_cast<std::size_t>(ext.rank)];
  c.launches = ext.rank;  // one fused launch per scan direction
  return c;
}

template <typename T>
sim::KernelCost lorenzo_reconstruct_coarse(std::span<const quant_t> quant,
                                           std::span<const qdiff_t> outlier_value_dense,
                                           const Extents& ext, double eb_abs,
                                           const QuantConfig& qcfg, std::span<T> out) {
  if (quant.size() != ext.count() || out.size() != ext.count() ||
      outlier_value_dense.size() != ext.count()) {
    throw std::invalid_argument("lorenzo_reconstruct_coarse: size mismatch");
  }
  const double eb2 = 2.0 * eb_abs;
  const std::int64_t r = qcfg.radius();
  const auto grid = make_grid(ext);
  const ChunkShape cs = grid.cs;

  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  sim::traffic::Scope traffic_scope;  // contract-derived volumes for the cost
  const auto tile_of = [&](ctr::AccessKind a, const char* buf) {
    return ctr::box(a, buf, ctr::bx() * cs.cx, static_cast<std::int64_t>(cs.cx),
                    ctr::by() * cs.cy, static_cast<std::int64_t>(cs.cy), ctr::bz() * cs.cz,
                    static_cast<std::int64_t>(cs.cz), static_cast<std::int64_t>(ext.nx),
                    static_cast<std::int64_t>(ext.ny), static_cast<std::int64_t>(ext.nz));
  };
  chk::launch_3d("lorenzo_reconstruct_coarse",
                 {static_cast<std::uint32_t>(grid.gx), static_cast<std::uint32_t>(grid.gy),
                  static_cast<std::uint32_t>(grid.gz)},
                 chk::bufs(chk::in(quant, "quant"),
                           chk::in(outlier_value_dense, "outlier"),
                           chk::out(out, "out")),
                 ctr::contract(tile_of(ctr::AccessKind::kRead, "quant"),
                               tile_of(ctr::AccessKind::kRead, "outlier"),
                               tile_of(ctr::AccessKind::kWrite, "out")),
                 [&](std::uint32_t bx, std::uint32_t by, std::uint32_t bz, const auto& vquant,
                     const auto& voutlier, const auto& vout) {
    const std::size_t x0 = bx * cs.cx, y0 = by * cs.cy, z0 = bz * cs.cz;
    const std::size_t w = std::min(cs.cx, ext.nx - x0);
    const std::size_t h = std::min(cs.cy, ext.ny - y0);
    const std::size_t d = std::min(cs.cz, ext.nz - z0);

    std::array<std::int64_t, kMaxChunkElems> pq;  // reconstructed prequant values
    const auto lidx = [&](std::size_t lz, std::size_t ly, std::size_t lx) {
      return (lz * h + ly) * w + lx;
    };
    const auto at = [&](std::ptrdiff_t lz, std::ptrdiff_t ly, std::ptrdiff_t lx) -> std::int64_t {
      if (lx < 0 || ly < 0 || lz < 0) return 0;
      return pq[lidx(static_cast<std::size_t>(lz), static_cast<std::size_t>(ly),
                     static_cast<std::size_t>(lx))];
    };

    // Serial raster-order reconstruction: each value depends on its fully
    // reconstructed predecessors (the data dependency §II-B.2 describes).
    for (std::size_t lz = 0; lz < d; ++lz) {
      for (std::size_t ly = 0; ly < h; ++ly) {
        for (std::size_t lx = 0; lx < w; ++lx) {
          const auto x = static_cast<std::ptrdiff_t>(lx);
          const auto y = static_cast<std::ptrdiff_t>(ly);
          const auto z = static_cast<std::ptrdiff_t>(lz);
          std::int64_t pred = 0;
          switch (ext.rank) {
            case 1: pred = at(0, 0, x - 1); break;
            case 2: pred = at(0, y - 1, x) + at(0, y, x - 1) - at(0, y - 1, x - 1); break;
            case 3:
              pred = at(z, y - 1, x) + at(z, y, x - 1) + at(z - 1, y, x)
                   - at(z, y - 1, x - 1) - at(z - 1, y - 1, x) - at(z - 1, y, x - 1)
                   + at(z - 1, y - 1, x - 1);
              break;
            default: break;
          }
          const std::size_t gi = ext.index(z0 + lz, y0 + ly, x0 + lx);
          const quant_t q = vquant[gi];
          std::int64_t val;
          if (q == 0) {
            val = voutlier[gi];  // divergent outlier branch
          } else {
            val = pred + (static_cast<std::int64_t>(q) - r);
          }
          pq[lidx(lz, ly, lx)] = val;
          vout[gi] = static_cast<T>(static_cast<double>(val) * eb2);
        }
      }
    }
  });

  const std::size_t n = ext.count();
  const std::size_t chunks = grid.gx * grid.gy * grid.gz;
  sim::KernelCost c;
  traffic_scope.apply(c);  // contract-derived: quant+outlier reads, out store
  c.flops = n * (2 * static_cast<std::size_t>(ext.rank) + 4);
  c.parallel_items = chunks;  // one virtual thread per chunk
  c.pattern = sim::AccessPattern::kStrided;
  c.custom_factor = kCoarseFactor[static_cast<std::size_t>(ext.rank)];
  return c;
}

template sim::KernelCost lorenzo_reconstruct<float>(std::span<const quant_t>,
                                                    const sim::SparseVector<qdiff_t>&,
                                                    std::int32_t, const Extents&, double,
                                                    std::span<float>, const ReconstructConfig&);
template sim::KernelCost lorenzo_reconstruct<double>(std::span<const quant_t>,
                                                     const sim::SparseVector<qdiff_t>&,
                                                     std::int32_t, const Extents&, double,
                                                     std::span<double>,
                                                     const ReconstructConfig&);
template sim::KernelCost lorenzo_reconstruct_coarse<float>(std::span<const quant_t>,
                                                           std::span<const qdiff_t>,
                                                           const Extents&, double,
                                                           const QuantConfig&, std::span<float>);
template sim::KernelCost lorenzo_reconstruct_coarse<double>(std::span<const quant_t>,
                                                            std::span<const qdiff_t>,
                                                            const Extents&, double,
                                                            const QuantConfig&, std::span<double>);

}  // namespace szp
