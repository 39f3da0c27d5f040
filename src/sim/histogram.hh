// szp::sim — device-wide histogram, mirroring the privatized-bins GPU
// algorithm of Gómez-Luna et al. that cuSZ/cuSZ+ use (paper §V-C.2, ref 34).
//
// Each block accumulates into a private copy of the bins (the GPU's
// shared-memory replication to dodge atomic contention), then private copies
// are merged by a second kernel over disjoint bin ranges.  Both kernels go
// through checked-launch registration so --check covers the histogram, and
// the tile kernel models its cooperating threads: lanes own contiguous
// sub-stripes of the tile and update the block-private row with atomicAdds,
// which word-granular checking (check.hh tier 2) treats as non-conflicting —
// exactly racecheck's view of shared-memory histogram privatization.
// Out-of-range values are ignored (callers guarantee range).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/check.hh"
#include "sim/launch.hh"
#include "sim/profile.hh"

namespace szp::sim {

/// Elements per histogram block.  Coarse, so few private rows exist to zero
/// and merge; 2^20 also keeps every sub-counter inside uint32.
inline constexpr std::size_t kHistogramTile = std::size_t{1} << 20;

/// Interleaved sub-counter rows per block: consecutive elements of a lane's
/// stripe rotate over the rows, so runs of one code (most of a quant-code
/// stream sits in one bin) bump four independent counters instead of
/// waiting on the previous increment of the same one.
inline constexpr std::size_t kHistogramSubRows = 4;

/// Workspace-reuse variant: fills `bins` (and uses `priv` as the private-row
/// scratch) with capacity-preserving assigns, so repeated calls at the same
/// size allocate nothing (see core/workspace.hh).
template <typename T>
void device_histogram_into(std::span<const T> data, std::size_t num_bins,
                           std::vector<std::uint64_t>& bins,
                           std::vector<std::uint32_t>& priv) {
  bins.assign(num_bins, 0);
  const std::size_t n = data.size();
  if (n == 0 || num_bins == 0) return;
  constexpr std::size_t tile = kHistogramTile;
  constexpr std::size_t sub = kHistogramSubRows;
  const std::size_t tiles = div_ceil(n, tile);
  const std::size_t rows = tiles * sub;

  // Kernel 1: every block fills its private sub-counter rows (shared-memory
  // replication), kLanes threads striding over the tile.
  priv.assign(rows * num_bins, 0);
  checked::launch(
      "histogram/tile_bins", tiles,
      checked::bufs(checked::in(data, "data"),
                    checked::inout(std::span<std::uint32_t>(priv), "priv_bins")),
      contract::contract(
          contract::reads("data", contract::b() * tile, static_cast<std::int64_t>(tile)).clamp(),
          contract::updates("priv_bins", contract::b() * (sub * num_bins),
                            static_cast<std::int64_t>(sub * num_bins))),
      [&](std::size_t t, const auto& vdata, const auto& vpriv) {
        const std::size_t lo = t * tile;
        const std::size_t hi = std::min(lo + tile, n);
        const std::size_t r0 = t * sub * num_bins;
        const std::size_t r1 = r0 + num_bins, r2 = r1 + num_bins, r3 = r2 + num_bins;
        const auto count = [&](std::size_t row, std::size_t i) {
          const auto v = static_cast<std::size_t>(vdata[i]);
          if (v < num_bins) vpriv.atomic_add(row + v, 1);
        };
        constexpr std::size_t kLanes = 32;
        const std::size_t per_lane = div_ceil(hi - lo, kLanes);
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          checked::this_thread(static_cast<std::uint32_t>(lane));
          const std::size_t a = std::min(lo + lane * per_lane, hi);
          const std::size_t b = std::min(a + per_lane, hi);
          std::size_t i = a;
          for (; i + sub <= b; i += sub) {
            count(r0, i);
            count(r1, i + 1);
            count(r2, i + 2);
            count(r3, i + 3);
          }
          for (; i < b; ++i) count(r0, i);
        }
        checked::barrier();
      });

  // Kernel 2: merge — each block owns a disjoint range of bins and adds the
  // private rows into it one row at a time (contiguous, vectorizable adds).
  constexpr std::size_t kMergeBins = 256;
  checked::launch(
      "histogram/merge", div_ceil(num_bins, kMergeBins),
      checked::bufs(checked::in(std::span<const std::uint32_t>(priv), "priv_bins"),
                    checked::out(std::span<std::uint64_t>(bins), "bins")),
      contract::contract(
          contract::reads("priv_bins", contract::b() * kMergeBins, kMergeBins)
              .strided(static_cast<std::int64_t>(rows), static_cast<std::int64_t>(num_bins))
              .clamp(),
          contract::writes("bins", contract::b() * kMergeBins, kMergeBins).clamp()),
      [&](std::size_t blk, const auto& vpriv, const auto& vbins) {
        const std::size_t b0 = blk * kMergeBins;
        const std::size_t w = std::min(b0 + kMergeBins, num_bins) - b0;
        std::array<std::uint64_t, kMergeBins> sum{};
        for (std::size_t r = 0; r < rows; ++r) {
          vpriv.note_read(r * num_bins + b0, w);
          const std::uint32_t* row = vpriv.data() + r * num_bins + b0;
          for (std::size_t k = 0; k < w; ++k) sum[k] += row[k];
        }
        vbins.note_write(b0, w);
        std::copy_n(sum.data(), w, vbins.data() + b0);
      });
}

template <typename T>
std::vector<std::uint64_t> device_histogram(std::span<const T> data,
                                            std::size_t num_bins) {
  std::vector<std::uint64_t> bins;
  std::vector<std::uint32_t> priv;
  device_histogram_into(data, num_bins, bins, priv);
  return bins;
}

/// Analytic GPU cost of the histogram kernel over n elements of width
/// `elem_bytes` with `num_bins` bins.
[[nodiscard]] inline KernelCost histogram_cost(std::size_t n, std::size_t elem_bytes,
                                               std::size_t num_bins) {
  KernelCost c;
  c.bytes_read = n * elem_bytes;
  c.bytes_written = num_bins * sizeof(std::uint32_t);
  c.flops = n;  // one bin update per element
  c.parallel_items = n;
  c.pattern = AccessPattern::kAtomicHeavy;
  return c;
}

}  // namespace szp::sim
