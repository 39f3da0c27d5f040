// szp::sim — reduce_by_key with the exact semantics of thrust::reduce_by_key
// used by cuSZ+'s run-length encoder (paper §V-B: "Run-length encoding is
// implemented using thrust::reduce_by_key").
//
// Consecutive equal keys collapse to one (key, reduced-value) pair.  RLE is
// the special case where values are all 1 and the reduction is +.  The tile
// decomposition runs block-parallel; tile boundaries that split a run are
// stitched in a serial merge pass (the head-flag carry a GPU implementation
// resolves with a decoupled look-back).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/aligned.hh"
#include "sim/check.hh"
#include "sim/launch.hh"
#include "sim/profile.hh"

namespace szp::sim {

template <typename Key, typename Count = std::uint32_t>
struct RunsOutput {
  std::vector<Key> keys;      ///< one entry per run
  std::vector<Count> counts;  ///< run lengths, same size as keys
};

/// Per-call scratch of reduce_by_key_into, reusable across calls (the
/// pipeline keeps one in its Workspace).  The run slices are never
/// zero-filled: each tile writes its runs at the head of its own slice, so
/// only the pages that hold runs are ever touched.
template <typename Key, typename Count = std::uint32_t>
struct RunScratch {
  scratch_vector<Key> run_keys;
  scratch_vector<Count> run_counts;
  std::vector<std::uint64_t> tile_run_count;
};

/// Collapse consecutive equal keys into (key, run-length) pairs in `out`.
template <typename Key, typename Count = std::uint32_t>
void reduce_by_key_into(std::span<const Key> keys, RunsOutput<Key, Count>& out,
                        RunScratch<Key, Count>& scratch, std::size_t tile = 1 << 16) {
  out.keys.clear();
  out.counts.clear();
  const std::size_t n = keys.size();
  if (n == 0) return;

  const std::size_t tiles = div_ceil(n, tile);
  // Worst-case run slices, exactly as thrust::reduce_by_key takes them:
  // every key could start a run, so each tile owns the [t*tile, t*tile +
  // tile) slice of the flat run arrays and compacts its runs at the slice
  // head.  Affine, disjoint, and statically provable.  clear() first, so a
  // growing buffer does not copy stale runs into its new pages.
  scratch.run_keys.clear();
  scratch.run_keys.resize(n);
  scratch.run_counts.clear();
  scratch.run_counts.resize(n);
  scratch.tile_run_count.resize(tiles);

  checked::launch("reduce_by_key/tile_runs", tiles,
                  checked::bufs(checked::in(keys, "keys"),
                                checked::out(std::span<Key>(scratch.run_keys), "run_keys"),
                                checked::out(std::span<Count>(scratch.run_counts), "run_counts"),
                                checked::out(std::span<std::uint64_t>(scratch.tile_run_count),
                                             "tile_run_count")),
                  contract::contract(
                      contract::reads("keys", contract::b() * tile,
                                      static_cast<std::int64_t>(tile)).clamp(),
                      contract::writes("run_keys", contract::b() * tile,
                                       static_cast<std::int64_t>(tile)).clamp(),
                      contract::writes("run_counts", contract::b() * tile,
                                       static_cast<std::int64_t>(tile)).clamp(),
                      contract::writes("tile_run_count", contract::b(), 1)),
                  [&, n, tile](std::size_t t, const auto& vkeys, const auto& vrk,
                               const auto& vrc, const auto& vcount) {
    const std::size_t lo = t * tile, hi = lo + tile < n ? lo + tile : n;
    std::size_t w = lo;
    Key cur = vkeys[lo];
    Count len = 1;
    for (std::size_t i = lo + 1; i < hi; ++i) {
      if (vkeys[i] == cur) {
        ++len;
      } else {
        vrk[w] = cur;
        vrc[w] = len;
        ++w;
        cur = vkeys[i];
        len = 1;
      }
    }
    vrk[w] = cur;
    vrc[w] = len;
    vcount[t] = w + 1 - lo;
  });

  // Stitch runs that straddle tile boundaries: tile t's first run continues
  // the previous tile's last run exactly when the keys either side of the
  // boundary match, so the output size is known before any run is copied.
  std::size_t total = 0;
  for (std::size_t t = 0; t < tiles; ++t) {
    total += static_cast<std::size_t>(scratch.tile_run_count[t]);
    if (t > 0 && keys[t * tile - 1] == keys[t * tile]) --total;
  }
  out.keys.resize(total);
  out.counts.resize(total);
  std::size_t w = 0;
  for (std::size_t t = 0; t < tiles; ++t) {
    const std::size_t lo = t * tile;
    std::size_t r = lo;
    const std::size_t end = lo + static_cast<std::size_t>(scratch.tile_run_count[t]);
    if (t > 0 && keys[lo - 1] == keys[lo]) out.counts[w - 1] += scratch.run_counts[r++];
    for (; r < end; ++r, ++w) {
      out.keys[w] = scratch.run_keys[r];
      out.counts[w] = scratch.run_counts[r];
    }
  }
}

/// Collapse consecutive equal keys into (key, run-length) pairs.
template <typename Key, typename Count = std::uint32_t>
RunsOutput<Key, Count> reduce_by_key(std::span<const Key> keys,
                                     std::size_t tile = 1 << 16) {
  RunsOutput<Key, Count> out;
  RunScratch<Key, Count> scratch;
  reduce_by_key_into(keys, out, scratch, tile);
  return out;
}

/// Inverse: expand (key, count) runs back to the flat sequence.
template <typename Key, typename Count>
std::vector<Key> expand_runs(std::span<const Key> keys, std::span<const Count> counts) {
  std::size_t total = 0;
  for (auto c : counts) total += c;
  std::vector<Key> out;
  out.reserve(total);
  for (std::size_t r = 0; r < keys.size(); ++r) {
    out.insert(out.end(), counts[r], keys[r]);
  }
  return out;
}

/// Analytic GPU cost of reduce_by_key over n keys producing r runs.
template <typename Key, typename Count = std::uint32_t>
[[nodiscard]] KernelCost reduce_by_key_cost(std::size_t n, std::size_t runs) {
  KernelCost c;
  c.bytes_read = n * sizeof(Key);
  c.bytes_written = runs * (sizeof(Key) + sizeof(Count));
  c.flops = 2 * n;  // compare + conditional increment
  c.parallel_items = n;
  c.pattern = AccessPattern::kCoalescedStreaming;
  // thrust::reduce_by_key runs several internal passes with intermediate
  // allocations; calibrated so the modeled stage matches the ~100-160 GB/s
  // the paper measures for it on V100 (§V-B, Table V).
  c.custom_factor = 0.08;
  c.launches = 3;
  return c;
}

}  // namespace szp::sim
