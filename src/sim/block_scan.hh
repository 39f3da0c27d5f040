// szp::sim — block-level inclusive scan, mirroring NVIDIA::cub BlockScan.
//
// cuSZ+'s fine-grained Lorenzo reconstruction (§IV-B.3) is built from
// chunk-wide inclusive partial sums.  On the GPU these are cub BlockScans
// (1-D) or handcrafted warp-shuffle scans with per-thread "sequentiality"
// (2-D/3-D).  Here the same structure is expressed as a tiled scan: each
// virtual thread owns `seq` consecutive items (its thread-private tp[]
// fragment), fragments are scanned trivially, and fragment totals are
// propagated — exactly the three-phase scan the paper describes, so the
// fragment structure is real code, not just a label.  Each fragment is
// attributed to its virtual thread via checked::this_thread(), so
// word-granular checking (check.hh tier 2) sees the scan as racecheck would
// see the cub version: lanes striding over disjoint words, carries in
// registers — benign, never flagged.
//
// The production Lorenzo kernel runs its partial sums as tile-row adds
// (core/predictor/lorenzo_reconstruct.cc); these scans are the reference
// primitives the substrate tests pin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "sim/check.hh"

namespace szp::sim {

/// a + b for integers with two's-complement wraparound (added as unsigned,
/// cast back), so an out-of-range partial sum from corrupt input is
/// defined behaviour; in-range sums give the same bits as plain `+`.
template <typename T>
[[nodiscard]] constexpr T wrapping_add(T a, T b) {
  using U = std::make_unsigned_t<T>;
  return static_cast<T>(static_cast<U>(static_cast<U>(a) + static_cast<U>(b)));
}

/// Inclusive scan of `chunk` in place, organized as ceil(n/seq) virtual
/// threads each owning `seq` consecutive elements; lane f is attributed
/// fragment f's accesses and the carry lives in a register.
/// Phase 1: each fragment scans locally (thread-private registers).
/// Phase 2: running carry of fragment totals (the warp-shuffle propagate).
/// Closes the barrier epoch afterwards, like the cub scan's __syncthreads().
template <typename T>
void block_inclusive_scan(std::span<T> chunk, std::size_t seq = 8) {
  const std::size_t n = chunk.size();
  if (seq == 0) seq = 1;
  T carry{};
  std::uint32_t lane = 0;
  for (std::size_t frag = 0; frag < n; frag += seq, ++lane) {
    checked::this_thread(lane);
    const std::size_t end = frag + seq < n ? frag + seq : n;
    T acc = carry;
    for (std::size_t i = frag; i < end; ++i) {
      acc = wrapping_add<T>(acc, chunk[i]);
      chunk[i] = acc;
    }
    carry = acc;
  }
  checked::barrier();
}

/// Inclusive scan over a strided sequence (stride in elements), as the
/// y/z passes of a 2-D/3-D partial sum see a chunk column.  Equivalent to
/// block_inclusive_scan on the gathered sequence; one virtual thread owns
/// the whole sequence.
template <typename T>
void block_inclusive_scan_strided(T* base, std::size_t count, std::size_t stride) {
  checked::this_thread(0);
  T acc{};
  for (std::size_t i = 0; i < count; ++i) {
    acc = wrapping_add<T>(acc, base[i * stride]);
    base[i * stride] = acc;
  }
}

}  // namespace szp::sim
