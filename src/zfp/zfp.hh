// szp::zfp — a ZFP-style fixed-rate transform compressor (the cuZFP
// comparator of the paper's related work, §VI).
//
// Faithful to ZFP's algorithm structure (Lindstrom, TVCG'14): the field is
// cut into 4^d blocks; each block is aligned to a common exponent and
// converted to fixed point; a reversible integer lifting transform
// decorrelates each dimension; coefficients are reordered by total
// sequency, mapped to negabinary, and emitted most-significant bit-plane
// first with a per-plane zero flag (a simplified embedded/group-test
// coding).  *Fixed-rate* mode only — every block gets exactly
// `rate_bits_per_value * 4^d` bits — which is precisely the limitation the
// paper cites for cuZFP ("it only supports fixed-rate mode, significantly
// limiting its adoption", §VI): the compression ratio is chosen up front
// and the pointwise error floats.
//
// bench/compare_zfp.cc reproduces the qualitative SZ-vs-ZFP comparison:
// at matched PSNR the prediction-based compressor usually wins on ratio.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hh"
#include "sim/profile.hh"

namespace szp::zfp {

struct ZfpConfig {
  /// Bits per value, the fixed rate.  Ratio is exactly 32/rate for float32.
  /// Must be in [1, 32].
  double rate_bits_per_value = 8.0;
};

struct ZfpCompressed {
  std::vector<std::uint8_t> bytes;
  double ratio = 0.0;
  sim::KernelCost cost;  ///< encode kernel (block-parallel)
};

struct ZfpDecompressed {
  std::vector<float> data;
  Extents extents;
  sim::KernelCost cost;
};

/// Compress at the configured fixed rate.
[[nodiscard]] ZfpCompressed zfp_compress(std::span<const float> data, const Extents& ext,
                                         const ZfpConfig& cfg = {});

/// Decompress a zfp_compress archive.
[[nodiscard]] ZfpDecompressed zfp_decompress(std::span<const std::uint8_t> archive);

/// ZFP's forward lifting transform on one stride-s 4-vector (the
/// non-orthogonal integer approximation of the DCT), and its exact inverse.
/// Both compute through two's-complement wraparound, so any int32 input —
/// including coefficients decoded from a corrupt stream — is defined
/// behaviour; on valid blocks the bits are ZFP's.
void fwd_lift(std::int32_t* p, std::size_t s);
void inv_lift(std::int32_t* p, std::size_t s);

}  // namespace szp::zfp
