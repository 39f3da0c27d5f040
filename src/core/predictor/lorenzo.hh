// szp — first-order Lorenzo predictor with dual quantization (paper §IV-A)
// and the three Lorenzo reconstruction strategies evaluated in Table II:
//
//   * kCoarseChunkSerial  — cuSZ baseline: one (virtual) thread serially
//     reconstructs a whole chunk, with a divergent outlier branch
//     (quant-code 0 is the outlier placeholder, outliers live in
//     prequantized-*value* space).
//   * kNaivePartialSum    — proof-of-concept cuSZ+ kernel: chunk staged
//     through "shared memory", one item per thread, N-pass partial sums.
//   * kOptimizedPartialSum — the paper's optimized kernel: in-place fused
//     passes with per-thread sequentiality, warp-shuffle style fragment
//     propagation.
//
// The two partial-sum variants share one host body (lorenzo_reconstruct):
// the variant picks only the modeled access pattern and calibration, as
// ConstructVariant does for construction.  That body reads the decoded
// quant-codes and the sparse residual-space outliers directly, fuses
// quant ⊕ outlier in a block-local tile (Algorithm 1 line 9), runs the
// partial sums there and writes each output element exactly once — no
// dense q' intermediate, no separate scatter pass (DESIGN.md §2.5).
//
// Construction is chunked (256 / 16x16 / 8x8x8) with a zero prediction
// boundary per chunk, which removes inter-chunk dependencies and is exactly
// the property that makes reconstruction a chunk-local inclusive partial
// sum (the paper's §IV-B proof).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/eb.hh"
#include "core/types.hh"
#include "sim/aligned.hh"
#include "sim/profile.hh"
#include "sim/sparse.hh"

namespace szp {

/// Where out-of-range residuals go.
enum class OutlierScheme {
  kResidual,  ///< cuSZ+ (modified quantization, §IV-B.1): store the residual
              ///< δ itself; quant-code is `radius` (δ=0); the decoder fuses
              ///< quant ⊕ outlier with no branch.
  kValue,     ///< cuSZ baseline: store the prequantized value d°; quant-code
              ///< 0 is a placeholder that the serial decoder branches on.
};

enum class ReconstructVariant {
  kCoarseChunkSerial,
  kNaivePartialSum,
  kOptimizedPartialSum,
};

/// Which construction kernel the cost model attributes: the access pattern
/// and calibrated bandwidth factor of the modeled KernelCost.  Both run the
/// same host body and produce the same bytes (see lorenzo_construct.cc).
enum class ConstructVariant {
  kBaseline,  ///< cuSZ: shared-memory staging, 1 item/thread
  kOptimized, ///< cuSZ+: register reuse via in-warp shuffle, coarsened threads
};

/// What the construct kernel leaves for the outlier gather.  Each host block
/// (a run of whole chunks at most 256 wide, one chunk high and deep) appends
/// its outliers, in global index order, at the head of its own slice of the
/// stash and records one count per row segment.  Nothing else of the stash
/// is written, so only pages that hold outliers become resident.
struct LorenzoOutlierStash {
  sim::scratch_vector<std::uint64_t> idx;  ///< global element index
  sim::scratch_vector<qdiff_t> val;        ///< non-zero outlier value
  /// Outliers of every row segment, indexed (z*ny + y)*blocks_x + bx —
  /// global index order.
  sim::scratch_vector<std::size_t> row_nnz;
  Extents ext;  ///< field the stash was laid out for
};

struct LorenzoConstructResult {
  sim::device_vector<quant_t> quant;  ///< one code per element
  LorenzoOutlierStash stash;          ///< input of lorenzo_gather_outliers
  sim::KernelCost cost;
};

/// Dual-quantized Lorenzo construction: prequant d° = round(d/2eb), predict
/// within the chunk, emit quant-codes and stage every non-zero outlier value
/// (the residual for kResidual, the prequantized value for kValue) for
/// lorenzo_gather_outliers.  No dense outlier array exists.
///
/// T is float or double (the paper supports both; doubles raise the VLE
/// compression-ratio ceiling from 32x to 64x).  Requires |d|/(2*eb) < 2^27
/// for every element so residual arithmetic stays exact in int32/qdiff_t;
/// throws std::invalid_argument otherwise (NaN and infinities included).
template <typename T>
[[nodiscard]] LorenzoConstructResult lorenzo_construct(
    std::span<const T> data, const Extents& ext, double eb_abs,
    const QuantConfig& quant, OutlierScheme scheme = OutlierScheme::kResidual,
    ConstructVariant variant = ConstructVariant::kOptimized);

/// Workspace-reuse variant: fills the caller's result struct, resizing its
/// buffers without zero-filling them, so a reused `res` allocates nothing
/// once its buffers have grown to the field size (see core/workspace.hh).
template <typename T>
void lorenzo_construct_into(std::span<const T> data, const Extents& ext, double eb_abs,
                            const QuantConfig& quant, OutlierScheme scheme,
                            ConstructVariant variant, LorenzoConstructResult& res);

/// The gather_outlier stage: an exclusive scan of the stash's row counts
/// into `row_offset`, then a per-block fill that copies each row's staged
/// entries to `out` — exactly the non-zero outliers in strictly increasing
/// index order, as a dense-to-sparse gather of the same values would give.
/// Returns the kernel cost (contract-derived traffic).
sim::KernelCost lorenzo_gather_outliers(const LorenzoOutlierStash& stash,
                                        sim::SparseVector<qdiff_t>& out,
                                        std::vector<std::size_t>& row_offset);

/// Convenience: the gathered outliers of a construct result.
[[nodiscard]] sim::SparseVector<qdiff_t> lorenzo_outliers(const LorenzoConstructResult& res);

/// Picks the modeled reconstruction kernel (Table II): access pattern and
/// calibrated bandwidth factor.  Both partial-sum variants run the same host
/// body and produce the same bytes; kCoarseChunkSerial is the cuSZ
/// baseline, reachable only through lorenzo_reconstruct_coarse.
struct ReconstructConfig {
  ReconstructVariant variant = ReconstructVariant::kOptimizedPartialSum;
};

/// cuSZ+ fine-grained reconstruction (Algorithm 1, decompression half).
/// `quant` holds one code per element (code = residual + radius); the
/// sparse `outliers` hold residual-space corrections whose indices must be
/// strictly increasing and below ext.count() (the order dense_to_sparse
/// emits; Compressor::decompress validates it for archives).  Computes
/// d = partial_sum(quant - radius ⊕ outliers) * 2eb into `out`, writing
/// every element exactly once.  Sums wrap in two's complement, so corrupt
/// input yields defined (if meaningless) values; unsorted indices lose
/// outliers but never touch memory outside `out`.
template <typename T>
sim::KernelCost lorenzo_reconstruct(std::span<const quant_t> quant,
                                    const sim::SparseVector<qdiff_t>& outliers,
                                    std::int32_t radius, const Extents& ext, double eb_abs,
                                    std::span<T> out, const ReconstructConfig& cfg = {});

/// cuSZ baseline coarse-grained reconstruction: quant-codes plus a dense
/// value-space outlier array (placeholder code 0), one virtual thread per
/// chunk, serial raster order with the divergent outlier branch.
template <typename T>
sim::KernelCost lorenzo_reconstruct_coarse(std::span<const quant_t> quant,
                                           std::span<const qdiff_t> outlier_value_dense,
                                           const Extents& ext, double eb_abs,
                                           const QuantConfig& qcfg, std::span<T> out);

// --- Container conveniences (spans are not deduced from vectors) ----------

template <typename T, typename A>
[[nodiscard]] LorenzoConstructResult lorenzo_construct(
    const std::vector<T, A>& data, const Extents& ext, double eb_abs,
    const QuantConfig& quant, OutlierScheme scheme = OutlierScheme::kResidual,
    ConstructVariant variant = ConstructVariant::kOptimized) {
  return lorenzo_construct(std::span<const T>(data.data(), data.size()), ext, eb_abs, quant,
                           scheme, variant);
}

template <typename T, typename Aq, typename Ao>
sim::KernelCost lorenzo_reconstruct(const std::vector<quant_t, Aq>& quant,
                                    const sim::SparseVector<qdiff_t>& outliers,
                                    std::int32_t radius, const Extents& ext, double eb_abs,
                                    std::vector<T, Ao>& out, const ReconstructConfig& cfg = {}) {
  return lorenzo_reconstruct(std::span<const quant_t>(quant.data(), quant.size()), outliers,
                             radius, ext, eb_abs, std::span<T>(out.data(), out.size()), cfg);
}

template <typename T, typename A>
sim::KernelCost lorenzo_reconstruct_coarse(std::span<const quant_t> quant,
                                           std::span<const qdiff_t> outlier_value_dense,
                                           const Extents& ext, double eb_abs,
                                           const QuantConfig& qcfg, std::vector<T, A>& out) {
  return lorenzo_reconstruct_coarse(quant, outlier_value_dense, ext, eb_abs, qcfg,
                                    std::span<T>(out.data(), out.size()));
}

}  // namespace szp
