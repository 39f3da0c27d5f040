#include "core/compressor.hh"

#include <cmath>
#include <stdexcept>

#include "core/archive.hh"
#include "core/error.hh"
#include "core/metrics.hh"
#include "core/pipeline/registry.hh"
#include "core/serialize.hh"
#include "sim/histogram.hh"
#include "sim/timer.hh"

namespace szp {

namespace {

/// Residual exactness precondition (DESIGN.md §7): prequantized magnitudes
/// must stay well inside qdiff_t so the 7-term 3-D Lorenzo combination
/// cannot overflow.
void validate_exactness(const ValueRange& range, double eb_abs) {
  const double max_abs = std::max(std::abs(range.min), std::abs(range.max));
  if (max_abs / (2.0 * eb_abs) >= static_cast<double>(1u << 27)) {
    throw std::invalid_argument(
        "Compressor: error bound too tight relative to the value magnitude "
        "(max|d|/2eb must be < 2^27 for exact integer reconstruction)");
  }
}

template <typename T>
Compressed compress_impl(const CompressConfig& cfg_, std::span<const T> data,
                         const Extents& ext, Workspace& ws) {
  if (data.empty() || data.size() != ext.count()) {
    throw std::invalid_argument("Compressor::compress: data must be non-empty and match extents");
  }
  if (ext.rank < 1 || ext.rank > 3) {
    throw std::invalid_argument("Compressor::compress: rank must be 1, 2, or 3");
  }
  cfg_.quant.validate();

  Compressed out;
  CompressStats& st = out.stats;
  st.original_bytes = data.size_bytes();

  const ValueRange range = ValueRange::of(data);
  if (!range.finite) {
    throw std::invalid_argument("Compressor::compress: data contains non-finite values");
  }
  // The kernels run with a slightly tightened bound so the user-visible
  // guarantee |d - d'| < eb holds *strictly* even when prequantization
  // rounds a midpoint (error exactly eb) and the output value rounds to T.
  const double ulp = std::is_same_v<T, float> ? 0x1p-22 : 0x1p-51;
  const double eb_user = cfg_.eb.resolve(range.span());
  const double margin = std::max(eb_user * 1e-6, range.max_abs() * ulp);
  if (margin >= 0.5 * eb_user) {
    throw std::invalid_argument(
        "Compressor::compress: error bound is at the limit of the element type's "
        "precision for this value magnitude");
  }
  st.eb_abs = eb_user;
  const double eb_kernel = eb_user - margin;
  validate_exactness(range, eb_kernel);

  const auto& registry = pipeline::StageRegistry::instance();

  // --- Prediction + quantization, outlier gather ----------------------------
  const pipeline::PredictStage& predictor = registry.predict(cfg_.predictor);
  const pipeline::PredictProduct prod =
      predictor.construct(data, ext, eb_kernel, cfg_, ws, st.pipeline);
  st.outlier_count = prod.outliers.nnz();

  // --- Histogram ---------------------------------------------------------
  sim::Timer t;
  sim::KernelCost hist_c;
  {
    sim::traffic::Scope hist_scope;  // contract-derived volumes
    sim::device_histogram_into(prod.quant, cfg_.quant.capacity, ws.freq, ws.hist_priv);
    hist_c = sim::histogram_cost(data.size(), sizeof(quant_t), cfg_.quant.capacity);
    hist_scope.apply(hist_c);
  }
  st.pipeline.add({"histogram", st.original_bytes, t.seconds(), hist_c});

  // --- Workflow selection -------------------------------------------------
  Workflow wf = cfg_.workflow;
  st.decision = select_workflow(ws.freq, sizeof(T), cfg_.selector);
  if (wf == Workflow::kAuto) wf = st.decision.workflow;
  st.workflow_used = wf;
  if (wf == Workflow::kAuto) {
    throw std::logic_error("Compressor::compress: unresolved kAuto workflow");
  }

  // --- Header + predictor aux payload -------------------------------------
  ByteWriter w;
  const std::uint16_t version = archive::write_header(
      w, {wf, std::is_same_v<T, float> ? DType::kFloat32 : DType::kFloat64, ext, eb_kernel,
          cfg_.quant.capacity, cfg_.predictor});
  predictor.write_aux(w, ws);

  // --- Outlier section ----------------------------------------------------
  w.put_vector(prod.outliers.indices);
  w.put_vector(prod.outliers.values);

  // --- Quant-code payload --------------------------------------------------
  const pipeline::EncodeContext ectx{cfg_, ws.freq, st.original_bytes, version};
  registry.codec(wf).encode(prod.quant, ectx, ws, w, st.pipeline);

  out.bytes = w.take();
  // Trailing integrity checksum over everything above.
  archive::append_crc32(out.bytes);
  st.compressed_bytes = out.bytes.size();
  st.ratio = compression_ratio(st.original_bytes, st.compressed_bytes);
  return out;
}

}  // namespace

Compressed Compressor::compress(std::span<const float> data, const Extents& ext) const {
  auto lease = pool_.acquire();
  return compress_impl(cfg_, data, ext, *lease);
}

Compressed Compressor::compress(std::span<const double> data, const Extents& ext) const {
  auto lease = pool_.acquire();
  return compress_impl(cfg_, data, ext, *lease);
}

Compressed Compressor::compress(std::span<const float> data, const Extents& ext,
                                const CompressConfig& cfg) const {
  auto lease = pool_.acquire();
  return compress_impl(cfg, data, ext, *lease);
}

Compressed Compressor::compress(std::span<const double> data, const Extents& ext,
                                const CompressConfig& cfg) const {
  auto lease = pool_.acquire();
  return compress_impl(cfg, data, ext, *lease);
}

Compressed Compressor::compress(std::span<const float> data, const Extents& ext,
                                const CompressConfig& cfg, Workspace& ws) const {
  return compress_impl(cfg, data, ext, ws);
}

Compressed Compressor::compress(std::span<const double> data, const Extents& ext,
                                const CompressConfig& cfg, Workspace& ws) const {
  return compress_impl(cfg, data, ext, ws);
}

Compressor::ArchiveInfo Compressor::inspect(std::span<const std::uint8_t> archive) {
  return decode_guard("szp archive", [&] {
    ByteReader r(archive::checked_body(archive));
    const archive::ArchiveHeader h = archive::read_header(r);
    ArchiveInfo info;
    info.workflow = h.workflow;
    info.dtype = h.dtype;
    info.extents = h.extents;
    info.eb_abs = h.eb_abs;
    info.capacity = h.capacity;
    info.predictor = h.predictor;
    return info;
  });
}

Decompressed Compressor::decompress(std::span<const std::uint8_t> archive,
                                    const ReconstructConfig& recon) {
  return decode_guard("szp archive", [&] {
    ByteReader r(archive::checked_body(archive));
    const archive::ArchiveHeader h = archive::read_header(r);
    const auto& registry = pipeline::StageRegistry::instance();
    const pipeline::PredictStage& predictor = registry.predict(h.predictor);

    pipeline::PredictorAux aux;
    predictor.read_aux(r, aux);

    const std::size_t n = h.extents.count();
    const std::size_t payload_bytes =
        n * (h.dtype == DType::kFloat32 ? sizeof(float) : sizeof(double));

    sim::SparseVector<qdiff_t> outliers;
    r.set_segment("outliers");
    outliers.indices = r.get_vector<std::uint64_t>();
    outliers.values = r.get_vector<qdiff_t>();
    if (outliers.indices.size() != outliers.values.size()) {
      throw DecodeError(DecodeErrorKind::kCorruptStream, "outliers",
                        "index/value stream size mismatch (" +
                            std::to_string(outliers.indices.size()) + " vs " +
                            std::to_string(outliers.values.size()) + ")");
    }
    // Every outlier index addresses one output element, and the Lorenzo
    // reconstruct finds each row's outliers by a forward search: require
    // strictly increasing indices below the element count, the order
    // the compressor's outlier gather emits.
    for (std::size_t k = 0; k < outliers.indices.size(); ++k) {
      const auto idx = outliers.indices[k];
      if (idx >= n) {
        throw DecodeError(DecodeErrorKind::kCorruptStream, "outliers",
                          "outlier index " + std::to_string(idx) + " outside the " +
                              std::to_string(n) + "-element grid");
      }
      if (k > 0 && idx <= outliers.indices[k - 1]) {
        throw DecodeError(DecodeErrorKind::kCorruptStream, "outliers",
                          "outlier indices not strictly increasing at position " +
                              std::to_string(k) + " (" +
                              std::to_string(outliers.indices[k - 1]) + " then " +
                              std::to_string(idx) + ")");
      }
    }

    Decompressed out;
    out.extents = h.extents;
    out.dtype = h.dtype;

    // --- Decode quant-codes -------------------------------------------------
    r.set_segment("quant-codes");
    const pipeline::DecodeContext dctx{n, payload_bytes, h.version};
    // The codec fills exactly n symbols or throws, so the pooled scratch is
    // resized without a zero-fill; n was validated by read_header.  A
    // steady-state decode of same-size fields reuses its pages.
    auto lease = default_workspace_pool().acquire();
    auto& quant = lease->decode_quant;
    quant.resize(n);
    const std::span<quant_t> codes(quant.data(), n);
    try {
      registry.codec(h.workflow).decode(r, dctx, codes, out.pipeline);
    } catch (...) {
      // A corrupt stream can declare any n: do not park its buffer in the pool.
      sim::scratch_vector<quant_t>().swap(quant);
      throw;
    }

    // --- Predictor reconstruction (fuses the sparse outliers) ---------------
    const QuantConfig qcfg{h.capacity};
    predictor.reconstruct(codes, outliers, aux, h.extents, h.eb_abs, qcfg, recon,
                          payload_bytes, out);
    return out;
  });
}

}  // namespace szp
