// szp — the built-in PredictStage implementations: Lorenzo (dual
// quantization + partial-sum reconstruction), block-wise linear regression,
// and multi-level interpolation.  Each stage transplants the corresponding
// branch of the former monolithic Compressor, byte-for-byte: the aux
// payloads (nothing / coefficients / level + anchors) and the PipelineReport
// stage names are pinned by the golden-archive tests.
#include "core/pipeline/builtin.hh"

#include <cstdint>
#include <vector>

#include "core/predictor/interpolation.hh"
#include "core/predictor/regression.hh"
#include "sim/timer.hh"

namespace szp::pipeline {

namespace {

/// Dense-outlier scatter shared by the regression and interpolation decode
/// paths (Lorenzo fuses the sparse outliers inside its reconstruct kernel).
std::vector<qdiff_t> scatter_dense(const sim::SparseVector<qdiff_t>& outliers, std::size_t n,
                                   std::size_t payload_bytes, sim::PipelineReport& report) {
  sim::Timer t;
  std::vector<qdiff_t> outlier_dense(n, 0);
  sim::KernelCost cost;
  {
    sim::traffic::Scope scope;  // contract-derived volumes
    sim::scatter_add(outliers, std::span<qdiff_t>(outlier_dense));
    cost = sim::scatter_cost(outliers.nnz(), sizeof(qdiff_t), sizeof(std::uint64_t));
    scope.apply(cost);
  }
  report.add({"scatter_outlier", payload_bytes, t.seconds(), cost});
  return outlier_dense;
}

/// Dense-to-sparse outlier gather of the regression and interpolation
/// construct kernels, which keep a dense outlier array (Lorenzo's construct
/// stages its outliers sparsely and gathers them with
/// lorenzo_gather_outliers).
void gather_dense(std::span<const qdiff_t> dense, Workspace& ws, std::size_t payload_bytes,
                  sim::PipelineReport& report) {
  sim::Timer t;
  sim::KernelCost cost;
  {
    sim::traffic::Scope scope;  // contract-derived volumes
    sim::dense_to_sparse_into(dense, ws.outliers, ws.gather_tile_nnz, ws.gather_offsets);
    cost = sim::gather_cost(dense.size(), sizeof(qdiff_t), ws.outliers.nnz(),
                            sizeof(std::uint64_t));
    scope.apply(cost);
  }
  report.add({"gather_outlier", payload_bytes, t.seconds(), cost});
}

class LorenzoStage final : public PredictStage {
 public:
  [[nodiscard]] PredictorKind kind() const override { return PredictorKind::kLorenzo; }

  [[nodiscard]] PredictProduct construct(std::span<const float> data, const Extents& ext,
                                         double eb_kernel, const CompressConfig& cfg,
                                         Workspace& ws,
                                         sim::PipelineReport& report) const override {
    return construct_impl(data, ext, eb_kernel, cfg, ws, report);
  }
  [[nodiscard]] PredictProduct construct(std::span<const double> data, const Extents& ext,
                                         double eb_kernel, const CompressConfig& cfg,
                                         Workspace& ws,
                                         sim::PipelineReport& report) const override {
    return construct_impl(data, ext, eb_kernel, cfg, ws, report);
  }

  void write_aux(ByteWriter&, const Workspace&) const override {}  // no sidecar
  void read_aux(ByteReader&, PredictorAux&) const override {}

  void reconstruct(std::span<const quant_t> quant, const sim::SparseVector<qdiff_t>& outliers,
                   const PredictorAux&, const Extents& ext, double eb_abs,
                   const QuantConfig& qcfg, const ReconstructConfig& recon,
                   std::size_t payload_bytes, Decompressed& out) const override {
    // Quant ⊕ outlier fuse, partial sums and the 2eb scale run in one
    // kernel that writes every output element once (DESIGN.md §2.5): the
    // output is not zero-filled, and its pages are first touched by the
    // kernel's parallel stores.
    const std::size_t n = ext.count();
    sim::Timer t;
    sim::KernelCost recon_cost;
    if (out.dtype == DType::kFloat32) {
      out.data.resize(n);
      recon_cost = lorenzo_reconstruct<float>(quant, outliers, qcfg.radius(), ext, eb_abs,
                                              out.data, recon);
    } else {
      out.data_f64.resize(n);
      recon_cost = lorenzo_reconstruct<double>(quant, outliers, qcfg.radius(), ext, eb_abs,
                                               out.data_f64, recon);
    }
    out.pipeline.add({"lorenzo_reconstruct", payload_bytes, t.seconds(), recon_cost});
  }

 private:
  template <typename T>
  PredictProduct construct_impl(std::span<const T> data, const Extents& ext, double eb_kernel,
                                const CompressConfig& cfg, Workspace& ws,
                                sim::PipelineReport& report) const {
    sim::Timer t;
    lorenzo_construct_into(data, ext, eb_kernel, cfg.quant, OutlierScheme::kResidual,
                           cfg.construct_variant, ws.lorenzo);
    report.add({"lorenzo_construct", data.size_bytes(), t.seconds(), ws.lorenzo.cost});
    t.reset();
    const sim::KernelCost gather =
        lorenzo_gather_outliers(ws.lorenzo.stash, ws.outliers, ws.gather_offsets);
    report.add({"gather_outlier", data.size_bytes(), t.seconds(), gather});
    return {std::span<const quant_t>(ws.lorenzo.quant.data(), ws.lorenzo.quant.size()),
            ws.outliers};
  }
};

class RegressionStage final : public PredictStage {
 public:
  [[nodiscard]] PredictorKind kind() const override { return PredictorKind::kRegression; }

  [[nodiscard]] PredictProduct construct(std::span<const float> data, const Extents& ext,
                                         double eb_kernel, const CompressConfig& cfg,
                                         Workspace& ws,
                                         sim::PipelineReport& report) const override {
    return construct_impl(data, ext, eb_kernel, cfg, ws, report);
  }
  [[nodiscard]] PredictProduct construct(std::span<const double> data, const Extents& ext,
                                         double eb_kernel, const CompressConfig& cfg,
                                         Workspace& ws,
                                         sim::PipelineReport& report) const override {
    return construct_impl(data, ext, eb_kernel, cfg, ws, report);
  }

  void write_aux(ByteWriter& w, const Workspace& ws) const override {
    w.put_vector(ws.regression.coefficients);
  }
  void read_aux(ByteReader& r, PredictorAux& aux) const override {
    r.set_segment("coefficients");
    aux.coefficients = r.get_vector<float>();
  }

  void reconstruct(std::span<const quant_t> quant, const sim::SparseVector<qdiff_t>& outliers,
                   const PredictorAux& aux, const Extents& ext, double eb_abs,
                   const QuantConfig& qcfg, const ReconstructConfig&,
                   std::size_t payload_bytes, Decompressed& out) const override {
    const std::size_t n = ext.count();
    const auto outlier_dense = scatter_dense(outliers, n, payload_bytes, out.pipeline);
    sim::Timer t;
    sim::KernelCost recon_cost;
    if (out.dtype == DType::kFloat32) {
      out.data.resize(n);
      recon_cost = regression_reconstruct<float>(quant, outlier_dense, aux.coefficients, ext,
                                                 eb_abs, qcfg, out.data);
    } else {
      out.data_f64.resize(n);
      recon_cost = regression_reconstruct<double>(quant, outlier_dense, aux.coefficients, ext,
                                                  eb_abs, qcfg, out.data_f64);
    }
    out.pipeline.add({"regression_reconstruct", payload_bytes, t.seconds(), recon_cost});
  }

 private:
  template <typename T>
  PredictProduct construct_impl(std::span<const T> data, const Extents& ext, double eb_kernel,
                                const CompressConfig& cfg, Workspace& ws,
                                sim::PipelineReport& report) const {
    sim::Timer t;
    regression_construct_into(data, ext, eb_kernel, cfg.quant, ws.regression);
    report.add({"regression_construct", data.size_bytes(), t.seconds(), ws.regression.cost});
    gather_dense(std::span<const qdiff_t>(ws.regression.outlier_dense.data(),
                                          ws.regression.outlier_dense.size()),
                 ws, data.size_bytes(), report);
    return {std::span<const quant_t>(ws.regression.quant.data(), ws.regression.quant.size()),
            ws.outliers};
  }
};

class InterpolationStage final : public PredictStage {
 public:
  [[nodiscard]] PredictorKind kind() const override { return PredictorKind::kInterpolation; }

  [[nodiscard]] PredictProduct construct(std::span<const float> data, const Extents& ext,
                                         double eb_kernel, const CompressConfig& cfg,
                                         Workspace& ws,
                                         sim::PipelineReport& report) const override {
    return construct_impl(data, ext, eb_kernel, cfg, ws, report);
  }
  [[nodiscard]] PredictProduct construct(std::span<const double> data, const Extents& ext,
                                         double eb_kernel, const CompressConfig& cfg,
                                         Workspace& ws,
                                         sim::PipelineReport& report) const override {
    return construct_impl(data, ext, eb_kernel, cfg, ws, report);
  }

  void write_aux(ByteWriter& w, const Workspace& ws) const override {
    w.put<std::uint8_t>(static_cast<std::uint8_t>(ws.interp.level));
    w.put_vector(ws.interp.anchors);
  }
  void read_aux(ByteReader& r, PredictorAux& aux) const override {
    r.set_segment("coefficients");
    aux.level = r.get<std::uint8_t>();
    aux.coefficients = r.get_vector<float>();
  }

  void reconstruct(std::span<const quant_t> quant, const sim::SparseVector<qdiff_t>& outliers,
                   const PredictorAux& aux, const Extents& ext, double eb_abs,
                   const QuantConfig& qcfg, const ReconstructConfig&,
                   std::size_t payload_bytes, Decompressed& out) const override {
    const std::size_t n = ext.count();
    const auto outlier_dense = scatter_dense(outliers, n, payload_bytes, out.pipeline);
    sim::Timer t;
    sim::KernelCost recon_cost;
    if (out.dtype == DType::kFloat32) {
      out.data.resize(n);
      recon_cost = interpolation_reconstruct<float>(quant, outlier_dense, aux.coefficients,
                                                    aux.level, true, ext, eb_abs, qcfg,
                                                    out.data);
    } else {
      out.data_f64.resize(n);
      recon_cost = interpolation_reconstruct<double>(quant, outlier_dense, aux.coefficients,
                                                     aux.level, true, ext, eb_abs, qcfg,
                                                     out.data_f64);
    }
    out.pipeline.add({"interpolation_reconstruct", payload_bytes, t.seconds(), recon_cost});
  }

 private:
  template <typename T>
  PredictProduct construct_impl(std::span<const T> data, const Extents& ext, double eb_kernel,
                                const CompressConfig& cfg, Workspace& ws,
                                sim::PipelineReport& report) const {
    sim::Timer t;
    interpolation_construct_into(data, ext, eb_kernel, cfg.quant, InterpolationConfig{},
                                 ws.interp);
    report.add({"interpolation_construct", data.size_bytes(), t.seconds(), ws.interp.cost});
    gather_dense(std::span<const qdiff_t>(ws.interp.outlier_dense.data(),
                                          ws.interp.outlier_dense.size()),
                 ws, data.size_bytes(), report);
    return {std::span<const quant_t>(ws.interp.quant.data(), ws.interp.quant.size()),
            ws.outliers};
  }
};

}  // namespace

std::unique_ptr<PredictStage> make_lorenzo_stage() { return std::make_unique<LorenzoStage>(); }
std::unique_ptr<PredictStage> make_regression_stage() {
  return std::make_unique<RegressionStage>();
}
std::unique_ptr<PredictStage> make_interpolation_stage() {
  return std::make_unique<InterpolationStage>();
}

}  // namespace szp::pipeline
