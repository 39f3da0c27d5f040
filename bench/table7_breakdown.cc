// Reproduces Table VII: sub-procedure throughput breakdown of the default
// cuSZ+ compression workflow (Lorenzo + multi-byte VLE) at rel-eb 1e-4 on
// all seven datasets, modeled on V100 and A100 with the A100 advantage.
//
// Expected shape (paper Table VII): Lorenzo construct/reconstruct and
// scatter scale ~1.5-2.2x from V100 to A100 (memory bound; here the outlier
// scatter is fused into lorenzo_reconstruct, so it has no row); Huffman
// encode/decode and the small-field cases (CESM at 24.7 MB) scale poorly;
// overall compression improves ~1.1-2.0x, decompression ~0.8-1.5x.
#include "bench/bench_util.hh"

namespace {

using namespace szp;
using namespace szp::bench;

constexpr const char* kCompressStages[] = {"lorenzo_construct", "gather_outlier", "histogram",
                                           "huffman_encode"};
constexpr const char* kDecompressStages[] = {"huffman_decode", "lorenzo_reconstruct"};

}  // namespace

int main() {
  title("Table VII — cuSZ+ default-workflow breakdown at rel-eb 1e-4 (GB/s)",
        "roofline-modeled V100 and A100 throughput per sub-procedure; adv = A100/V100 "
        "(paper: construct 1.5-2.2x, Huffman ~1.1-3.0x, overall compress 1.15-2.0x)");

  const std::vector<std::pair<std::string, double>> plan{
      {"HACC", 0.45},   {"CESM-ATM", 0.5}, {"Hurricane", 0.4}, {"Nyx", 0.3},
      {"RTM", 0.4},     {"Miranda", 0.35}, {"QMCPACK", 0.22},
  };

  for (const auto& [dataset, scale] : plan) {
    const auto f = load_first_field(dataset, scale);

    CompressConfig cfg;
    cfg.eb = ErrorBound::relative(1e-4);
    cfg.workflow = Workflow::kHuffman;
    const auto c = Compressor(cfg).compress(f.values, f.extents());
    const auto d = Compressor::decompress(c.bytes);

    const auto paper_mb =
        static_cast<double>(paper_field_elems(dataset)) * sizeof(float) / 1e6;
    println("%-10s  field %-24s  %.1f MB here, %.1f MB modeled  (CR %.2fx)", dataset.c_str(),
            f.info.spec.name.c_str(), f.mb(), paper_mb, c.stats.ratio);
    println("  %-22s | %8s | %8s %8s %6s", "stage", "host", "V100*", "A100*", "adv");
    rule();
    // Modeled columns evaluate at the paper's full field size.
    const auto print_stage = [&](const sim::StageReport& s) {
      const auto scaled = at_paper_scale(s, f);
      const double v = modeled_gbps(sim::v100(), scaled);
      const double a = modeled_gbps(sim::a100(), scaled);
      println("  %-22s | %8.1f | %8.1f %8.1f %5.2fx", s.name.c_str(),
              s.cpu_throughput_gbps(), v, a, a / v);
    };
    for (const char* stage : kCompressStages) print_stage(*c.stats.pipeline.find(stage));
    {
      const double host =
          static_cast<double>(c.stats.original_bytes) / c.stats.pipeline.total_cpu_seconds() / 1e9;
      const auto scaled = pipeline_at_paper_scale(c.stats.pipeline, f);
      const auto payload = static_cast<std::uint64_t>(paper_mb * 1e6);
      const double v = modeled_pipeline_gbps(sim::v100(), scaled, payload);
      const double a = modeled_pipeline_gbps(sim::a100(), scaled, payload);
      println("  %-22s | %8.1f | %8.1f %8.1f %5.2fx", "overall, compress", host, v, a, a / v);
    }
    for (const char* stage : kDecompressStages) print_stage(*d.pipeline.find(stage));
    {
      const double host =
          static_cast<double>(f.bytes()) / d.pipeline.total_cpu_seconds() / 1e9;
      const auto scaled = pipeline_at_paper_scale(d.pipeline, f);
      const auto payload = static_cast<std::uint64_t>(paper_mb * 1e6);
      const double v = modeled_pipeline_gbps(sim::v100(), scaled, payload);
      const double a = modeled_pipeline_gbps(sim::a100(), scaled, payload);
      println("  %-22s | %8.1f | %8.1f %8.1f %5.2fx", "overall, decompress", host, v, a, a / v);
    }
    rule();
  }

  println("Note: the huffman_book stage (single-thread tree build) is folded into overall");
  println("compression time; it is the latency bottleneck the paper notes for small fields.");
  return 0;
}
