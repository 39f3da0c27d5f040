// perfbench — the repository benchmark: seeded workloads driven through the
// library's public entry points (Compressor, StreamingCompressor,
// io::open_field_source, data::generate_field, sim::modeled_*), with every
// output checked.
//
//   szp_perfbench --workload {snapshots|paper_workflows|oocore} --seed N
//                 --seconds S --trace {0|1} [--smoke] [--out-dir DIR]
//
// Load is a closed loop with one client: one operation at a time.  The
// untraced run (--trace 0) prints the end-to-end metrics; the traced run
// (--trace 1) prints the per-layer metrics and writes a Chrome trace.  The
// last line of stdout is one JSON object; see README.md for every metric.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <unistd.h>

#include "core/compressor.hh"
#include "core/io/io.hh"
#include "core/streaming.hh"
#include "data/catalog.hh"
#include "data/io.hh"
#include "data/synthetic.hh"
#include "report.hh"
#include "sim/device.hh"
#include "sim/perf_model.hh"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using namespace perfbench;
namespace fs = std::filesystem;
using szp::CompressConfig;
using szp::Compressor;
using szp::Extents;
using szp::StreamingCompressor;
using szp::StreamingConfig;
using szp::Workflow;

constexpr double kMB = 1024.0 * 1024.0;
constexpr int kSetupReps = 3;  // setup_s is the median of this many set-ups
// Distinct snapshot inputs cycled by `snapshots`: more than the L3 holds, and
// enough that one run's ratio does not hinge on one seed's field.
constexpr std::uint64_t kSnapshots = 6;

// ---------------------------------------------------------------------------
// Options, seeds, threads

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // tiny inputs for the self-test
  fs::path out_dir = ".bench_build/out";
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FieldSpec::seed for input `index` of a run with workload seed `seed`
/// (never 0, which would make the generator derive it from the name).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t s = splitmix64(seed ^ splitmix64(index + 0x5eedull));
  return s == 0 ? 1 : s;
}

/// OpenMP team and streaming worker count: the host's cores, at most 4.
int bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(hw == 0 ? 1 : hw, 1, 4));
}

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

// ---------------------------------------------------------------------------
// Process memory

/// Reset the kernel's RSS high-water mark to the current RSS.  Done at the
/// start of every timed op; peak_rss_mb is the mean over ops of the mark read
/// right after the op's library calls, before its checks allocate.  A mean,
/// because one op's mark moves in whole parked slabs with scheduling.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::size_t l3_bytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return static_cast<std::size_t>(v);
#endif
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (f >> s && !s.empty()) {
    const std::size_t mult = s.back() == 'K' ? 1024 : s.back() == 'M' ? 1024 * 1024 : 1;
    return std::stoul(s) * mult;
  }
  return std::size_t{32} << 20;
}

// ---------------------------------------------------------------------------
// Correctness

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                    std::uint64_t h = 14695981039346656037ull) {
  for (const std::uint8_t b : bytes) h = (h ^ b) * 1099511628211ull;
  return h;
}

/// Error of a decoded block against its original, accumulated over blocks.
struct ErrorStats {
  double max_err = 0.0;
  double sse = 0.0;
  double vmin = INFINITY;
  double vmax = -INFINITY;
  std::size_t n = 0;

  void add(std::span<const float> orig, std::span<const float> dec) {
    double mx = 0.0, sse_ = 0.0, lo = INFINITY, hi = -INFINITY;
    const auto len = static_cast<std::int64_t>(orig.size());
#pragma omp parallel for reduction(max : mx, hi) reduction(+ : sse_) reduction(min : lo)
    for (std::int64_t i = 0; i < len; ++i) {
      const double x = orig[static_cast<std::size_t>(i)];
      const double e = std::abs(x - static_cast<double>(dec[static_cast<std::size_t>(i)]));
      mx = std::max(mx, e);
      sse_ += e * e;
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    max_err = std::max(max_err, mx);
    sse += sse_;
    vmin = std::min(vmin, lo);
    vmax = std::max(vmax, hi);
    n += orig.size();
  }

  [[nodiscard]] double psnr_db() const {
    const double mse = sse / static_cast<double>(std::max<std::size_t>(n, 1));
    return 20.0 * std::log10(vmax - vmin) - 10.0 * std::log10(mse);
  }
};

std::uint64_t hash_file(const fs::path& path) {
  const auto src = szp::io::open_field_source(path, szp::io::SourceMode::kRead);
  std::vector<std::uint8_t> buf(std::size_t{8} << 20);
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t off = 0; off < src->size_bytes(); off += buf.size()) {
    const std::size_t len = std::min(buf.size(), src->size_bytes() - off);
    src->read_at(off, {buf.data(), len});
    h = fnv1a({buf.data(), len}, h);
  }
  return h;
}

/// Compare two raw float32 files chunk by chunk, so neither is held whole.
ErrorStats compare_files(const fs::path& orig, const fs::path& dec) {
  const auto a = szp::io::open_field_source(orig, szp::io::SourceMode::kRead);
  const auto b = szp::io::open_field_source(dec, szp::io::SourceMode::kRead);
  if (a->size_bytes() != b->size_bytes()) {
    throw std::runtime_error("restored file size differs from the original");
  }
  const std::size_t chunk = std::size_t{2} << 20;  // floats
  std::vector<float> x(chunk), y(chunk);
  ErrorStats err;
  const std::size_t n = a->size_bytes() / sizeof(float);
  for (std::size_t i = 0; i < n; i += chunk) {
    const std::size_t len = std::min(chunk, n - i);
    a->read_at(i * sizeof(float), {reinterpret_cast<std::uint8_t*>(x.data()), len * sizeof(float)});
    b->read_at(i * sizeof(float), {reinterpret_cast<std::uint8_t*>(y.data()), len * sizeof(float)});
    err.add({x.data(), len}, {y.data(), len});
  }
  return err;
}

// ---------------------------------------------------------------------------
// Layers

/// Per-layer metric prefix of a pipeline stage.  The layers are the modules:
/// predictor (core/predictor), sim kernels, and everything else is a codec
/// stage (core/codec, huffman, rle, rans, lossless).
std::string stage_key(const std::string& stage) {
  const auto ends_with = [&](const char* s) {
    const std::size_t n = std::strlen(s);
    return stage.size() >= n && stage.compare(stage.size() - n, n, s) == 0;
  };
  if (ends_with("reconstruct")) return "predictor.reconstruct";
  if (ends_with("construct")) return "predictor.construct";
  if (stage == "gather_outlier" || stage == "histogram" || stage == "scatter_outlier") {
    return "sim." + stage;
  }
  return "codec." + stage;
}

/// Stages whose metrics are listed in BENCHMARK.json; every other stage is
/// printed in the summary table only.
const std::vector<std::string> kStageKeys = {
    "predictor.construct", "predictor.reconstruct", "sim.gather_outlier",
    "sim.histogram",       "sim.scatter_outlier",   "codec.huffman_book",
    "codec.huffman_encode", "codec.huffman_decode", "codec.rle_encode",
    "codec.rle_vle",       "codec.rle_vle_decode",  "codec.rans_encode",
    "codec.rans_decode"};

const char* workflow_key(Workflow w) {
  switch (w) {
    case Workflow::kHuffman: return "huffman";
    case Workflow::kRle: return "rle";
    case Workflow::kRleVle: return "rle_vle";
    case Workflow::kRans: return "rans";
    case Workflow::kLz77: return "lz77";
    case Workflow::kLzh: return "lzh";
    case Workflow::kLzr: return "lzr";
    case Workflow::kAuto: break;
  }
  return "auto";
}

/// Host time, contract bytes and modeled V100 time of one stage, over ops.
struct StageSamples {
  std::vector<double> host_s, gbps, bytes_per_elem, v100_s, contract_bps;
};

// ---------------------------------------------------------------------------
// The run: counters, samples and the metric tables

struct Bench {
  explicit Bench(Options o) : opt(std::move(o)), threads(bench_threads()) {
    set_threads(threads);
    if (opt.trace) tracer = std::make_unique<Tracer>();
  }

  Options opt;
  int threads;
  std::unique_ptr<Tracer> tracer;
  std::size_t attempted = 0, failed = 0;
  std::vector<double> setup_s;
  std::vector<double> compress_s, decompress_s, compress_gbps, decompress_gbps;
  std::vector<double> traced_op_s, untraced_op_s;  // tracing overhead
  std::vector<double> slab_read_ms;
  std::map<std::string, StageSamples> stages;
  std::map<std::string, double> one_thread_s;  // stage key -> 1-thread host s
  std::map<std::string, double> many_thread_s; // stage key -> N-thread host s
  double ratio = 0.0, psnr_db = 0.0, peak_rss = 0.0;
  Metrics layer;  // per-layer values filled by the workload

  void fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }

  [[nodiscard]] bool tracing(std::size_t cycle) const { return tracer && cycle % 2 == 0; }

  void add_pipeline(const szp::sim::PipelineReport& rep, std::size_t elems) {
    for (const auto& s : rep.stages) {
      StageSamples& a = stages[s.name];
      a.host_s.push_back(s.cpu_seconds);
      a.gbps.push_back(s.cpu_throughput_gbps());
      a.bytes_per_elem.push_back(static_cast<double>(s.cost.bytes()) /
                                 static_cast<double>(elems));
      a.v100_s.push_back(szp::sim::modeled_seconds(szp::sim::v100(), s.cost));
      const auto bytes = static_cast<double>(s.cost.bytes());
      a.contract_bps.push_back(s.cpu_seconds > 0 ? bytes / s.cpu_seconds : 0.0);
    }
  }

  /// Spans for one op: the op itself on track 1, its stages laid end to end
  /// on track 2 (the stages are serial), then the unattributed remainder.
  void trace_op(const char* name, Clock::time_point a, Clock::time_point b,
                const szp::sim::PipelineReport& rep, std::size_t bytes) {
    if (!tracer) return;
    tracer->add(name, "op", a, b, 1, {{"bytes", static_cast<double>(bytes)}});
    double ts = tracer->us(a);
    for (const auto& s : rep.stages) {
      const std::string key = stage_key(s.name);
      const double v100_ms = szp::sim::modeled_seconds(szp::sim::v100(), s.cost) * 1e3;
      tracer->add({s.name, key.substr(0, key.find('.')), ts, s.cpu_seconds * 1e6, 2,
                   {{"contract_bytes_computed", static_cast<double>(s.cost.bytes())},
                    {"v100_ms_modeled", v100_ms}}});
      ts += s.cpu_seconds * 1e6;
    }
    const double end = tracer->us(b);
    if (end > ts) tracer->add({"unattributed", "compressor", ts, end - ts, 2, {}});
  }
};

// ---------------------------------------------------------------------------
// Host roofline probe and I/O probe

/// Parallel memcpy bandwidth on arrays of `bytes` each, counting read plus
/// write bytes (the same convention as the kernels' contract bytes).
double memcpy_gbps(std::size_t bytes, int threads) {
  std::vector<std::uint8_t> src(bytes), dst(bytes);
  std::memset(src.data(), 1, bytes);
  std::memset(dst.data(), 2, bytes);
  const std::size_t chunk = std::size_t{1} << 20;
  const auto nchunks = static_cast<std::int64_t>((bytes + chunk - 1) / chunk);
  std::vector<double> gbps;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t c = 0; c < nchunks; ++c) {
      const std::size_t off = static_cast<std::size_t>(c) * chunk;
      std::memcpy(dst.data() + off, src.data() + off, std::min(chunk, bytes - off));
    }
    gbps.push_back(2.0 * static_cast<double>(bytes) / seconds_between(t0, Clock::now()) / 1e9);
  }
  if (dst[bytes / 2] != 1) throw std::runtime_error("memcpy probe produced wrong bytes");
  return median(gbps);
}

void roofline_probe(Bench& b) {
  const std::size_t l3 = l3_bytes();
  const std::size_t bytes = b.opt.smoke ? std::size_t{32} << 20 : 4 * l3;
  const auto t0 = Clock::now();
  const double gbps = memcpy_gbps(bytes, b.threads);
  if (b.tracer) b.tracer->add("memcpy_probe", "host", t0, Clock::now(), 4, {{"gbps", gbps}});
  b.layer.set("host.memcpy_gbps", gbps, "GB/s");
  b.layer.set("host.memcpy_mb", static_cast<double>(bytes) / kMB, "MB");
  b.layer.set("host.l3_mb", static_cast<double>(l3) / kMB, "MB");
}

// ---------------------------------------------------------------------------
// In-memory workloads: snapshots and paper_workflows

struct Input {
  std::string label;
  std::vector<float> data;
  Extents ext;
  CompressConfig cfg;
};

struct OpResult {
  double compress_s = 0.0, decompress_s = 0.0;
  double peak_rss_mb = 0.0;  // process high-water mark over the op
  szp::CompressStats stats;
  szp::sim::PipelineReport decode;
};

/// One timed round trip plus its checks (untimed).  Returns nullopt on a
/// failed op, which has already been counted.
std::optional<OpResult> round_trip(Bench& b, const Compressor& c, const Input& in,
                                   std::optional<std::uint64_t>& ref_hash, bool traced,
                                   ErrorStats* err_out) {
  try {
    reset_peak_rss();
    const auto t0 = Clock::now();
    const szp::Compressed comp = c.compress(in.data, in.ext, in.cfg);
    const auto t1 = Clock::now();
    const szp::Decompressed dec = Compressor::decompress(comp.bytes);
    const auto t2 = Clock::now();

    OpResult r{seconds_between(t0, t1), seconds_between(t1, t2), peak_rss_mb(), comp.stats,
               dec.pipeline};
    if (traced) {
      b.trace_op("compress", t0, t1, comp.stats.pipeline, comp.stats.original_bytes);
      b.trace_op("decompress", t1, t2, dec.pipeline, comp.stats.original_bytes);
    }

    const auto tc = Clock::now();
    const std::uint64_t h = fnv1a(comp.bytes);
    if (ref_hash && *ref_hash != h) {
      b.fail(in.label + ": repeated compression is not byte-identical");
      return std::nullopt;
    }
    ref_hash = h;
    if (dec.dtype != szp::DType::kFloat32 || dec.data.size() != in.data.size()) {
      b.fail(in.label + ": decoded shape differs");
      return std::nullopt;
    }
    ErrorStats err;
    err.add(in.data, dec.data);
    if (!(err.max_err <= comp.stats.eb_abs)) {
      b.fail(in.label + ": max|x - x'| = " + std::to_string(err.max_err) + " exceeds eb_abs " +
             std::to_string(comp.stats.eb_abs));
      return std::nullopt;
    }
    if (err_out) *err_out = err;
    if (traced) b.tracer->add("verify", "bench", tc, Clock::now(), 1);
    return r;
  } catch (const std::exception& e) {
    b.fail(in.label + ": " + e.what());
    return std::nullopt;
  }
}

double stage_sum(const szp::sim::PipelineReport& rep) {
  double s = 0.0;
  for (const auto& st : rep.stages) s += st.cpu_seconds;
  return s;
}

void run_in_memory(Bench& b, std::vector<Input>& inputs, const std::vector<std::size_t>& warm) {
  std::vector<std::optional<std::uint64_t>> ref(inputs.size());

  // Set-up: construct the library object and run one untimed op of each
  // kind.  Repeated so setup_s is a median; the last instance is kept.
  std::optional<Compressor> comp;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    comp.emplace(inputs[warm.front()].cfg);
    std::vector<szp::Compressed> outs;
    for (const std::size_t k : warm) {
      outs.push_back(comp->compress(inputs[k].data, inputs[k].ext, inputs[k].cfg));
      (void)Compressor::decompress(outs.back().bytes);
    }
    b.setup_s.push_back(seconds_between(t0, Clock::now()));
    for (std::size_t i = 0; i < warm.size(); ++i) {
      const std::uint64_t h = fnv1a(outs[i].bytes);
      if (ref[warm[i]] && *ref[warm[i]] != h) b.fail("set-up compression is not byte-identical");
      ref[warm[i]] = h;
    }
  }
  const Compressor& c = *comp;
  const auto ws_setup = c.workspace_stats();

  std::size_t in_bytes = 0, out_bytes = 0, outliers = 0;
  std::vector<double> psnr, est_err, unattr_c, unattr_d, attributed, op_rss;
  std::map<std::string, double> picks;
  const auto t_loop = Clock::now();
  for (std::size_t cycle = 0;; ++cycle) {
    const bool first = cycle == 0;
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      ++b.attempted;
      ErrorStats err;
      const auto r = round_trip(b, c, inputs[k], ref[k], b.tracing(cycle), &err);
      if (!r) continue;
      const double bytes = static_cast<double>(r->stats.original_bytes);
      b.compress_s.push_back(r->compress_s);
      b.decompress_s.push_back(r->decompress_s);
      op_rss.push_back(r->peak_rss_mb);
      b.compress_gbps.push_back(bytes / r->compress_s / 1e9);
      b.decompress_gbps.push_back(bytes / r->decompress_s / 1e9);
      auto& overhead = b.tracing(cycle) ? b.traced_op_s : b.untraced_op_s;
      overhead.push_back(r->compress_s + r->decompress_s);
      b.add_pipeline(r->stats.pipeline, inputs[k].data.size());
      b.add_pipeline(r->decode, inputs[k].data.size());
      unattr_c.push_back(r->compress_s - stage_sum(r->stats.pipeline));
      unattr_d.push_back(r->decompress_s - stage_sum(r->decode));
      attributed.push_back((stage_sum(r->stats.pipeline) + stage_sum(r->decode)) /
                           (r->compress_s + r->decompress_s));
      if (first) {
        in_bytes += r->stats.original_bytes;
        out_bytes += r->stats.compressed_bytes;
        outliers += r->stats.outlier_count;
        psnr.push_back(err.psnr_db());
        picks[workflow_key(r->stats.workflow_used)] += 1;
        for (const auto& s : r->stats.decision.scores) {
          if (s.workflow == r->stats.workflow_used) {
            est_err.push_back(std::abs(s.est_ratio / r->stats.ratio - 1.0));
          }
        }
      }
    }
    const double wall = seconds_between(t_loop, Clock::now());
    if (wall >= b.opt.seconds || wall >= 120.0) break;
  }
  b.peak_rss = mean(op_rss);

  const auto ws_end = c.workspace_stats();
  b.ratio = out_bytes ? static_cast<double>(in_bytes) / static_cast<double>(out_bytes) : 0.0;
  b.psnr_db = mean(psnr);
  const double first_ops = std::max<double>(1.0, static_cast<double>(inputs.size()));
  b.layer.set("sim.outliers", static_cast<double>(outliers) / first_ops, "count");
  const auto elems = static_cast<double>(in_bytes / sizeof(float));
  b.layer.set("codec.bits_per_symbol",
              in_bytes ? 8.0 * static_cast<double>(out_bytes) / elems : 0.0, "bits");
  for (const char* w : {"huffman", "rle", "rle_vle", "rans", "lz77", "lzh", "lzr"}) {
    b.layer.set(std::string("analysis.picks.") + w, picks[w], "count");
  }
  b.layer.set("analysis.est_ratio_err", median(est_err), "frac");
  b.layer.set("compressor.unattributed_ms", median(unattr_c) * 1e3, "ms");
  b.layer.set("compressor.decompress_unattributed_ms", median(unattr_d) * 1e3, "ms");
  b.layer.set("compressor.attributed_frac", median(attributed), "frac");
  b.layer.set("workspace.created", static_cast<double>(ws_setup.created), "count");
  b.layer.set("workspace.grow_events", static_cast<double>(ws_setup.grow_events), "count");
  b.layer.set("workspace.timed_grow_events",
              static_cast<double>(ws_end.grow_events - ws_setup.grow_events), "count");

  if (!b.tracer) return;
  // Single-thread baseline: input `warm.front()` at 1 OpenMP thread, then
  // again at the full team, back to back; per-stage speedup = t1 / tN.
  const Input& in = inputs[warm.front()];
  for (const int n : {1, b.threads}) {
    set_threads(n);
    ++b.attempted;
    const auto t0 = Clock::now();
    const auto r = round_trip(b, c, in, ref[warm.front()], false, nullptr);
    b.tracer->add(n == 1 ? "baseline_1t" : "baseline_nt", "bench", t0, Clock::now(), 3,
                  {{"threads", n}});
    if (!r) continue;
    auto& dst = n == 1 ? b.one_thread_s : b.many_thread_s;
    for (const auto* rep : {&r->stats.pipeline, &r->decode}) {
      for (const auto& s : rep->stages) dst[stage_key(s.name)] += s.cpu_seconds;
    }
  }
  set_threads(b.threads);
}

std::vector<Input> snapshot_inputs(const Options& opt) {
  // Nyx-like time steps: one field spec, a distinct seed per snapshot.
  const auto ds = szp::data::make_dataset("Nyx", opt.smoke ? 0.1 : 0.63);
  std::vector<Input> inputs;
  for (std::uint64_t k = 0; k < kSnapshots; ++k) {
    szp::data::FieldSpec spec = szp::data::find_field(ds, "baryon_density").spec;
    spec.seed = derive_seed(opt.seed, k);
    inputs.push_back({"snapshot" + std::to_string(k), szp::data::generate_field(spec),
                      spec.extents, CompressConfig{}});
  }
  return inputs;
}

std::vector<Input> paper_inputs(const Options& opt, std::vector<std::size_t>& warm) {
  // CESM-ATM at rel-eb 1e-2, codec pinned by the paper's Table IV outcome.
  const auto ds = szp::data::make_dataset("CESM-ATM", opt.smoke ? 0.1 : 1.0);
  std::vector<Input> inputs;
  std::optional<std::size_t> first_huff, first_rle;
  for (std::size_t i = 0; i < ds.fields.size(); ++i) {
    const auto& f = ds.fields[i];
    szp::data::FieldSpec spec = f.spec;
    spec.seed = derive_seed(opt.seed, i);
    CompressConfig cfg;
    cfg.eb = szp::ErrorBound::relative(1e-2);
    const bool rle = f.paper_rle_cr > f.paper_vle_cr;
    cfg.workflow = rle ? Workflow::kRleVle : Workflow::kHuffman;
    (rle ? first_rle : first_huff).emplace(i);
    inputs.push_back({spec.name, szp::data::generate_field(spec), spec.extents, cfg});
  }
  if (!first_huff || !first_rle) throw std::runtime_error("CESM-ATM catalog lacks a codec kind");
  warm = {*first_huff, *first_rle};
  return inputs;
}

// ---------------------------------------------------------------------------
// oocore: file-to-file streaming under a memory budget, plus slab reads

/// Removes the run's scratch files however the run ends.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(fs::path p) : path(std::move(p)) { fs::create_directories(path); }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// A container's bytes for index(): the mmap view, or a copy when the
/// source cannot expose one.
struct ContainerView {
  std::unique_ptr<szp::io::FieldSource> src;
  std::vector<std::uint8_t> copy;
  std::span<const std::uint8_t> bytes;

  explicit ContainerView(const fs::path& p) : src(szp::io::open_field_source(p)) {
    bytes = src->view();
    if (bytes.empty()) {
      copy.resize(src->size_bytes());
      src->read_at(0, copy);
      bytes = copy;
    }
  }
};

constexpr int kSlabReadsPerOp = 16;

/// Write a file's dirty pages back now, so their writeback does not run
/// during the timed phase.
void sync_file(const fs::path& p) {
  const int fd = ::open(p.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot sync " + p.string());
  }
  ::close(fd);
}

void run_oocore(Bench& b) {
  const auto ds = szp::data::make_dataset("Nyx", b.opt.smoke ? 0.125 : 1.0);
  szp::data::FieldSpec spec = szp::data::find_field(ds, "temperature").spec;
  spec.seed = derive_seed(b.opt.seed, 0);
  const Extents ext = spec.extents;
  const std::size_t raw_bytes = ext.count() * sizeof(float);

  ScratchDir dir(b.opt.out_dir / ("tmp-" + std::to_string(::getpid())));
  const fs::path raw = dir.path / "field.f32";
  const fs::path container = dir.path / "field.szpc";
  const fs::path restored = dir.path / "restored.f32";

  StreamingConfig cfg;
  cfg.workers = static_cast<std::size_t>(b.threads);
  cfg.use_mmap = false;
  cfg.memory_budget = raw_bytes / 4;

  // Input generation and the one-off in-memory identity reference (both
  // outside set-up and timing); the field is released before set-up.
  std::uint64_t mem_hash = 0;
  {
    const std::vector<float> field = szp::data::generate_field(spec);
    szp::data::write_f32(raw, field);
    sync_file(raw);
    const auto mem = StreamingCompressor(cfg).compress(field, ext);
    mem_hash = fnv1a(mem.bytes);
  }

  // Outputs are unlinked after each op, outside timing, so the next op never
  // truncates a file whose dirty pages are still being written back.
  const auto drop_outputs = [&] {
    fs::remove(container);
    fs::remove(restored);
  };

  std::optional<StreamingCompressor> sc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    sc.emplace(cfg);
    (void)sc->compress_file(raw, container, ext, szp::DType::kFloat32);
    (void)StreamingCompressor::decompress_file(container, restored, cfg);
    {
      const ContainerView view(container);
      const auto index = StreamingCompressor::index(view.bytes);
      (void)StreamingCompressor::decompress_slab(index, 0);
    }
    b.setup_s.push_back(seconds_between(t0, Clock::now()));
    if (hash_file(container) != mem_hash) {
      b.fail("oocore: file container differs from the in-memory StreamingCompressor::compress");
    }
    drop_outputs();
  }
  const std::uint64_t ref_hash = mem_hash;

  std::vector<double> range_s, read_s, comp_phase_s, pack_s, write_s, util, resident, index_ms,
      slab_decode_ms, traced_s, untraced_s, op_rss;
  double workers_used = 0;
  const auto t_loop = Clock::now();
  for (std::size_t op = 0;; ++op) {
    ++b.attempted;
    const bool traced = b.tracing(op);
    try {
      reset_peak_rss();
      const auto t0 = Clock::now();
      const szp::StreamingStats st = sc->compress_file(raw, container, ext, szp::DType::kFloat32);
      const auto t1 = Clock::now();
      const szp::StreamingFileInfo dinfo =
          StreamingCompressor::decompress_file(container, restored, cfg);
      const auto t2 = Clock::now();

      const double tc = seconds_between(t0, t1), td = seconds_between(t1, t2);
      if (traced) {
        const double bytes = static_cast<double>(raw_bytes);
        b.tracer->add("compress_file", "op", t0, t1, 1, {{"bytes", bytes}});
        const auto& ph = st.phases;
        const std::pair<const char*, double> phases[] = {
            {"range", ph.range_seconds}, {"read", ph.read_seconds},
            {"compress", ph.compress_seconds}, {"pack", ph.pack_seconds},
            {"write", ph.write_seconds}};
        int tid = 10;
        for (const auto& [name, s] : phases) {
          // Summed over workers, so each phase gets its own track.
          b.tracer->add({std::string("streaming.") + name, "streaming", b.tracer->us(t0), s * 1e6,
                         tid++, {{"summed_over_workers", 1}}});
        }
        b.tracer->add("decompress_file", "op", t1, t2, 1, {{"bytes", bytes}});
        b.tracer->add({"streaming.decode", "streaming", b.tracer->us(t1),
                       dinfo.stats.phases.compress_seconds * 1e6, 15,
                       {{"summed_over_workers", 1}}});
      }

      bool ok = true;
      // Seeded random slab reads against one index of this container.
      const auto ti = Clock::now();
      const ContainerView view(container);
      const auto index = StreamingCompressor::index(view.bytes);
      const auto ti1 = Clock::now();
      index_ms.push_back(seconds_between(ti, ti1) * 1e3);
      if (traced) b.tracer->add("index", "streaming", ti, ti1, 1);
      const auto rsrc = szp::io::open_field_source(restored, szp::io::SourceMode::kRead);
      std::vector<std::uint8_t> expect;
      std::uint64_t rng = derive_seed(b.opt.seed, 1000 + op);
      for (int r = 0; r < kSlabReadsPerOp && !index.slabs.empty(); ++r) {
        rng = splitmix64(rng);
        const std::size_t s = rng % index.slabs.size();
        szp::SlabInfo info;
        const auto t3 = Clock::now();
        const auto slab = StreamingCompressor::decompress_slab(index, s, &info);
        const auto t4 = Clock::now();
        b.slab_read_ms.push_back(seconds_between(t3, t4) * 1e3);
        if (traced) b.tracer->add("decompress_slab", "streaming", t3, t4, 1, {{"slab", double(s)}});
        expect.resize(slab.data.size() * sizeof(float));
        rsrc->read_at(info.offset * sizeof(float), expect);
        if (std::memcmp(expect.data(), slab.data.data(), expect.size()) != 0) {
          b.fail("oocore: slab " + std::to_string(s) + " differs from decompress_file output");
          ok = false;
        }
      }
      op_rss.push_back(peak_rss_mb());

      const auto tv = Clock::now();
      if (hash_file(container) != ref_hash) {
        b.fail("oocore: repeated compress_file is not byte-identical");
        ok = false;
      }
      const ErrorStats err = compare_files(raw, restored);
      if (!(err.max_err <= st.eb_abs)) {
        b.fail("oocore: max|x - x'| = " + std::to_string(err.max_err) + " exceeds eb_abs");
        ok = false;
      }
      if (traced) b.tracer->add("verify", "bench", tv, Clock::now(), 1);

      if (ok) {
        b.compress_s.push_back(tc);
        b.decompress_s.push_back(td);
        b.compress_gbps.push_back(static_cast<double>(raw_bytes) / tc / 1e9);
        b.decompress_gbps.push_back(static_cast<double>(raw_bytes) / td / 1e9);
        (traced ? traced_s : untraced_s).push_back(tc + td);
        if (op == 0) {
          b.ratio = st.ratio;
          b.psnr_db = err.psnr_db();
        }
        const auto& ph = st.phases;
        range_s.push_back(ph.range_seconds);
        read_s.push_back(ph.read_seconds);
        comp_phase_s.push_back(ph.compress_seconds);
        pack_s.push_back(ph.pack_seconds);
        write_s.push_back(ph.write_seconds);
        workers_used = static_cast<double>(st.workers_used);
        util.push_back(ph.compress_seconds / (tc * static_cast<double>(st.workers_used)));
        resident.push_back(static_cast<double>(st.peak_resident_bytes) / kMB);
        if (!dinfo.stats.slabs.empty()) {
          slab_decode_ms.push_back(dinfo.stats.phases.compress_seconds * 1e3 /
                                   static_cast<double>(dinfo.stats.slabs.size()));
        }
      }
    } catch (const std::exception& e) {
      b.fail(std::string("oocore: ") + e.what());
    }
    drop_outputs();
    const double wall = seconds_between(t_loop, Clock::now());
    if (wall >= b.opt.seconds || wall >= 120.0) break;
  }
  b.peak_rss = mean(op_rss);
  b.traced_op_s = traced_s;
  b.untraced_op_s = untraced_s;

  b.layer.set("streaming.range_s", median(range_s), "s");
  b.layer.set("streaming.read_s", median(read_s), "s");
  b.layer.set("streaming.compress_s", median(comp_phase_s), "s");
  b.layer.set("streaming.pack_s", median(pack_s), "s");
  b.layer.set("streaming.write_s", median(write_s), "s");
  b.layer.set("streaming.worker_util", median(util), "frac");
  b.layer.set("streaming.peak_resident_mb", median(resident), "MB");
  b.layer.set("streaming.budget_mb", static_cast<double>(cfg.memory_budget) / kMB, "MB");
  b.layer.set("streaming.workers", workers_used, "count");
  b.layer.set("streaming.index_ms", median(index_ms), "ms");
  b.layer.set("streaming.slab_decode_ms", median(slab_decode_ms), "ms");

  if (!b.tracer) return;
  // I/O probe: a sequential positional read of the raw file, and a
  // sequential write of the same volume through the file sink.
  {
    const auto src = szp::io::open_field_source(raw, szp::io::SourceMode::kRead);
    std::vector<std::uint8_t> buf(std::size_t{8} << 20);
    const auto t0 = Clock::now();
    for (std::size_t off = 0; off < raw_bytes; off += buf.size()) {
      src->read_at(off, {buf.data(), std::min(buf.size(), raw_bytes - off)});
    }
    const auto t1 = Clock::now();
    b.tracer->add("io.read", "io", t0, t1, 1);
    b.layer.set("io.read_gbps", static_cast<double>(raw_bytes) / seconds_between(t0, t1) / 1e9,
                "GB/s");
    const auto t2 = Clock::now();
    {
      szp::io::FileSink sink(dir.path / "write_probe.bin");
      for (std::size_t off = 0; off < raw_bytes; off += buf.size()) {
        sink.write({buf.data(), std::min(buf.size(), raw_bytes - off)});
      }
      sink.finish();
    }
    const auto t3 = Clock::now();
    b.tracer->add("io.write", "io", t2, t3, 1);
    b.layer.set("io.write_gbps", static_cast<double>(raw_bytes) / seconds_between(t2, t3) / 1e9,
                "GB/s");
    fs::remove(dir.path / "write_probe.bin");
  }
  // Single-thread baseline: 1 OpenMP thread and one streaming worker.
  {
    StreamingConfig one = cfg;
    one.workers = 1;
    set_threads(1);
    ++b.attempted;
    try {
      const auto t0 = Clock::now();
      (void)sc->compress_file(raw, container, ext, szp::DType::kFloat32, one);
      const auto t1 = Clock::now();
      (void)StreamingCompressor::decompress_file(container, restored, one);
      const auto t2 = Clock::now();
      b.tracer->add("baseline_1t", "bench", t0, t2, 3, {{"threads", 1}});
      b.layer.set("streaming.compress_speedup_1t",
                  seconds_between(t0, t1) / median(b.compress_s), "x");
      b.layer.set("streaming.decompress_speedup_1t",
                  seconds_between(t1, t2) / median(b.decompress_s), "x");
    } catch (const std::exception& e) {
      b.fail(std::string("oocore 1-thread baseline: ") + e.what());
    }
    set_threads(b.threads);
  }
}

// ---------------------------------------------------------------------------
// Output

/// The per-layer metrics BENCHMARK.json lists, with units, in its order.  A
/// metric of a layer the workload does not run reads 0.  Descriptive values
/// (sizes, percentiles, sample counts) are printed in the summary only.
std::vector<std::pair<std::string, std::string>> per_layer_names() {
  std::vector<std::pair<std::string, std::string>> v;
  for (const std::string& k : kStageKeys) {
    if (k.rfind("predictor.", 0) == 0) v.push_back({k + "_gbps", "GB/s"});
    v.push_back({k + "_ms", "ms"});
    v.push_back({k + "_roofline_frac", "frac"});
    v.push_back({k + "_bytes_per_elem", "B/elem"});
    v.push_back({k + "_v100_ms", "ms"});
    v.push_back({k + "_speedup_1t", "x"});
  }
  const std::pair<const char*, const char*> rest[] = {
      {"sim.outliers", "count"},
      {"codec.bits_per_symbol", "bits"},
      {"analysis.picks.huffman", "count"},
      {"analysis.picks.rle", "count"},
      {"analysis.picks.rle_vle", "count"},
      {"analysis.picks.rans", "count"},
      {"analysis.picks.lz77", "count"},
      {"analysis.picks.lzh", "count"},
      {"analysis.picks.lzr", "count"},
      {"analysis.est_ratio_err", "frac"},
      {"compressor.unattributed_ms", "ms"},
      {"compressor.decompress_unattributed_ms", "ms"},
      {"compressor.attributed_frac", "frac"},
      {"workspace.created", "count"},
      {"workspace.grow_events", "count"},
      {"workspace.timed_grow_events", "count"},
      {"streaming.range_s", "s"},
      {"streaming.read_s", "s"},
      {"streaming.compress_s", "s"},
      {"streaming.pack_s", "s"},
      {"streaming.write_s", "s"},
      {"streaming.worker_util", "frac"},
      {"streaming.peak_resident_mb", "MB"},
      {"streaming.workers", "count"},
      {"streaming.index_ms", "ms"},
      {"streaming.slab_decode_ms", "ms"},
      {"streaming.slab_read_ms_p50", "ms"},
      {"streaming.slab_read_ms_tail", "ms"},
      {"streaming.compress_speedup_1t", "x"},
      {"streaming.decompress_speedup_1t", "x"},
      {"io.read_gbps", "GB/s"},
      {"io.write_gbps", "GB/s"},
      {"host.memcpy_gbps", "GB/s"},
      {"bench.compress_ms_p50", "ms"},
      {"bench.compress_ms_tail", "ms"},
      {"bench.decompress_ms_p50", "ms"},
      {"bench.decompress_ms_tail", "ms"},
      {"bench.fail_frac", "frac"},
      {"bench.trace_overhead_frac", "frac"},
  };
  for (const auto& [name, unit] : rest) v.push_back({name, unit});
  return v;
}

/// Achieved contract bytes per second over the memcpy probe's bandwidth.
double roofline_frac(const Bench& b, const StageSamples& s) {
  const Metric* mc = b.layer.find("host.memcpy_gbps");
  return mc && mc->value > 0 ? median(s.contract_bps) / (mc->value * 1e9) : 0.0;
}

void fill_stage_metrics(Bench& b) {
  for (const auto& [name, s] : b.stages) {
    const std::string k = stage_key(name);
    if (k.rfind("predictor.", 0) == 0) b.layer.set(k + "_gbps", median(s.gbps), "GB/s");
    b.layer.set(k + "_ms", median(s.host_s) * 1e3, "ms");
    b.layer.set(k + "_roofline_frac", roofline_frac(b, s), "frac");
    b.layer.set(k + "_bytes_per_elem", median(s.bytes_per_elem), "B/elem");
    b.layer.set(k + "_v100_ms", median(s.v100_s) * 1e3, "ms");
  }
  for (const auto& [k, t1] : b.one_thread_s) {
    const auto it = b.many_thread_s.find(k);
    if (it != b.many_thread_s.end() && it->second > 0) {
      b.layer.set(k + "_speedup_1t", t1 / it->second, "x");
    }
  }
}

void print_result(const Bench& b, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              b.failed == 0 ? "true" : "false", b.attempted, b.failed);
  for (std::size_t i = 0; i < m.rows().size(); ++i) {
    const Metric& r = m.rows()[i];
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "", r.name.c_str(),
                json_number(r.value).c_str(), r.unit.c_str());
  }
  std::printf("}}\n");
}

void print_row(const std::string& name, double value, const std::string& unit,
               const std::string& note = "") {
  std::printf("  %-40s %16.6g %-7s %s\n", name.c_str(), value, unit.c_str(), note.c_str());
}

std::string tail_note(double pct, std::size_t samples) {
  return pct < 100 ? "p" + std::to_string(static_cast<int>(pct)) + " of " + std::to_string(samples)
                   : "max of " + std::to_string(samples) + " (fewer than 20 samples)";
}

int run(const Options& opt) {
  Bench b(opt);
  std::printf("# perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d omp_threads=%d "
              "workers=%d closed-loop clients=1%s\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0, omp_threads(),
              b.threads, opt.smoke ? " smoke" : "");

  if (opt.workload == "snapshots") {
    auto inputs = snapshot_inputs(opt);
    run_in_memory(b, inputs, {0});
  } else if (opt.workload == "paper_workflows") {
    std::vector<std::size_t> warm;
    auto inputs = paper_inputs(opt, warm);
    run_in_memory(b, inputs, warm);
  } else if (opt.workload == "oocore") {
    run_oocore(b);
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  if (b.compress_s.empty()) throw std::runtime_error("no operation completed");

  const double fail_frac = static_cast<double>(b.failed) / static_cast<double>(b.attempted);
  const Tail ct = tail_of(b.compress_s), dt = tail_of(b.decompress_s);

  Metrics e2e;
  e2e.set("compress_gbps", median(b.compress_gbps), "GB/s");
  e2e.set("decompress_gbps", median(b.decompress_gbps), "GB/s");
  e2e.set("ratio", b.ratio, "x");
  e2e.set("psnr_db", b.psnr_db, "dB");
  e2e.set("setup_s", median(b.setup_s), "s");
  e2e.set("peak_rss_mb", b.peak_rss, "MB");

  b.layer.set("bench.compress_ms_p50", median(b.compress_s) * 1e3, "ms");
  b.layer.set("bench.compress_ms_tail", ct.value * 1e3, "ms");
  b.layer.set("bench.compress_tail_pct", ct.pct, "%");
  b.layer.set("bench.compress_samples", static_cast<double>(ct.samples), "count");
  b.layer.set("bench.decompress_ms_p50", median(b.decompress_s) * 1e3, "ms");
  b.layer.set("bench.decompress_ms_tail", dt.value * 1e3, "ms");
  b.layer.set("bench.decompress_tail_pct", dt.pct, "%");
  b.layer.set("bench.decompress_samples", static_cast<double>(dt.samples), "count");
  b.layer.set("bench.fail_frac", fail_frac, "frac");
  b.layer.set("host.omp_threads", omp_threads(), "count");

  std::printf("# end-to-end (untraced loop%s)\n",
              opt.trace ? " interleaved with traced cycles" : "");
  for (const Metric& m : e2e.rows()) print_row(m.name, m.value, m.unit);
  print_row("compress_ms_tail", ct.value * 1e3, "ms", tail_note(ct.pct, ct.samples));
  print_row("decompress_ms_tail", dt.value * 1e3, "ms", tail_note(dt.pct, dt.samples));
  print_row("fail_frac", fail_frac, "frac",
            std::to_string(b.failed) + " of " + std::to_string(b.attempted));
  if (!b.slab_read_ms.empty()) {
    const Tail st = tail_of(b.slab_read_ms);
    b.layer.set("streaming.slab_read_ms_p50", median(b.slab_read_ms), "ms");
    b.layer.set("streaming.slab_read_ms_tail", st.value, "ms");
    b.layer.set("streaming.slab_read_tail_pct", st.pct, "%");
    b.layer.set("streaming.slab_read_samples", static_cast<double>(st.samples), "count");
    print_row("slab_read_ms_p50", median(b.slab_read_ms), "ms");
    print_row("slab_read_ms_tail", st.value, "ms", tail_note(st.pct, st.samples));
  }

  if (!opt.trace) {
    print_result(b, e2e);
    return 0;
  }

  roofline_probe(b);
  fill_stage_metrics(b);
  b.layer.set("bench.trace_overhead_frac",
              b.untraced_op_s.empty() || b.traced_op_s.empty()
                  ? 0.0
                  : median(b.traced_op_s) / median(b.untraced_op_s) - 1.0,
              "frac");
  b.layer.set("bench.spans", static_cast<double>(b.tracer->size()), "count");
  fs::create_directories(opt.out_dir);
  const fs::path trace_path =
      opt.out_dir / ("trace_" + opt.workload + "_seed" + std::to_string(opt.seed) + ".json");
  b.tracer->write(trace_path);

  // Every stage, including those BENCHMARK.json does not list.
  std::printf("# stages (host ms measured; contract bytes and V100 ms computed, not measured)\n");
  std::printf("  %-28s %10s %10s %12s %12s %10s\n", "stage", "host_ms", "host_GB/s", "B/elem",
              "v100_ms", "roofline");
  for (const auto& [name, s] : b.stages) {
    std::printf("  %-28s %10.3f %10.3f %12.3f %12.4f %10.4f\n", name.c_str(),
                median(s.host_s) * 1e3, median(s.gbps), median(s.bytes_per_elem),
                median(s.v100_s) * 1e3, roofline_frac(b, s));
  }
  std::printf("# per-layer; trace written to %s\n", trace_path.string().c_str());
  for (const Metric& m : b.layer.rows()) print_row(m.name, m.value, m.unit);
  Metrics out;
  for (const auto& [name, unit] : per_layer_names()) {
    const Metric* m = b.layer.find(name);
    out.set(name, m ? m->value : 0.0, unit);
  }
  print_result(b, out);
  return 0;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--out-dir") o.out_dir = value();
    else if (a == "--smoke") o.smoke = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // One malloc arena, so peak RSS follows live memory rather than which
  // per-thread arena each pipeline worker happened to draw.
  mallopt(M_ARENA_MAX, 1);
#endif
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
