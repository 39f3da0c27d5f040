#include "core/streaming.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/error.hh"
#include "core/io/io.hh"
#include "core/metrics.hh"
#include "core/serialize.hh"
#include "sim/launch.hh"
#include "sim/timer.hh"

namespace szp {

namespace {

constexpr std::uint32_t kContainerMagic = 0x43505A53;  // "SZPC"
constexpr std::uint16_t kContainerVersion = 1;

/// Fixed container prefix: magic u32, version u16, rank u8, dtype u8,
/// nx/ny/nz/slab-count u64 — what read_header() consumes.
constexpr std::size_t kContainerHeaderBytes = 40;

/// Planning allowance per parked slab archive beyond its input bytes
/// (archive header, codebook, chunk metadata).  The budget model charges a
/// parked archive at slab_bytes + this; the residency meter reports what
/// actually happened.
constexpr std::size_t kSlabArchiveOverhead = 4096;

/// Worker count for the slab pipeline: explicit config wins, then the
/// SZP_WORKERS environment variable, then the OpenMP thread budget.
/// Deliberately independent of cfg.parallel — the slab *plan* may consult
/// the worker count (auto_slab_thickness, memory_budget), and the plan must
/// not differ between a serial and a parallel run or their containers would
/// diverge.
std::size_t resolve_workers(const StreamingConfig& cfg) {
  if (cfg.workers != 0) return cfg.workers;
  if (const char* env = std::getenv("SZP_WORKERS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 && v < 4096) return static_cast<std::size_t>(v);
  }
#ifdef _OPENMP
  return static_cast<std::size_t>(std::max(1, omp_get_max_threads()));
#else
  return 1;
#endif
}

/// Workers a pipeline actually runs: `cap` (already bounded by the item
/// count) when the config is parallel, else 1 — and always 1 inside a worker
/// of an outer fan-out (compress_many), so every fan-out stays one level.
std::size_t pipeline_workers(const StreamingConfig& cfg, std::size_t cap) {
#ifdef _OPENMP
  if (cfg.parallel && !sim::in_parallel_worker()) return std::max<std::size_t>(1, cap);
#else
  (void)cfg;
  (void)cap;
#endif
  return 1;
}

/// How far production may run ahead of in-order consumption, in items: the
/// config's queue_window, else twice the worker count.
std::size_t queue_window(const StreamingConfig& cfg, std::size_t workers) {
  return std::max<std::size_t>(
      1, cfg.queue_window != 0 ? cfg.queue_window : 2 * std::max<std::size_t>(1, workers));
}

/// Slab partition along the slowest axis: slab thickness chosen so each
/// slab holds at most max_slab_elems.
struct SlabPlan {
  std::size_t slow_extent;      ///< the slowest axis's length
  std::size_t plane_elems;      ///< elements per unit of the slowest axis
  std::size_t thickness;        ///< slowest-axis units per slab
  std::size_t count;            ///< number of slabs
};

SlabPlan plan_slabs(const Extents& ext, const StreamingConfig& cfg, std::size_t workers) {
  SlabPlan p{};
  switch (ext.rank) {
    case 1: p.slow_extent = ext.nx; p.plane_elems = 1; break;
    case 2: p.slow_extent = ext.ny; p.plane_elems = ext.nx; break;
    case 3: p.slow_extent = ext.nz; p.plane_elems = ext.nx * ext.ny; break;
    default: throw std::invalid_argument("StreamingCompressor: rank must be 1, 2, or 3");
  }
  if (p.plane_elems > cfg.max_slab_elems) {
    throw std::invalid_argument(
        "StreamingCompressor: a single plane exceeds max_slab_elems; raise the limit");
  }
  p.thickness = std::max<std::size_t>(1, cfg.max_slab_elems / p.plane_elems);
  if (cfg.auto_slab_thickness) {
    // Aim for ~3 slabs per worker so slabs with uneven workflow-selection
    // cost load-balance across the pool, without dropping below one slow-
    // axis unit or exceeding the max_slab_elems memory cap.
    const std::size_t target_slabs = std::max<std::size_t>(1, 3 * workers);
    const std::size_t balanced =
        std::max<std::size_t>(1, (p.slow_extent + target_slabs - 1) / target_slabs);
    p.thickness = std::min(p.thickness, balanced);
  }
  p.count = (p.slow_extent + p.thickness - 1) / p.thickness;
  return p;
}

/// The full out-of-core plan: the slab split plus the worker count and
/// queue window the memory budget admits.
struct StreamPlan {
  SlabPlan slabs;
  std::size_t workers;  ///< cap on pipeline workers (== resolved when unbudgeted)
  std::size_t window;   ///< queue window the budget model assumed
};

/// Resolve slab thickness, worker count, and queue window against
/// cfg.memory_budget.  Residency model (DESIGN.md §2.3): W staging buffers
/// of one slab each (viewless ingest) plus Q parked archives of at most
/// slab_bytes + kSlabArchiveOverhead awaiting in-order packing:
///
///   W·S + Q·(S + overhead) <= budget,  S = thickness · plane_bytes
///
/// Workers halve until a plan fits; refuse when even one single-plane slab
/// with one worker cannot.  Unbudgeted configs pass through plan_slabs()
/// unchanged, so existing containers are byte-stable.
StreamPlan plan_stream(const Extents& ext, const StreamingConfig& cfg, std::size_t plan_workers,
                       std::size_t elem_size) {
  StreamPlan p{};
  p.slabs = plan_slabs(ext, cfg, plan_workers);
  p.workers = plan_workers;
  p.window = queue_window(cfg, plan_workers);
  if (cfg.memory_budget == 0) return p;

  const std::size_t budget = cfg.memory_budget;
  const std::size_t plane_bytes = p.slabs.plane_elems * elem_size;
  std::size_t w = std::max<std::size_t>(1, plan_workers);
  for (;;) {
    const std::size_t q = queue_window(cfg, w);
    const std::size_t fixed = q * kSlabArchiveOverhead;
    if (budget > fixed) {
      const std::size_t max_slab_bytes = (budget - fixed) / (w + q);
      const std::size_t t = max_slab_bytes / plane_bytes;
      if (t >= 1) {
        p.workers = w;
        p.window = q;
        p.slabs.thickness = std::min(p.slabs.thickness, t);
        p.slabs.count =
            (p.slabs.slow_extent + p.slabs.thickness - 1) / p.slabs.thickness;
        return p;
      }
    }
    if (w == 1) break;
    w /= 2;
  }
  throw ConfigError(
      "StreamingCompressor: memory budget " + std::to_string(budget) +
      " bytes is too small: one single-plane slab plus its packed archive needs about " +
      std::to_string(2 * plane_bytes + kSlabArchiveOverhead) + " bytes");
}

Extents slab_extents(const Extents& ext, std::size_t len) {
  switch (ext.rank) {
    case 1: return Extents::d1(len);
    case 2: return Extents::d2(len, ext.nx);
    default: return Extents::d3(len, ext.ny, ext.nx);
  }
}

/// Bytes [pos, pos + len) of `src`: a zero-copy subspan of its view when it
/// has one (span, mmap), else read_at() into `staging`.  The one ingest
/// path for slab payloads, raw slab elements, directory entries and
/// range-scan blocks alike.
std::span<const std::uint8_t> source_bytes(const io::FieldSource& src, std::size_t pos,
                                           std::size_t len,
                                           std::vector<std::uint8_t>& staging) {
  const std::span<const std::uint8_t> view = src.view();
  if (!view.empty()) return view.subspan(pos, len);
  staging.resize(len);
  src.read_at(pos, staging);
  return staging;
}

/// Whole-field min/max as a block-reduce over the launch substrate: each
/// ValueRange::kRunElems block reads its elements through source_bytes() (a
/// viewless source costs one block-sized buffer per running block) and runs
/// the same lane-form ValueRange::of_run as the in-memory scan, and the block
/// partials merge exactly — so the resolved bound is identical to
/// ValueRange::of, on every source.
template <typename T>
ValueRange field_range_blocked(const io::FieldSource& src, std::size_t count) {
  constexpr std::size_t kBlock = ValueRange::kRunElems;
  const std::size_t blocks = sim::div_ceil(count, kBlock);
  std::vector<ValueRange> partial(blocks);
  sim::launch_blocks(blocks, [&](std::size_t b) {
    const std::size_t begin = b * kBlock;
    const std::size_t n = std::min(kBlock, count - begin);
    std::vector<std::uint8_t> staging;
    const T* p = reinterpret_cast<const T*>(
        source_bytes(src, begin * sizeof(T), n * sizeof(T), staging).data());
    partial[b] = ValueRange::of_run(p, n);
  });
  ValueRange r = partial[0];
  for (std::size_t b = 1; b < blocks; ++b) r.merge(partial[b]);
  return r;
}

/// High-water accounting for bytes the pipeline itself holds resident:
/// staging buffers, parked items awaiting in-order consumption, retained
/// sink bytes.  Lock-free so produce-side charging never contends with the
/// engine mutex.
struct ResidencyMeter {
  std::atomic<std::size_t> current{0};
  std::atomic<std::size_t> peak{0};

  void add(std::size_t n) {
    if (n == 0) return;
    const std::size_t cur = current.fetch_add(n, std::memory_order_relaxed) + n;
    std::size_t p = peak.load(std::memory_order_relaxed);
    while (cur > p && !peak.compare_exchange_weak(p, cur, std::memory_order_relaxed)) {
    }
  }
  void sub(std::size_t n) {
    if (n != 0) current.fetch_sub(n, std::memory_order_relaxed);
  }
};

/// Read/write wall-clock attribution, accumulated by the produce/consume
/// closures (the engine only times whole produce/consume calls).  One lock
/// per slab is noise next to a slab compress.
struct PhaseClock {
  std::mutex m;
  double read = 0.0;
  double write = 0.0;

  void add_read(double s) {
    const std::lock_guard<std::mutex> lk(m);
    read += s;
  }
  void add_write(double s) {
    const std::lock_guard<std::mutex> lk(m);
    write += s;
  }
};

/// Shared state of the bounded producer/consumer pipeline.  Workers claim
/// item indices from `next` (dynamic schedule); finished items park in
/// `done` until the cooperative packer role drains them into the consumer
/// strictly in index order.  `next < frontier + window` bounds how far
/// production runs ahead of consumption, capping the finished-item backlog
/// held in memory.
template <typename Item>
struct EngineState {
  std::mutex m;
  std::condition_variable cv;
  std::size_t next = 0;       ///< next item index to claim
  std::size_t frontier = 0;   ///< next item index to consume
  bool packing = false;       ///< a worker currently holds the packer role
  bool stop = false;          ///< error seen: stop claiming, wind down
  std::size_t err_slab = std::numeric_limits<std::size_t>::max();
  std::exception_ptr err;
  std::vector<Item> done;
  std::vector<char> ready;
  double produce_seconds = 0.0;  ///< summed across workers (can exceed wall)
  double consume_seconds = 0.0;
};

struct PipelineSeconds {
  double produce = 0.0;
  double consume = 0.0;
};

/// The bounded ordered pipeline (DESIGN.md §2.2/§2.3), generalized over
/// what flows through it: compress runs it with Item = Compressed (produce
/// = read + compress a slab, consume = pack it), out-of-core decode with
/// Item = a decoded slab (produce = read + decode, consume = emit raw
/// bytes).  Every worker alternates between claiming the next index and
/// producing it, or — when the lowest unconsumed item is finished and
/// nobody else holds the packer role — draining consecutive finished items
/// through `consume` in index order.  On faults the lowest-index error wins
/// deterministically (claims are monotonic, so every item below a faulting
/// one ran to completion and is still consumed).
///
/// Single-worker runs execute serially: the two-phase reference schedule
/// (produce everything, then consume everything) when `interleave_serial`
/// is false — the in-memory default, where holding all items costs nothing
/// extra — or item-by-item interleaving when true, so bounded-residency
/// out-of-core runs never hold more than one finished item.
template <typename Item, typename MakeCtx, typename Produce, typename Consume>
PipelineSeconds run_ordered_pipeline(std::size_t count, std::size_t workers, std::size_t window,
                                     bool interleave_serial, const MakeCtx& make_ctx,
                                     const Produce& produce, const Consume& consume) {
  PipelineSeconds out;
#ifndef _OPENMP
  workers = 1;
#endif
  if (workers <= 1 || count <= 1) {
    auto ctx = make_ctx();
    if (interleave_serial) {
      for (std::size_t s = 0; s < count; ++s) {
        sim::Timer t;
        Item item = produce(ctx, s);
        out.produce += t.seconds();
        t.reset();
        consume(s, std::move(item));
        out.consume += t.seconds();
      }
    } else {
      std::vector<Item> items;
      items.reserve(count);
      sim::Timer t;
      for (std::size_t s = 0; s < count; ++s) items.push_back(produce(ctx, s));
      out.produce = t.seconds();
      t.reset();
      for (std::size_t s = 0; s < count; ++s) consume(s, std::move(items[s]));
      out.consume = t.seconds();
    }
    return out;
  }
#ifdef _OPENMP
  EngineState<Item> st;
  st.done.resize(count);
  st.ready.assign(count, 0);
  window = std::max<std::size_t>(1, window);

  const auto worker = [&]() {
    try {
      auto ctx = make_ctx();
      std::unique_lock<std::mutex> lk(st.m);
      // Items below the lowest recorded fault are still consumed after a
      // stop, so a consume fault (say, a slab that does not tile) outranks a
      // produce fault above it — the verdict a serial run gives.
      const auto drainable = [&] {
        return st.frontier < count && st.frontier < st.err_slab && st.ready[st.frontier] != 0;
      };
      for (;;) {
        if (!st.packing && drainable()) {
          // Packer role: exclusive by the `packing` flag, in index order by
          // the frontier — so consume() needs no further synchronization.
          st.packing = true;
          while (drainable()) {
            const std::size_t s = st.frontier;
            Item item = std::move(st.done[s]);
            lk.unlock();
            sim::Timer t;
            bool pack_ok = true;
            try {
              consume(s, std::move(item));
            } catch (...) {
              pack_ok = false;
              lk.lock();
              if (s < st.err_slab) {
                st.err_slab = s;
                st.err = std::current_exception();
              }
              st.stop = true;
            }
            if (pack_ok) {
              const double dt = t.seconds();
              lk.lock();
              st.consume_seconds += dt;
              ++st.frontier;
            }
            st.cv.notify_all();  // the window advanced (or we are stopping)
          }
          st.packing = false;
          continue;
        }
        if (!st.stop && st.next < count && st.next < st.frontier + window) {
          const std::size_t s = st.next++;
          lk.unlock();
          sim::Timer t;
          bool ok = true;
          Item item;
          try {
            item = produce(ctx, s);
          } catch (...) {
            ok = false;
            lk.lock();
            // Keep the lowest-index fault: claims are monotonic, so every
            // item below a faulting one was claimed and ran to completion —
            // the winner is deterministic regardless of interleaving.
            if (s < st.err_slab) {
              st.err_slab = s;
              st.err = std::current_exception();
            }
            st.stop = true;
          }
          if (ok) {
            const double dt = t.seconds();
            lk.lock();
            st.produce_seconds += dt;
            st.done[s] = std::move(item);
            st.ready[s] = 1;
          }
          st.cv.notify_all();
          continue;
        }
        // Everything consumed, or stopping with nothing to drain now (the
        // worker that finishes the frontier item drains what follows it).
        if (st.stop || st.frontier >= count) return;
        st.cv.wait(lk, [&] {
          return st.stop || st.frontier >= count || (!st.packing && drainable()) ||
                 (st.next < count && st.next < st.frontier + window);
        });
      }
    } catch (...) {
      // Context creation (e.g. lease acquisition) failed; surface it unless
      // an item already recorded a more specific fault.
      const std::lock_guard<std::mutex> lk(st.m);
      if (!st.err) st.err = std::current_exception();
      st.stop = true;
      st.cv.notify_all();
    }
  };

#pragma omp parallel num_threads(static_cast<int>(workers))
  { worker(); }

  if (st.err) std::rethrow_exception(st.err);
  out.produce = st.produce_seconds;
  out.consume = st.consume_seconds;
#endif
  return out;
}

/// Per-worker pipeline context: a leased workspace (under a parallel
/// config) and a staging buffer for viewless sources.  Staging prefers the
/// workspace's tracked slab_io buffer so steady-state out-of-core runs
/// allocate nothing; a worker without a lease falls back to its own vector.
struct WorkerCtx {
  WorkspaceLease lease;
  std::vector<std::uint8_t> own_buf;
  std::size_t charged = 0;  ///< staging capacity already on the meter

  /// One item's ingest: source_bytes() into this worker's staging buffer,
  /// with the read timed and staging growth charged to the meter.
  std::span<const std::uint8_t> stage(const io::FieldSource& src, std::size_t pos,
                                      std::size_t len, PhaseClock& clock,
                                      ResidencyMeter& meter) {
    std::vector<std::uint8_t>& buf = lease ? lease->slab_io : own_buf;
    sim::Timer t;
    const std::span<const std::uint8_t> bytes = source_bytes(src, pos, len, buf);
    clock.add_read(t.seconds());
    if (buf.capacity() > charged) {
      meter.add(buf.capacity() - charged);
      charged = buf.capacity();
    }
    return bytes;
  }
};

template <typename T>
StreamingStats compress_stream_impl(const StreamingConfig& cfg, const Compressor& compressor,
                                    io::FieldSource& src, const Extents& ext,
                                    io::ContainerSink& sink) {
  const std::size_t total = ext.count();
  if (total == 0) {
    throw std::invalid_argument("StreamingCompressor::compress: data must match extents");
  }
  if (src.size_bytes() != total * sizeof(T)) {
    throw std::invalid_argument("StreamingCompressor::compress: source " + src.name() +
                                " holds " + std::to_string(src.size_bytes()) +
                                " bytes, extents declare " + std::to_string(total * sizeof(T)));
  }
  const std::size_t plan_workers = resolve_workers(cfg);
  const StreamPlan plan = plan_stream(ext, cfg, plan_workers, sizeof(T));

  StreamingStats stats;
  stats.original_bytes = src.size_bytes();

  ResidencyMeter meter;
  PhaseClock clock;

  // Resolve a relative/PSNR bound against the whole field once, so every
  // slab carries the same absolute bound.  An absolute bound needs no field
  // scan at all: finiteness is re-validated by each slab's own compress
  // pass.
  sim::Timer phase_timer;
  CompressConfig slab_cfg = cfg.base;
  if (cfg.base.eb.mode != EbMode::kAbsolute) {
    const ValueRange range = field_range_blocked<T>(src, total);
    if (!range.finite) {
      throw std::invalid_argument("StreamingCompressor::compress: non-finite values");
    }
    slab_cfg.eb = ErrorBound::absolute(cfg.base.eb.resolve(range.span()));
  }
  stats.phases.range_seconds = phase_timer.seconds();
  stats.eb_abs = slab_cfg.eb.value;  // absolute by now, either way

  // The container header.  Sink writes happen only on the packer role's
  // thread (or here, before any worker starts), so the container bytes are
  // identical to a serial in-memory run by construction.
  {
    ByteWriter w;
    w.put(kContainerMagic);
    w.put(kContainerVersion);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(ext.rank));
    w.put<std::uint8_t>(static_cast<std::uint8_t>(
        std::is_same_v<T, float> ? DType::kFloat32 : DType::kFloat64));
    w.put<std::uint64_t>(ext.nx);
    w.put<std::uint64_t>(ext.ny);
    w.put<std::uint64_t>(ext.nz);
    w.put<std::uint64_t>(plan.slabs.count);
    const auto header = w.take();
    sink.write(header);
    if (sink.retains_bytes()) meter.add(header.size());
  }

  const auto slab_geom = [&](std::size_t s, Extents& sub, std::size_t& offset) {
    const std::size_t begin = s * plan.slabs.thickness;
    const std::size_t len = std::min(plan.slabs.thickness, plan.slabs.slow_extent - begin);
    sub = slab_extents(ext, len);
    offset = begin * plan.slabs.plane_elems;
  };

  // How many workers actually run: the config's parallel switch, the
  // machine, the plan, and the memory budget all cap it.
  const std::size_t exec_workers =
      pipeline_workers(cfg, std::min(plan.workers, plan.slabs.count));
  stats.workers_used = exec_workers;
  const std::size_t window = queue_window(cfg, exec_workers);

  const auto make_ctx = [&] {
    // Lease iff the config is parallel (single-worker parallel runs keep
    // the pipeline's per-worker discipline; a genuinely serial config skips
    // the pool round-trip) — lease assignment is deleted, so build in place.
    return WorkerCtx{cfg.parallel ? compressor.lease_workspace() : WorkspaceLease(), {}, 0};
  };

  const auto produce = [&](WorkerCtx& ctx, std::size_t s) -> Compressed {
    Extents sub;
    std::size_t offset = 0;
    slab_geom(s, sub, offset);
    const std::span<const T> span(
        reinterpret_cast<const T*>(
            ctx.stage(src, offset * sizeof(T), sub.count() * sizeof(T), clock, meter).data()),
        sub.count());
    Compressed slab = ctx.lease ? compressor.compress(span, sub, slab_cfg, *ctx.lease)
                                : compressor.compress(span, sub, slab_cfg);
    meter.add(slab.bytes.size());  // parked until the packer drains it
    return slab;
  };

  const auto consume = [&](std::size_t s, Compressed&& slab) {
    Extents sub;
    std::size_t offset = 0;
    slab_geom(s, sub, offset);
    if (s == 0) {
      // Size the container off the first slab (offset + length prefix +
      // payload per entry) so incremental packing does not pay repeated
      // reallocation-and-copy (retaining sinks) — streaming sinks ignore it.
      sink.reserve_hint(plan.slabs.count * (slab.bytes.size() + 16));
    }
    SlabInfo info;
    info.extents = sub;
    info.offset = offset;
    info.ratio = slab.stats.ratio;
    info.workflow = slab.stats.workflow_used;
    stats.slabs.push_back(info);
    std::array<std::uint8_t, 16> prefix{};
    const std::uint64_t off64 = offset;
    const std::uint64_t len64 = slab.bytes.size();
    std::memcpy(prefix.data(), &off64, 8);
    std::memcpy(prefix.data() + 8, &len64, 8);
    const std::size_t parked = slab.bytes.size();
    sim::Timer wt;
    sink.write(prefix);
    sink.write(slab.bytes);
    clock.add_write(wt.seconds());
    if (sink.retains_bytes()) meter.add(prefix.size() + parked);
    meter.sub(parked);
  };

  // A retaining sink holds the whole container anyway, so the serial path
  // keeps the two-phase reference schedule (compress everything, then pack
  // — interleaving only costs cache locality when nothing runs
  // concurrently).  Streaming sinks and budgeted runs interleave so no more
  // than one finished slab is ever parked.
  const bool interleave_serial = !sink.retains_bytes() || cfg.memory_budget != 0;
  const PipelineSeconds t =
      run_ordered_pipeline<Compressed>(plan.slabs.count, exec_workers, window,
                                       interleave_serial, make_ctx, produce, consume);
  sink.finish();

  stats.phases.read_seconds = clock.read;
  stats.phases.write_seconds = clock.write;
  stats.phases.compress_seconds = std::max(0.0, t.produce - clock.read);
  stats.phases.pack_seconds = t.consume;
  stats.compressed_bytes = sink.bytes_written();
  stats.ratio = compression_ratio(stats.original_bytes, stats.compressed_bytes);
  stats.peak_resident_bytes = meter.peak.load(std::memory_order_relaxed);
  return stats;
}

template <typename T>
StreamingCompressed compress_impl(const StreamingConfig& cfg, const Compressor& compressor,
                                  std::span<const T> data, const Extents& ext) {
  if (data.empty() || data.size() != ext.count()) {
    throw std::invalid_argument("StreamingCompressor::compress: data must match extents");
  }
  io::SpanFieldSource src(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size_bytes()));
  io::VectorSink sink;
  StreamingCompressed out;
  out.stats = compress_stream_impl<T>(cfg, compressor, src, ext, sink);
  out.bytes = sink.take();
  return out;
}

/// Whole fields through the ordered pipeline: produce = compress field f
/// (nested under the pipeline's workers, so each field runs single-worker
/// and the fan-out stays one level), consume = store it.  Workers are capped
/// at the field count and the window spans every field, so claims never
/// wait on the in-order drain; the lowest-index fault wins, as everywhere.
template <typename T>
std::vector<StreamingCompressed> compress_many_impl(const StreamingConfig& cfg,
                                                    const Compressor& compressor,
                                                    std::span<const std::span<const T>> fields,
                                                    std::span<const Extents> exts) {
  if (fields.size() != exts.size()) {
    throw std::invalid_argument(
        "StreamingCompressor::compress_many: one extents entry per field required");
  }
  const std::size_t count = fields.size();
  std::vector<StreamingCompressed> out(count);
  run_ordered_pipeline<StreamingCompressed>(
      count, pipeline_workers(cfg, std::min(resolve_workers(cfg), count)), count,
      /*interleave_serial=*/true, [] { return 0; },
      [&](int&, std::size_t f) { return compress_impl(cfg, compressor, fields[f], exts[f]); },
      [&](std::size_t f, StreamingCompressed&& c) { out[f] = std::move(c); });
  return out;
}

struct ContainerHeader {
  Extents extents;
  DType dtype;
  std::size_t slabs;
};

/// Parse and validate the fixed container prefix — all slab_count() reads —
/// including the bound that every declared slab needs at least its 16-byte
/// directory entry in the bytes that follow.
ContainerHeader read_header(const io::FieldSource& src) {
  std::vector<std::uint8_t> staging;
  ByteReader r(source_bytes(src, 0, std::min(src.size_bytes(), kContainerHeaderBytes), staging));
  r.set_segment("header");
  if (r.get<std::uint32_t>() != kContainerMagic) {
    throw DecodeError(DecodeErrorKind::kBadMagic, "header", "not an SZPC container");
  }
  const auto version = r.get<std::uint16_t>();
  if (version != kContainerVersion) {
    throw DecodeError(DecodeErrorKind::kBadVersion, "header",
                      "container version " + std::to_string(version) + ", expected " +
                          std::to_string(kContainerVersion));
  }
  ContainerHeader h{};
  h.extents.rank = r.get<std::uint8_t>();
  const auto dt = r.get<std::uint8_t>();
  h.extents.nx = r.get<std::uint64_t>();
  h.extents.ny = r.get<std::uint64_t>();
  h.extents.nz = r.get<std::uint64_t>();
  h.slabs = r.get<std::uint64_t>();
  if (h.extents.rank < 1 || h.extents.rank > 3) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "header",
                      "rank " + std::to_string(h.extents.rank) + " outside [1, 3]");
  }
  if (static_cast<DType>(dt) != DType::kFloat32 && static_cast<DType>(dt) != DType::kFloat64) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "header",
                      "unknown element-type tag " + std::to_string(dt));
  }
  h.dtype = static_cast<DType>(dt);
  if (h.extents.nx == 0 || h.extents.ny == 0 || h.extents.nz == 0 ||
      (h.extents.rank < 2 && h.extents.ny != 1) || (h.extents.rank < 3 && h.extents.nz != 1)) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "header",
                      "extents inconsistent with the declared rank");
  }
  std::uint64_t count = 0;
  if (__builtin_mul_overflow(h.extents.nx, h.extents.ny, &count) ||
      __builtin_mul_overflow(count, h.extents.nz, &count)) {
    throw DecodeError(DecodeErrorKind::kLengthOverflow, "header",
                      "extents overflow the element count");
  }
  const std::size_t available = src.size_bytes() - kContainerHeaderBytes;
  if (h.slabs > available / 16) {
    throw DecodeError(DecodeErrorKind::kLengthOverflow, "header",
                      "slab count " + std::to_string(h.slabs) + " exceeds what " +
                          std::to_string(available) + " remaining bytes can hold");
  }
  return h;
}

/// Where one slab's nested archive sits, as its directory entry declares.
struct SlabRef {
  std::size_t field_offset;  ///< declared element offset in the field
  std::size_t payload_pos;   ///< byte position of the nested archive
  std::size_t payload_len;   ///< its byte length
};

struct ContainerMap {
  ContainerHeader header{};
  std::vector<SlabRef> slabs;
  std::size_t max_payload = 0;
};

/// The one container walker: the header, then each directory entry's
/// declared offset and payload span, bounds-checked against the source size
/// so a spliced length can never drive a read past the end.  Every source
/// (span, mmap, pread) walks through source_bytes(), so the same bytes get
/// the same verdict on every route, classified as ByteReader classifies
/// them: a fixed-size field cut short is `truncated`, a declared length or
/// slab count past the remaining bytes is `length-overflow`.  Payloads are
/// not touched: index() inspects them, the decode engine decodes them.
ContainerMap walk_container(const io::FieldSource& src) {
  const std::size_t size = src.size_bytes();
  ContainerMap map;
  map.header = read_header(src);
  map.slabs.reserve(map.header.slabs);
  std::vector<std::uint8_t> staging;
  std::size_t pos = kContainerHeaderBytes;
  for (std::size_t s = 0; s < map.header.slabs; ++s) {
    ByteReader r(source_bytes(src, pos, std::min<std::size_t>(16, size - pos), staging));
    r.set_segment("slab directory");
    const auto offset = r.get<std::uint64_t>();
    const auto len = r.get<std::uint64_t>();
    pos += 16;
    if (len > size - pos) throw ByteReader::length_overflow("slab directory", len, 1, size - pos);
    map.slabs.push_back(SlabRef{static_cast<std::size_t>(offset), pos,
                                static_cast<std::size_t>(len)});
    map.max_payload = std::max(map.max_payload, static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
  }
  return map;
}

// Slab checks shared by index() and the decode engine, so a container whose
// slabs disagree with it gets the same verdict on every route.

void check_slab_dtype(std::size_t s, DType slab, DType container) {
  if (slab != container) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "slab directory",
                      "slab " + std::to_string(s) + " element type disagrees with the container");
  }
}

/// Slab `s` must start where the slabs before it (`covered` elements) end,
/// and stay inside the field's `total` elements.
void check_slab_tiles(std::size_t s, std::size_t offset, std::size_t count, std::size_t covered,
                      std::size_t total) {
  if (offset != covered || covered + count > total) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "slab directory",
                      "slab " + std::to_string(s) + " at offset " + std::to_string(offset) +
                          " does not tile the field");
  }
}

void check_slabs_cover(std::size_t covered, std::size_t total) {
  if (covered != total) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "slab directory",
                      "slabs cover " + std::to_string(covered) + " of " + std::to_string(total) +
                          " elements");
  }
}

/// Walk the directory and inspect every nested archive's header (CRC
/// included) without decoding payloads, requiring the slabs to tile the
/// field back-to-back.  decompress() runs this before it allocates the
/// output field, so spliced extents cannot drive a huge resize.
ContainerIndex index_impl(std::span<const std::uint8_t> container) {
  const ContainerMap map = walk_container(io::SpanFieldSource(container));
  ContainerIndex idx;
  idx.extents = map.header.extents;
  idx.dtype = map.header.dtype;
  idx.slabs.reserve(map.slabs.size());
  const std::size_t total = idx.extents.count();
  std::size_t covered = 0;
  for (std::size_t s = 0; s < map.slabs.size(); ++s) {
    ContainerSlab slab{map.slabs[s].field_offset, 0,
                       container.subspan(map.slabs[s].payload_pos, map.slabs[s].payload_len)};
    const auto info = Compressor::inspect(slab.bytes);
    check_slab_dtype(s, info.dtype, idx.dtype);
    slab.count = info.extents.count();
    check_slab_tiles(s, slab.offset, slab.count, covered, total);
    covered += slab.count;
    idx.slabs.push_back(slab);
  }
  check_slabs_cover(covered, total);
  return idx;
}

/// One decoded slab flowing through the decode pipeline.
struct DecodedSlab {
  Decompressed d;
  std::size_t declared_offset = 0;  ///< element offset from the directory
  std::size_t resident = 0;         ///< bytes charged to the meter while parked
};

std::span<const std::uint8_t> decoded_bytes(const Decompressed& d) {
  if (d.dtype == DType::kFloat32) {
    return {reinterpret_cast<const std::uint8_t*>(d.data.data()),
            d.data.size() * sizeof(float)};
  }
  return {reinterpret_cast<const std::uint8_t*>(d.data_f64.data()),
          d.data_f64.size() * sizeof(double)};
}

/// Cap decode workers/window so the budget model fits:
///   W·produce_cost + Q·park_cost <= budget
/// produce_cost bounds what one in-flight slab holds (payload staging plus
/// its decoded elements), park_cost what a finished slab parks awaiting
/// in-order emission (decoded elements only; the staging buffer is reused).
void resolve_decode_budget(const StreamingConfig& cfg, std::size_t produce_cost,
                           std::size_t park_cost, std::size_t& workers, std::size_t& window) {
  const std::size_t budget = cfg.memory_budget;
  if (budget == 0) return;
  produce_cost = std::max<std::size_t>(1, produce_cost);
  park_cost = std::max<std::size_t>(1, park_cost);
  std::size_t w = std::max<std::size_t>(1, workers);
  for (;;) {
    const std::size_t q = queue_window(cfg, w);
    if (w * produce_cost + q * park_cost <= budget) {
      workers = w;
      window = q;
      return;
    }
    if (w == 1) break;
    w /= 2;
  }
  if (produce_cost + park_cost <= budget) {
    workers = 1;
    window = 1;
    return;
  }
  throw ConfigError(
      "StreamingCompressor: memory budget " + std::to_string(budget) +
      " bytes is too small to decode this container: one slab in flight needs about " +
      std::to_string(produce_cost + park_cost) + " bytes");
}

/// The one decode engine, for file pread, file mmap and in-memory
/// decompress() alike: walk the directory, decode slabs through the ordered
/// pipeline, and emit raw element bytes to `sink` strictly in field order,
/// checking the tiling as they pass.  Never materializes the whole field
/// itself: residency is staging plus parked decoded slabs.
StreamingFileInfo decompress_stream_impl(const io::FieldSource& src, io::ContainerSink& sink,
                                         const StreamingConfig& cfg) {
  ResidencyMeter meter;
  PhaseClock clock;
  StreamingFileInfo out;
  out.stats.compressed_bytes = src.size_bytes();

  const ContainerMap map = walk_container(src);
  out.dtype = map.header.dtype;
  out.extents = map.header.extents;
  const std::size_t slab_count = map.slabs.size();
  const std::size_t esize = out.dtype == DType::kFloat32 ? sizeof(float) : sizeof(double);
  const std::size_t total = out.extents.count();

  std::size_t exec_workers = pipeline_workers(cfg, std::min(resolve_workers(cfg), slab_count));
  std::size_t window = queue_window(cfg, exec_workers);
  // Uniform tiling (constant thickness, short last slab) makes the mean a
  // close estimate of the largest decoded slab for the budget model; a
  // view-backed source stages no payload bytes.
  const std::size_t park_cost = (slab_count == 0 ? 0 : sim::div_ceil(total, slab_count)) * esize;
  const std::size_t produce_cost = (src.view().empty() ? map.max_payload : 0) + park_cost;
  resolve_decode_budget(cfg, produce_cost, park_cost, exec_workers, window);
  out.stats.workers_used = exec_workers;
  out.stats.eb_abs = 0.0;  // per-slab bounds live in the slab archives

  const auto make_ctx = [] { return WorkerCtx{}; };

  const auto produce = [&](WorkerCtx& ctx, std::size_t s) -> DecodedSlab {
    const SlabRef& ref = map.slabs[s];
    DecodedSlab item;
    item.d = Compressor::decompress(
        ctx.stage(src, ref.payload_pos, ref.payload_len, clock, meter));
    item.declared_offset = ref.field_offset;
    check_slab_dtype(s, item.d.dtype, out.dtype);
    item.resident = decoded_bytes(item.d).size();
    meter.add(item.resident);
    return item;
  };

  std::size_t covered = 0;  // touched only by the in-order packer role
  const auto consume = [&](std::size_t s, DecodedSlab&& item) {
    const std::span<const std::uint8_t> bytes = decoded_bytes(item.d);
    const std::size_t n = bytes.size() / esize;
    check_slab_tiles(s, item.declared_offset, n, covered, total);
    SlabInfo info;
    info.extents = item.d.extents;
    info.offset = item.declared_offset;
    out.stats.slabs.push_back(info);
    sim::Timer wt;
    sink.write(bytes);
    clock.add_write(wt.seconds());
    if (sink.retains_bytes()) meter.add(bytes.size());
    meter.sub(item.resident);
    covered += n;
  };

  const PipelineSeconds t = run_ordered_pipeline<DecodedSlab>(
      slab_count, exec_workers, window, /*interleave_serial=*/true, make_ctx, produce, consume);
  check_slabs_cover(covered, total);
  sink.finish();

  out.stats.phases.read_seconds = clock.read;
  out.stats.phases.write_seconds = clock.write;
  out.stats.phases.compress_seconds = std::max(0.0, t.produce - clock.read);
  out.stats.phases.pack_seconds = t.consume;
  out.stats.original_bytes = sink.bytes_written();
  out.stats.ratio =
      compression_ratio(out.stats.original_bytes, out.stats.compressed_bytes);
  out.stats.peak_resident_bytes = meter.peak.load(std::memory_order_relaxed);
  return out;
}

/// Sink over a pre-sized output field: each write lands at the running
/// offset, so in-memory decompress() copies every slab exactly once.  The
/// engine's tiling check runs before every write, so writes never overrun.
class FieldSink final : public io::ContainerSink {
 public:
  explicit FieldSink(std::span<std::uint8_t> field) : field_(field) {}

  void write(std::span<const std::uint8_t> bytes) override {
    std::memcpy(field_.data() + written_, bytes.data(), bytes.size());
    written_ += bytes.size();
  }
  [[nodiscard]] std::size_t bytes_written() const override { return written_; }
  [[nodiscard]] std::string name() const override { return "<memory>"; }

 private:
  std::span<std::uint8_t> field_;
  std::size_t written_ = 0;
};

io::SourceMode source_mode(const StreamingConfig& cfg) {
  return cfg.use_mmap ? io::SourceMode::kAuto : io::SourceMode::kRead;
}

}  // namespace

StreamingCompressed StreamingCompressor::compress(std::span<const float> data,
                                                  const Extents& ext) const {
  return compress_impl(cfg_, slab_compressor_, data, ext);
}

StreamingCompressed StreamingCompressor::compress(std::span<const double> data,
                                                  const Extents& ext) const {
  return compress_impl(cfg_, slab_compressor_, data, ext);
}

StreamingCompressed StreamingCompressor::compress(std::span<const float> data, const Extents& ext,
                                                  const StreamingConfig& cfg) const {
  return compress_impl(cfg, slab_compressor_, data, ext);
}

StreamingCompressed StreamingCompressor::compress(std::span<const double> data, const Extents& ext,
                                                  const StreamingConfig& cfg) const {
  return compress_impl(cfg, slab_compressor_, data, ext);
}

StreamingStats StreamingCompressor::compress_stream(io::FieldSource& src, DType dtype,
                                                    const Extents& ext,
                                                    io::ContainerSink& sink) const {
  return compress_stream(src, dtype, ext, sink, cfg_);
}

StreamingStats StreamingCompressor::compress_stream(io::FieldSource& src, DType dtype,
                                                    const Extents& ext, io::ContainerSink& sink,
                                                    const StreamingConfig& cfg) const {
  switch (dtype) {
    case DType::kFloat32:
      return compress_stream_impl<float>(cfg, slab_compressor_, src, ext, sink);
    case DType::kFloat64:
      return compress_stream_impl<double>(cfg, slab_compressor_, src, ext, sink);
  }
  throw std::invalid_argument("StreamingCompressor::compress_stream: unsupported element type");
}

StreamingStats StreamingCompressor::compress_file(const std::filesystem::path& input,
                                                  const std::filesystem::path& output,
                                                  const Extents& ext, DType dtype) const {
  return compress_file(input, output, ext, dtype, cfg_);
}

StreamingStats StreamingCompressor::compress_file(const std::filesystem::path& input,
                                                  const std::filesystem::path& output,
                                                  const Extents& ext, DType dtype,
                                                  const StreamingConfig& cfg) const {
  const auto src = io::open_field_source(input, source_mode(cfg));
  io::FileSink sink(output);
  return compress_stream(*src, dtype, ext, sink, cfg);
}

StreamingFileInfo StreamingCompressor::decompress_stream(io::FieldSource& container,
                                                         io::ContainerSink& raw) {
  return decompress_stream(container, raw, StreamingConfig{});
}

StreamingFileInfo StreamingCompressor::decompress_stream(io::FieldSource& container,
                                                         io::ContainerSink& raw,
                                                         const StreamingConfig& cfg) {
  return decode_guard("streaming container",
                      [&] { return decompress_stream_impl(container, raw, cfg); });
}

StreamingFileInfo StreamingCompressor::decompress_file(const std::filesystem::path& input,
                                                       const std::filesystem::path& output) {
  return decompress_file(input, output, StreamingConfig{});
}

StreamingFileInfo StreamingCompressor::decompress_file(const std::filesystem::path& input,
                                                       const std::filesystem::path& output,
                                                       const StreamingConfig& cfg) {
  const auto src = io::open_field_source(input, source_mode(cfg));
  io::FileSink sink(output);
  return decompress_stream(*src, sink, cfg);
}

std::vector<StreamingCompressed> StreamingCompressor::compress_many(
    std::span<const std::span<const float>> fields, std::span<const Extents> exts) const {
  return compress_many_impl(cfg_, slab_compressor_, fields, exts);
}

std::vector<StreamingCompressed> StreamingCompressor::compress_many(
    std::span<const std::span<const double>> fields, std::span<const Extents> exts) const {
  return compress_many_impl(cfg_, slab_compressor_, fields, exts);
}

std::size_t StreamingCompressor::slab_count(std::span<const std::uint8_t> container) {
  return decode_guard("streaming container",
                      [&] { return read_header(io::SpanFieldSource(container)).slabs; });
}

ContainerIndex StreamingCompressor::index(std::span<const std::uint8_t> container) {
  return decode_guard("streaming container", [&] { return index_impl(container); });
}

StreamingDecompressed StreamingCompressor::decompress(std::span<const std::uint8_t> container) {
  return decompress(container, StreamingConfig{});
}

StreamingDecompressed StreamingCompressor::decompress(std::span<const std::uint8_t> container,
                                                      const StreamingConfig& cfg) {
  return decode_guard("streaming container", [&] {
    // The index proves the tiling before the output field is allocated;
    // then the decode engine drains slabs in order straight into it.  The
    // output is resident by definition, so the memory budget does not apply.
    const ContainerIndex idx = index_impl(container);
    StreamingDecompressed out;
    out.extents = idx.extents;
    out.dtype = idx.dtype;
    std::span<std::uint8_t> field;
    if (idx.dtype == DType::kFloat32) {
      out.data.resize(idx.extents.count());
      field = {reinterpret_cast<std::uint8_t*>(out.data.data()), out.data.size() * sizeof(float)};
    } else {
      out.data_f64.resize(idx.extents.count());
      field = {reinterpret_cast<std::uint8_t*>(out.data_f64.data()),
               out.data_f64.size() * sizeof(double)};
    }
    StreamingConfig unbudgeted = cfg;
    unbudgeted.memory_budget = 0;
    FieldSink sink(field);
    (void)decompress_stream_impl(io::SpanFieldSource(container), sink, unbudgeted);
    return out;
  });
}

StreamingDecompressed StreamingCompressor::decompress_slab(const ContainerIndex& index,
                                                           std::size_t slab_index,
                                                           SlabInfo* info_out) {
  // A bad index with a well-formed container is a caller error, not archive
  // corruption; keep its own exception type.
  if (slab_index >= index.slabs.size()) {
    throw std::out_of_range("StreamingCompressor::decompress_slab: slab index out of range");
  }
  return decode_guard("streaming container", [&] {
    const ContainerSlab& ref = index.slabs[slab_index];
    auto slab = Compressor::decompress(ref.bytes);

    StreamingDecompressed out;
    out.extents = slab.extents;
    out.dtype = index.dtype;
    out.data = std::move(slab.data);
    out.data_f64 = std::move(slab.data_f64);
    if (info_out != nullptr) {
      info_out->extents = slab.extents;
      info_out->offset = ref.offset;
    }
    return out;
  });
}

StreamingDecompressed StreamingCompressor::decompress_slab(
    std::span<const std::uint8_t> container, std::size_t slab_index, SlabInfo* info_out) {
  return decompress_slab(index(container), slab_index, info_out);
}

}  // namespace szp
