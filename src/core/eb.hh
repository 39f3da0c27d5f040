// szp — user-facing error-bound specification.
//
// The paper evaluates with error bounds *relative to the value range*
// (e.g., rel-eb 1e-4 in Table VII); SZ also supports absolute bounds.  The
// bound is resolved to an absolute `eb` before compression; dual
// quantization then guarantees |decompressed - original| < eb pointwise.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace szp {

enum class EbMode {
  kAbsolute,  ///< eb given directly in data units
  kRelative,  ///< eb = value * (max - min) of the field
  kPsnr,      ///< eb derived from a target PSNR in dB (SZ's PSNR mode,
              ///< paper §VI): assuming near-uniform quantization error,
              ///< mse = eb²/3, so eb = range · sqrt(3) · 10^(-psnr/20).
};

struct ErrorBound {
  EbMode mode = EbMode::kRelative;
  double value = 1e-4;

  static ErrorBound absolute(double eb) { return {EbMode::kAbsolute, eb}; }
  static ErrorBound relative(double eb) { return {EbMode::kRelative, eb}; }
  static ErrorBound psnr(double target_db) { return {EbMode::kPsnr, target_db}; }

  /// Resolve to an absolute bound given the field's value range.
  [[nodiscard]] double resolve(double range) const {
    if (value <= 0.0 || !std::isfinite(value)) {
      throw std::invalid_argument("ErrorBound: value must be positive and finite");
    }
    switch (mode) {
      case EbMode::kAbsolute: return value;
      case EbMode::kRelative: return value * (range > 0.0 ? range : 1.0);
      case EbMode::kPsnr:
        return (range > 0.0 ? range : 1.0) * std::sqrt(3.0) * std::pow(10.0, -value / 20.0);
    }
    return value;
  }
};

/// Min/max of a field (used both to resolve relative bounds and for PSNR).
/// Also tracks finiteness: NaN/Inf would silently defeat min/max scans.
/// NaN never enters min/max (it only clears `finite`), so the result does
/// not depend on how a field is split into runs: the in-memory scan and the
/// streamed, block-wise scan (streaming.cc) agree on every input.
struct ValueRange {
  double min = 0.0;
  double max = 0.0;
  bool finite = true;

  [[nodiscard]] double span() const { return max - min; }
  [[nodiscard]] double max_abs() const { return std::max(std::abs(min), std::abs(max)); }

  /// Fold another run's range into this one.
  void merge(const ValueRange& o) {
    min = std::min(min, o.min);
    max = std::max(max, o.max);
    finite = finite && o.finite;
  }

  /// Range of one contiguous run of n >= 1 elements.  Lane form: kLanes
  /// independent min/max/non-finite accumulators, so no iteration waits on
  /// the previous one and the loop vectorizes.  Finiteness is an exponent
  /// test on the bit pattern; the compares ignore NaN.  An all-NaN run
  /// reports min = +inf, max = -inf with finite == false.
  template <typename T>
  static ValueRange of_run(const T* p, std::size_t n) {
    using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
    // Exponent field: all ones exactly for ±inf and NaN.
    constexpr Bits kExp = std::bit_cast<Bits>(std::numeric_limits<T>::infinity());
    constexpr std::size_t kLanes = 16;
    T lo[kLanes], hi[kLanes];
    Bits bad[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      lo[l] = std::numeric_limits<T>::infinity();
      hi[l] = -std::numeric_limits<T>::infinity();
      bad[l] = 0;
    }
    std::size_t i = 0;
    // One lane loop per accumulator family: in this form GCC vectorizes the
    // lane-wise selects (one combined loop it leaves scalar).
    for (; i + kLanes <= n; i += kLanes) {
      const T* q = p + i;
#pragma GCC unroll 16
      for (std::size_t l = 0; l < kLanes; ++l) lo[l] = q[l] < lo[l] ? q[l] : lo[l];
#pragma GCC unroll 16
      for (std::size_t l = 0; l < kLanes; ++l) hi[l] = q[l] > hi[l] ? q[l] : hi[l];
#pragma GCC unroll 16
      for (std::size_t l = 0; l < kLanes; ++l) {
        bad[l] |= static_cast<Bits>((std::bit_cast<Bits>(q[l]) & kExp) == kExp);
      }
    }
    for (std::size_t l = 0; l < n - i; ++l) {  // tail: fewer than kLanes
      const T v = p[i + l];
      lo[l] = v < lo[l] ? v : lo[l];
      hi[l] = v > hi[l] ? v : hi[l];
      bad[l] |= static_cast<Bits>((std::bit_cast<Bits>(v) & kExp) == kExp);
    }
    ValueRange r{static_cast<double>(lo[0]), static_cast<double>(hi[0]), bad[0] == 0};
    for (std::size_t l = 1; l < kLanes; ++l) {
      r.merge({static_cast<double>(lo[l]), static_cast<double>(hi[l]), bad[l] == 0});
    }
    return r;
  }

  /// Block size of the parallel scans: ValueRange::of and the streamed
  /// range pass both merge of_run over runs of this many elements.
  static constexpr std::size_t kRunElems = std::size_t{1} << 16;

  template <typename T>
  static ValueRange of(std::span<const T> data) {
    if (data.empty()) return {};
    const std::size_t n = data.size();
    const auto runs = static_cast<long long>((n + kRunElems - 1) / kRunElems);
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    bool fin = true;
#pragma omp parallel for reduction(min : lo) reduction(max : hi) reduction(&& : fin)
    for (long long b = 0; b < runs; ++b) {
      const std::size_t begin = static_cast<std::size_t>(b) * kRunElems;
      const ValueRange part = of_run(data.data() + begin, std::min(kRunElems, n - begin));
      lo = std::min(lo, part.min);
      hi = std::max(hi, part.max);
      fin = fin && part.finite;
    }
    return {lo, hi, fin};
  }

  template <typename T, typename Alloc>
  static ValueRange of(const std::vector<T, Alloc>& data) {
    return of(std::span<const T>(data.data(), data.size()));
  }
};

}  // namespace szp
