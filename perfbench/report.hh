// perfbench — sample statistics, the metric table, and the in-memory span
// recorder behind `--trace 1`.
//
// Spans are recorded by the benchmark around its calls into the library and
// written once, at exit, as Chrome trace-event JSON (open the file in
// Perfetto or chrome://tracing).  Nothing here is linked into the library.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of a sample; 0 for an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Arithmetic mean; 0 for an empty sample.
inline double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// The highest whole percentile that has at least ten samples beyond it
/// (nearest-rank), with the sample count it was taken from.  Below 20
/// samples that percentile would sit under the median, so the tail is the
/// maximum instead, with `pct` 100.
struct Tail {
  double value = 0.0;
  double pct = 0.0;
  std::size_t samples = 0;
};

inline Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  t.value = v.back();
  t.pct = 100.0;
  if (n < 20) return t;
  const auto dn = static_cast<double>(n);
  for (auto p = static_cast<int>(std::floor(100.0 * (dn - 10.0) / dn)); p > 0; --p) {
    const auto rank = static_cast<std::size_t>(std::ceil(p * dn / 100.0));
    if (rank >= 1 && n - rank >= 10) {
      t.value = v[rank - 1];
      t.pct = p;
      return t;
    }
  }
  return t;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered name -> (value, unit) table.  set() overwrites an existing name.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : rows_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    rows_.push_back({name, value, unit});
  }

  [[nodiscard]] const Metric* find(const std::string& name) const {
    for (const Metric& m : rows_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  [[nodiscard]] const std::vector<Metric>& rows() const { return rows_; }

 private:
  std::vector<Metric> rows_;
};

/// JSON number with every significant digit; non-finite values become 0 so
/// the line always parses.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One complete ("ph":"X") trace event.  `tid` selects the track.
struct Span {
  std::string name;
  std::string cat;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
  std::vector<std::pair<std::string, double>> args;
};

/// In-memory span recorder; write() emits Chrome trace-event JSON.
class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  [[nodiscard]] double us(Clock::time_point t) const { return seconds_between(t0_, t) * 1e6; }

  void add(Span s) { spans_.push_back(std::move(s)); }

  /// A span from `a` to `b`.
  void add(const std::string& name, const std::string& cat, Clock::time_point a,
           Clock::time_point b, int tid, std::vector<std::pair<std::string, double>> args = {}) {
    spans_.push_back({name, cat, us(a), seconds_between(a, b) * 1e6, tid, std::move(args)});
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  void write(const std::filesystem::path& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace " + path.string());
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.cat << "\",\"ph\":\"X\",\"pid\":1"
          << ",\"tid\":" << s.tid << ",\"ts\":" << json_number(s.ts_us)
          << ",\"dur\":" << json_number(s.dur_us) << ",\"args\":{";
      for (std::size_t a = 0; a < s.args.size(); ++a) {
        out << (a ? "," : "") << "\"" << s.args[a].first << "\":" << json_number(s.args[a].second);
      }
      out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("short write to trace " + path.string());
  }

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
