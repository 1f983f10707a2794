// Shared helpers of pushbench: clocks, CPU and RSS probes,
// distribution summaries, the seeded generator, and the report every
// workload fills in and main() prints as one JSON object.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU seconds of the whole process so far.
inline double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Peak resident set size of the process so far, in MiB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Nearest-rank quantile of an unsorted sample (q in [0,1]); 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Makes a replay's result observable, so the replayed work cannot be
/// optimised away.
template <class T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// SplitMix64: the workload generator. Inputs depend on --seed only.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }
  bool chance(double p) {
    return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  std::uint64_t state_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one workload run produced. `metrics` holds every metric the run
/// measured (end-to-end and per-layer); `info` holds descriptive context
/// (sample counts, measured traffic shares) that is not a metric.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> info;
  std::vector<std::string> errors;  ///< first few correctness failures, for stderr

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(std::string what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
};

/// Writes the report as one JSON line on stdout.
void print_report(const Options& options, const Report& report);

}  // namespace perfbench
