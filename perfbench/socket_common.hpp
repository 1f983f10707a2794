// What the two socket workloads share: building an InteropSystem over a
// plain or traced SocketTransport, the measured-phase bookkeeping, the
// end-to-end metrics, and the per-layer metrics read off the trace and
// off replays of captured messages.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/interop.hpp"
#include "trace.hpp"
#include "transport/socket_transport.hpp"

namespace perfbench {

struct SocketSystem {
  std::unique_ptr<pti::core::InteropSystem> system;
  pti::transport::SocketTransport* socket = nullptr;
  TracingTransport* tracing = nullptr;  ///< null on the untraced path
};

/// An InteropSystem over a fresh SocketTransport, decorated by a
/// TracingTransport when `traced`.
[[nodiscard]] SocketSystem make_socket_system(bool traced);

/// Counters of one transport and a set of receiving runtimes, read at the
/// start and end of a measured phase.
struct Counters {
  std::uint64_t frames_sent = 0;
  std::uint64_t wire_bytes_sent = 0;
  std::uint64_t messages = 0;
  std::uint64_t dials = 0;
  std::uint64_t received = 0;
  std::uint64_t rejected = 0;
  std::uint64_t typeinfo_requests = 0;
  std::uint64_t code_requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t verdict_hits = 0;
  std::uint64_t intros = 0;
  std::uint64_t resets = 0;
  std::uint64_t retries = 0;
  std::uint64_t batches = 0;
  std::uint64_t descriptions = 0;  ///< type descriptions the receivers hold
};

[[nodiscard]] Counters read_counters(const SocketSystem& sys,
                                     const std::vector<pti::core::InteropRuntime*>& senders,
                                     const std::vector<pti::core::InteropRuntime*>& receivers);

/// One completed push of a measured phase.
struct PushSample {
  double done_s = 0.0;      ///< when its PushAck was available, from the phase start
  double latency_us = 0.0;  ///< from the send call until then
};

/// Reads the process CPU time at every slice boundary of a measured phase,
/// on its own thread, so throughput and CPU cost can be taken per slice
/// and a short disturbance moves one slice, not the whole run.
class CpuSampler {
 public:
  CpuSampler(Clock::time_point start, double seconds);
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;
  /// Waits for the last boundary; returns the CPU seconds at each one.
  std::vector<double> finish();
  [[nodiscard]] double slice_s() const noexcept { return slice_s_; }

 private:
  double slice_s_ = 0.0;
  std::vector<double> marks_;
  std::jthread thread_;
};

/// One measured phase of a closed loop.
struct Phase {
  std::uint64_t pushes = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<PushSample> samples;
  std::vector<double> cpu_marks;  ///< process CPU seconds at each slice boundary
  double slice_s = 0.0;
  /// Peak RSS once the phase completed kRssAfterPushes pushes (or at its
  /// end, if it completed fewer), so memory that grows per push does not
  /// grow with throughput.
  double rss_mb = 0.0;
  Counters before;
  Counters after;
};

/// Timings of a phase read off the least disturbed quarter of its slices.
struct SliceStats {
  double pushes_per_s = 0.0;
  double cpu_us_per_push = 0.0;
  double p50_us = 0.0;  ///< of the per-slice p50 latencies
  double p99_us = 0.0;  ///< of the per-slice p99 latencies
};
[[nodiscard]] SliceStats slice_stats(const Phase& phase);

/// Pushes of a measured phase after which its peak RSS is read.
inline constexpr std::uint64_t kRssAfterPushes = 3000;

/// Fills the end-to-end metrics from an untraced phase: timings from
/// slice_stats(), setup_s as the median of the set-ups. push_p99_us goes
/// to the record only (see BENCHMARK.json's latency.push_p99_us).
void report_end_to_end(Report& report, const Phase& phase, const std::vector<double>& setups);

/// Per-layer counters read off an untraced phase, and its p99 latency.
void report_counters(Report& report, const Phase& phase);

/// Exchanges of an empty message over `sys`: the transport's floor.
void report_raw_exchange(Report& report, SocketSystem& sys);

/// Per-layer timings of a traced phase, the tracing overhead against the
/// untraced phase, and the attribution check, which fails the run when
/// the spans leave too much of the traced push time unattributed.
void report_trace(Report& report, const TraceTree& tree, const Phase& untraced,
                  const Phase& traced);

/// FrameCodec encode/decode replay on captured messages, per KB of frame.
void report_frame_replay(Report& report, const Capture& capture);

/// Percentile summary "<name>.p50/.p99/.count" of a sample in microseconds.
void report_distribution(Report& report, const std::string& name,
                         const std::vector<double>& values_us);

}  // namespace perfbench
