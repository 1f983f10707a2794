#include "socket_common.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>
#include <string>

#include "serial/frame_codec.hpp"

namespace perfbench {

using pti::transport::Message;

SocketSystem make_socket_system(bool traced) {
  SocketSystem out;
  auto socket = std::make_unique<pti::transport::SocketTransport>();
  out.socket = socket.get();
  if (traced) {
    auto tracing = std::make_unique<TracingTransport>(std::move(socket));
    out.tracing = tracing.get();
    out.system = std::make_unique<pti::core::InteropSystem>(std::move(tracing));
  } else {
    out.system = std::make_unique<pti::core::InteropSystem>(std::move(socket));
  }
  return out;
}

Counters read_counters(const SocketSystem& sys,
                       const std::vector<pti::core::InteropRuntime*>& senders,
                       const std::vector<pti::core::InteropRuntime*>& receivers) {
  Counters c;
  const auto& socket = sys.socket->socket_stats();
  c.frames_sent = socket.frames_sent;
  c.wire_bytes_sent = socket.wire_bytes_sent;
  c.dials = socket.connections_dialed;
  c.messages = sys.socket->stats().messages;
  for (pti::core::InteropRuntime* rt : receivers) {
    const auto& s = rt->stats();
    c.received += s.objects_received;
    c.rejected += s.objects_rejected;
    c.typeinfo_requests += s.typeinfo_requests;
    c.code_requests += s.code_requests;
    c.verdict_hits += s.session_verdict_hits;
    c.intros += s.session_intros;
    c.resets += s.session_resets;
    c.batches += s.session_batches;
    c.descriptions += rt->domain().registry().size();
    const auto cache = rt->peer().conformance_cache().stats();
    c.cache_hits += cache.hits;
    c.cache_misses += cache.misses;
  }
  for (pti::core::InteropRuntime* rt : senders) c.retries += rt->stats().session_retries;
  return c;
}

namespace {

/// A traced run fails when its layer spans leave more than this share of
/// the traced push time unattributed.
constexpr double kMaxUnattributedShare = 0.10;

/// The phase is cut into slices of about this length.
constexpr double kSliceSeconds = 1.0;

std::size_t slice_count(double seconds) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kSliceSeconds + 0.5));
}

}  // namespace

CpuSampler::CpuSampler(Clock::time_point start, double seconds) {
  const std::size_t slices = slice_count(seconds);
  slice_s_ = seconds / static_cast<double>(slices);
  marks_.resize(slices + 1);
  thread_ = std::jthread([this, start, slices] {
    for (std::size_t k = 0; k <= slices; ++k) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(slice_s_ * static_cast<double>(k))));
      marks_[k] = process_cpu_s();
    }
  });
}

std::vector<double> CpuSampler::finish() {
  thread_.join();
  return marks_;
}

SliceStats slice_stats(const Phase& phase) {
  const std::size_t slices = phase.cpu_marks.size() - 1;
  std::vector<std::vector<double>> by_slice(slices);
  for (const PushSample& s : phase.samples) {
    const auto k = static_cast<std::size_t>(s.done_s / phase.slice_s);
    if (k < slices) by_slice[k].push_back(s.latency_us);
  }
  std::vector<double> rate, cpu, p50, p99;
  for (std::size_t k = 0; k < slices; ++k) {
    const auto n = static_cast<double>(by_slice[k].size());
    rate.push_back(n / phase.slice_s);
    cpu.push_back(ratio((phase.cpu_marks[k + 1] - phase.cpu_marks[k]) * 1e6, n));
    p50.push_back(quantile(by_slice[k], 0.50));
    p99.push_back(quantile(by_slice[k], 0.99));
  }
  // Disturbance from other tenants of the host only ever slows a slice
  // down, so each figure is read off the least disturbed quarter of the
  // slices.
  return SliceStats{quantile(rate, 0.75), quantile(cpu, 0.25), quantile(p50, 0.25),
                    quantile(p99, 0.25)};
}

void report_end_to_end(Report& report, const Phase& phase, const std::vector<double>& setups) {
  const double pushes = static_cast<double>(phase.pushes);
  const SliceStats best = slice_stats(phase);
  report.set("setup_s", median(setups), "s");
  report.set("pushes_per_s", best.pushes_per_s, "1/s");
  report.set("push_p50_us", best.p50_us, "us");
  report.set("push_p99_us", best.p99_us, "us");
  report.set("cpu_us_per_push", best.cpu_us_per_push, "us");
  report.set("wire_bytes_per_push",
             ratio(static_cast<double>(phase.after.wire_bytes_sent - phase.before.wire_bytes_sent),
                   pushes),
             "B");
  report.set("msgs_per_push",
             ratio(static_cast<double>(phase.after.messages - phase.before.messages), pushes),
             "count");
  report.set("peak_rss_mb", phase.rss_mb, "MB");
  std::vector<double> all;
  all.reserve(phase.samples.size());
  for (const PushSample& s : phase.samples) all.push_back(s.latency_us);
  report.info["setup_s_min"] = quantile(setups, 0.0);
  report.info["setup_s_max"] = quantile(setups, 1.0);
  report.info["latency_samples"] = static_cast<double>(all.size());
  report.info["latency_samples_per_slice"] =
      static_cast<double>(all.size()) / static_cast<double>(phase.cpu_marks.size() - 1);
  report.info["measured_s"] = phase.wall_s;
  report.info["whole_phase_pushes_per_s"] = ratio(pushes, phase.wall_s);
  report.info["whole_phase_cpu_us_per_push"] = ratio(phase.cpu_s * 1e6, pushes);
  report.info["whole_phase_push_p50_us"] = quantile(all, 0.50);
  report.info["whole_phase_push_p99_us"] = quantile(all, 0.99);
}

void report_counters(Report& report, const Phase& phase) {
  report.set("latency.push_p99_us", slice_stats(phase).p99_us, "us");
  const Counters& a = phase.after;
  const Counters& b = phase.before;
  const double pushes = static_cast<double>(phase.pushes);
  const auto per_push = [&](std::uint64_t after, std::uint64_t before) {
    return ratio(static_cast<double>(after - before), pushes);
  };
  report.set("transport.frames_per_push", per_push(a.frames_sent, b.frames_sent), "count");
  report.set("transport.connections_dialed", static_cast<double>(a.dials - b.dials), "count");
  report.set("transport.typeinfo_requests_per_push",
             per_push(a.typeinfo_requests, b.typeinfo_requests), "count");
  report.set("transport.code_requests_per_push", per_push(a.code_requests, b.code_requests),
             "count");
  report.set("reflect.descriptions_per_push", per_push(a.descriptions, b.descriptions),
             "count");
  report.set("transport.rejected_share",
             ratio(static_cast<double>(a.rejected - b.rejected),
                   static_cast<double>(a.received - b.received)),
             "ratio");
  const double checks = static_cast<double>((a.cache_hits - b.cache_hits) +
                                            (a.cache_misses - b.cache_misses));
  report.set("conform.checks_per_push", ratio(checks, pushes), "count");
  report.set("conform.cache_hit_ratio",
             ratio(static_cast<double>(a.cache_hits - b.cache_hits), checks), "ratio");
}

void report_distribution(Report& report, const std::string& name,
                         const std::vector<double>& values_us) {
  report.set(name + ".p50", quantile(values_us, 0.50), "us");
  report.set(name + ".p99", quantile(values_us, 0.99), "us");
  report.set(name + ".count", static_cast<double>(values_us.size()), "count");
}

void report_raw_exchange(Report& report, SocketSystem& sys) {
  pti::transport::Transport& net = sys.system->network();
  net.attach("perfbench.raw", [](const Message&) {
    return Message{{}, {}, pti::transport::PushAck{}};
  });
  const Message request{"perfbench.rawsrc", "perfbench.raw", pti::transport::PushAck{}};
  constexpr int kWarm = 200;
  constexpr int kSamples = 3000;
  std::vector<double> samples;
  samples.reserve(kSamples);
  for (int i = 0; i < kWarm + kSamples; ++i) {
    const auto start = Clock::now();
    (void)net.send(request);
    if (i >= kWarm) samples.push_back(seconds_since(start) * 1e6);
  }
  net.detach("perfbench.raw");
  report.set("transport.raw_exchange_us.p50", quantile(samples, 0.50), "us");
  report.set("transport.raw_exchange_us.p99", quantile(samples, 0.99), "us");
}

void report_trace(Report& report, const TraceTree& tree, const Phase& untraced,
                  const Phase& traced) {
  std::vector<double> push_x, batch_x, batch16_x, typeinfo_x, code_x, wire, receiver_self,
      fetch_serve, session_push_x;
  double session_push_total = 0.0, session_push_wire = 0.0;
  std::vector<double> ser[2], deser[2];
  double payload_bytes[2] = {0.0, 0.0};
  std::map<std::int64_t, double> core_self_ns;
  double root_total = 0.0, root_self = 0.0, wrapper_self = 0.0;
  std::vector<double> push_us;
  std::size_t spans_in_pushes = 0;

  const auto us = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e3; };
  for (std::size_t i = 0; i < tree.spans.size(); ++i) {
    if (tree.root[i] < 0) continue;
    ++spans_in_pushes;
    const Span& s = tree.spans[i];
    const double duration = us(s.end - s.start);
    const double self = us(tree.self_ns[i]);
    switch (s.kind) {
      case SpanKind::Push:
        root_total += duration;
        root_self += self;
        push_us.push_back(duration / std::max<std::uint32_t>(s.units, 1));
        break;
      case SpanKind::Send:
      case SpanKind::SendAsync:
      case SpanKind::Flush:
        wrapper_self += self;
        [[fallthrough]];
      case SpanKind::Ack:
        core_self_ns[tree.root[i]] += static_cast<double>(tree.self_ns[i]);
        break;
      case SpanKind::Exchange:
        if (s.sub == kObjectPush || s.sub == kSessionPush) {
          push_x.push_back(duration);
          wire.push_back(self);
        } else if (s.sub == kSessionBatch) {
          batch_x.push_back(duration);
          wire.push_back(self);
          if (s.units == 16) batch16_x.push_back(duration);
        } else if (s.sub == kTypeInfoRequest) {
          typeinfo_x.push_back(duration);
        } else if (s.sub == kCodeRequest) {
          code_x.push_back(duration);
        }
        if (s.sub == kSessionPush) {
          session_push_x.push_back(duration);
          session_push_total += duration;
          session_push_wire += self;
        }
        break;
      case SpanKind::Handler:
        if (s.sub == kObjectPush || s.sub == kSessionPush || s.sub == kSessionBatch) {
          receiver_self.push_back(self);
        } else {
          fetch_serve.push_back(self);
        }
        break;
      case SpanKind::Serialize:
        ser[s.sub & 1].push_back(duration);
        payload_bytes[s.sub & 1] += s.units;
        break;
      case SpanKind::Deserialize:
        deser[s.sub & 1].push_back(duration);
        break;
      case SpanKind::Deliver:
        break;
    }
  }

  // Core self time per push: the InteropRuntime calls and async
  // completions of one root, divided over the pushes the root carried.
  std::vector<double> core_self;
  for (const auto& [root, ns] : core_self_ns) {
    const auto units = std::max<std::uint32_t>(tree.spans[static_cast<std::size_t>(root)].units, 1);
    core_self.push_back(ns / 1e3 / units);
  }
  report_distribution(report, "core.sender_self_us", core_self);
  report_distribution(report, "transport.push_exchange_us", push_x);
  report_distribution(report, "transport.batch_exchange_us", batch_x);
  report_distribution(report, "transport.typeinfo_exchange_us", typeinfo_x);
  report_distribution(report, "transport.code_exchange_us", code_x);
  report_distribution(report, "transport.wire_us", wire);
  report_distribution(report, "transport.receiver_self_us", receiver_self);
  report.set("transport.fetch_serve_self_us.p50", quantile(fetch_serve, 0.5), "us");
  report.set("transport.session_push_exchange_us.p50", quantile(session_push_x, 0.5), "us");
  report.set("transport.session_push_wire_share", ratio(session_push_wire, session_push_total),
             "ratio");
  const auto raw = report.metrics.find("transport.raw_exchange_us.p50");
  if (raw != report.metrics.end()) {
    report.set("transport.batch16_vs_16_raw",
               ratio(quantile(batch16_x, 0.5), 16.0 * raw->second.value), "ratio");
  }
  for (std::uint8_t e = 0; e < 2; ++e) {
    const std::string enc = encoding_name(e);
    report.set("serial.serialize_us." + enc + ".p50", quantile(ser[e], 0.5), "us");
    report.set("serial.serialize_us." + enc + ".p99", quantile(ser[e], 0.99), "us");
    report.set("serial.deserialize_us." + enc + ".p50", quantile(deser[e], 0.5), "us");
    report.set("serial.deserialize_us." + enc + ".p99", quantile(deser[e], 0.99), "us");
    report.set("serial.payload_bytes." + enc,
               ratio(payload_bytes[e], static_cast<double>(ser[e].size())), "B");
  }
  report.set("trace.push_us.p50", quantile(push_us, 0.5), "us");
  const double unattributed = ratio(root_self, root_total);
  report.set("trace.unattributed_share", unattributed, "ratio");
  if (unattributed > kMaxUnattributedShare) {
    report.fail("trace: layer spans leave " + std::to_string(unattributed) +
                " of the traced push time unattributed");
  }
  // The share the library's own seams cover: exchanges with their
  // handlers, serializers, deliveries and async completions, without the
  // self time of the benchmark's spans around InteropRuntime calls (booked
  // as core.sender_self_us). Work that no seam span covers lowers it.
  report.set("trace.seam_share", ratio(root_total - root_self - wrapper_self, root_total),
             "ratio");
  report.set("trace.overhead_share",
             ratio(slice_stats(untraced).pushes_per_s, slice_stats(traced).pushes_per_s) - 1.0,
             "ratio");
  report.set("trace.unlinked_handlers", static_cast<double>(tree.unlinked_handlers), "count");
  report.set("trace.spans", static_cast<double>(spans_in_pushes), "count");
}

void report_frame_replay(Report& report, const Capture& capture) {
  const pti::serial::FrameCodec codec;
  std::vector<std::vector<std::uint8_t>> frames;
  double frame_bytes = 0.0;
  for (const Message& m : capture.messages) {
    frames.push_back(codec.encode(m));
    frame_bytes += static_cast<double>(frames.back().size());
  }
  if (frames.empty()) throw std::runtime_error("no messages captured for the frame replay");
  constexpr double kReplaySeconds = 0.25;
  const auto timed = [&](auto&& body) {
    std::size_t rounds = 0;
    const auto start = Clock::now();
    do {
      body();
      ++rounds;
    } while (seconds_since(start) < kReplaySeconds);
    return seconds_since(start) * 1e6 / (static_cast<double>(rounds) * frame_bytes / 1024.0);
  };
  std::size_t sink = 0;
  report.set("serial.frame_encode_us_per_kb", timed([&] {
               for (const Message& m : capture.messages) sink += codec.encode(m).size();
             }),
             "us/KB");
  report.set("serial.frame_decode_us_per_kb", timed([&] {
               for (const auto& f : frames) sink += codec.decode(f).sender.size();
             }),
             "us/KB");
  report.info["frame_replay_messages"] = static_cast<double>(frames.size());
  keep(sink);
}

}  // namespace perfbench
