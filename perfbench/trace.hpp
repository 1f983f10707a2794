// Tracing from outside the library, through its public seams only:
//
//   * TracingTransport decorates a transport::Transport. It times every
//     exchange (send and both send_async forms), every handler passed to
//     attach, and the completion callbacks of async exchanges, and it
//     captures a bounded sample of messages for the layer replays;
//   * TimingSerializer decorates a serial::ObjectSerializer and is
//     registered over a peer's payload encoding through
//     peer().serializers().add;
//   * the benchmark records its own spans around InteropRuntime calls, the
//     subscribe callback and each measured push (the root span).
//
// Spans go to per-thread buffers in memory and are analysed after the
// traffic stopped. A remote handler span is linked to the exchange that
// caused it: same sender/recipient pair and message kind, nested in time.
// Every other span's parent is the innermost span of the same thread that
// contains it. A span's self time is its duration minus the part of it
// its children cover.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "serial/object_serializer.hpp"
#include "transport/message.hpp"
#include "transport/transport.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  Push,         ///< one measured push (sync) or burst (async), recorded by the benchmark
  Send,         ///< InteropRuntime::send
  SendAsync,    ///< InteropRuntime::send_async
  Flush,        ///< Peer::flush_session_batches
  Exchange,     ///< Transport::send / send_async until the response is handled
  Handler,      ///< the recipient endpoint's handler
  Ack,          ///< the sender's completion callback of an async exchange
  Serialize,    ///< payload serializer
  Deserialize,  ///< payload deserializer
  Deliver,      ///< the subscribe callback
};

/// Message kinds, as the payload variant index (FrameCodec's kind byte).
enum MsgKind : std::uint8_t {
  kObjectPush = 0,
  kTypeInfoRequest = 2,
  kCodeRequest = 4,
  kSessionPush = 9,
  kSessionBatch = 11,
};

struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t from = 0;    ///< hash of the requesting endpoint (exchanges, handlers)
  std::uint64_t to = 0;      ///< hash of the recipient endpoint
  std::uint32_t thread = 0;  ///< recording thread (the calling thread for exchanges)
  std::uint32_t units = 0;   ///< pushes in a root, entries in a batch, bytes for serializers
  SpanKind kind = SpanKind::Push;
  std::uint8_t sub = 0;  ///< message kind, or encoding index for serializers
};

/// Process-wide span store. Recording is off until enable(); each thread
/// appends to its own buffer, so recording takes no lock.
class SpanRecorder {
 public:
  static SpanRecorder& instance();

  void enable(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Id of the calling thread's buffer.
  std::uint32_t thread_id();
  void record(const Span& span);
  /// Every span recorded so far; call only when no thread is recording.
  [[nodiscard]] std::vector<Span> collect() const;

 private:
  struct Buffer {
    std::uint32_t id = 0;
    std::vector<Span> spans;
  };
  Buffer& local();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

std::uint64_t endpoint_hash(std::string_view name) noexcept;

/// Records a span of the calling thread from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, std::uint8_t sub = 0, std::uint32_t units = 0) noexcept
      : kind_(kind), sub_(sub), units_(units) {
    if (SpanRecorder::instance().enabled()) start_ = now();
  }
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_units(std::uint32_t units) noexcept { units_ = units; }

  static std::uint64_t now() noexcept;

 private:
  SpanKind kind_;
  std::uint8_t sub_;
  std::uint32_t units_;
  std::uint64_t start_ = 0;
};

/// Messages captured while tracing, replayed later against single layers.
struct Capture {
  std::vector<pti::transport::Message> messages;  ///< requests and responses, all kinds
  std::vector<std::string> description_xml;       ///< from TypeInfoResponses
};

class TracingTransport final : public pti::transport::Transport {
 public:
  explicit TracingTransport(std::unique_ptr<pti::transport::Transport> inner)
      : inner_(std::move(inner)) {}

  /// Takes the captured sample (bounded per message kind).
  [[nodiscard]] Capture take_capture();

  void attach(std::string_view name, Handler handler) override;
  void detach(std::string_view name) override { inner_->detach(name); }
  [[nodiscard]] bool is_attached(std::string_view name) const noexcept override {
    return inner_->is_attached(name);
  }
  pti::transport::Message send(const pti::transport::Message& request) override;
  [[nodiscard]] std::future<pti::transport::Message> send_async(
      pti::transport::Message request) override;
  void send_async(pti::transport::Message request, SendCallback on_complete) override;

  void set_default_link(const pti::transport::LinkConfig& config) noexcept override {
    inner_->set_default_link(config);
  }
  void set_link(std::string_view from, std::string_view to,
                const pti::transport::LinkConfig& config) override {
    inner_->set_link(from, to, config);
  }
  void set_default_peer_quota(const pti::transport::PeerQuotaConfig& config) override {
    inner_->set_default_peer_quota(config);
  }
  void set_peer_quota(std::string_view peer,
                      const pti::transport::PeerQuotaConfig& config) override {
    inner_->set_peer_quota(peer, config);
  }
  [[nodiscard]] pti::transport::PeerQuotaTable* peer_quotas() noexcept override {
    return inner_->peer_quotas();
  }
  [[nodiscard]] const pti::transport::NetStats& stats() const noexcept override {
    return inner_->stats();
  }
  void reset_stats() noexcept override { inner_->reset_stats(); }
  [[nodiscard]] pti::util::SimClock& clock() noexcept override { return inner_->clock(); }

 private:
  void capture(const pti::transport::Message& message);

  std::unique_ptr<pti::transport::Transport> inner_;
  /// Claimed capture slots per message kind; once a kind is full,
  /// capturing it costs one atomic increment.
  std::atomic<std::size_t> claimed_[16] = {};
  std::atomic<std::size_t> claimed_descriptions_{0};
  std::mutex capture_mutex_;  ///< guards capture_
  Capture capture_;
};

/// Times one payload encoding of one peer.
class TimingSerializer final : public pti::serial::ObjectSerializer {
 public:
  TimingSerializer(std::shared_ptr<pti::serial::ObjectSerializer> inner, std::uint8_t index)
      : inner_(std::move(inner)), index_(index) {}

  [[nodiscard]] std::string_view encoding() const noexcept override {
    return inner_->encoding();
  }
  [[nodiscard]] std::vector<std::uint8_t> serialize(const pti::reflect::Value& root) override;
  [[nodiscard]] pti::reflect::Value deserialize(std::span<const std::uint8_t> data) override;

 private:
  std::shared_ptr<pti::serial::ObjectSerializer> inner_;
  std::uint8_t index_;
};

/// Encoding index used in serializer spans and metric names.
enum Encoding : std::uint8_t { kSoap = 0, kBinary = 1 };
inline const char* encoding_name(std::uint8_t index) { return index == kSoap ? "soap" : "binary"; }

/// Registers a TimingSerializer over `encoding` ("soap" or "binary") in a
/// peer's serializer registry.
void install_timing_serializer(pti::serial::SerializerRegistry& registry,
                               std::string_view encoding);

/// The linked span forest with self times.
struct TraceTree {
  std::vector<Span> spans;
  std::vector<std::int64_t> parent;  ///< -1 for roots and unlinked spans
  std::vector<std::uint64_t> self_ns;
  std::vector<std::int64_t> root;  ///< enclosing Push span, -1 when none
  std::size_t unlinked_handlers = 0;
};

[[nodiscard]] TraceTree build_tree(std::vector<Span> spans);

}  // namespace perfbench
