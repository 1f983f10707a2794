#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "serial/binary_serializer.hpp"
#include "serial/soap_serializer.hpp"
#include "util/hash.hpp"

namespace perfbench {

using pti::transport::Message;

namespace {

/// Messages captured per kind: enough to replay each layer on real
/// inputs, few enough that capturing stays cheap.
constexpr std::size_t kCapturePerKind = 48;
constexpr std::size_t kCaptureDescriptions = 256;

}  // namespace

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::Buffer& SpanRecorder::local() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto fresh = std::make_unique<Buffer>();
    fresh->spans.reserve(1u << 14);
    std::scoped_lock lock(mutex_);
    fresh->id = static_cast<std::uint32_t>(buffers_.size());
    buffer = fresh.get();
    buffers_.push_back(std::move(fresh));
  }
  return *buffer;
}

std::uint32_t SpanRecorder::thread_id() { return local().id; }

void SpanRecorder::record(const Span& span) { local().spans.push_back(span); }

std::vector<Span> SpanRecorder::collect() const {
  std::scoped_lock lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

std::uint64_t endpoint_hash(std::string_view name) noexcept {
  return pti::util::fnv1a64(name);
}

std::uint64_t ScopedSpan::now() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ScopedSpan::~ScopedSpan() {
  if (start_ == 0) return;
  SpanRecorder& recorder = SpanRecorder::instance();
  Span span;
  span.start = start_;
  span.end = now();
  span.thread = recorder.thread_id();
  span.units = units_;
  span.kind = kind_;
  span.sub = sub_;
  recorder.record(span);
}

// --- TracingTransport ---------------------------------------------------------

namespace {

Span exchange_span(const Message& request, std::uint64_t start, std::uint64_t end,
                   std::uint32_t thread) {
  Span span;
  span.start = start;
  span.end = end;
  span.from = endpoint_hash(request.sender);
  span.to = endpoint_hash(request.recipient);
  span.thread = thread;
  span.kind = SpanKind::Exchange;
  span.sub = static_cast<std::uint8_t>(request.payload.index());
  if (const auto* batch = std::get_if<pti::transport::SessionBatch>(&request.payload)) {
    span.units = static_cast<std::uint32_t>(batch->entries.size());
  }
  return span;
}

}  // namespace

void TracingTransport::capture(const Message& message) {
  const std::size_t kind = message.payload.index();
  if (kind < std::size(claimed_) &&
      claimed_[kind].fetch_add(1, std::memory_order_relaxed) < kCapturePerKind) {
    std::scoped_lock lock(capture_mutex_);
    capture_.messages.push_back(message);
  }
  if (const auto* info = std::get_if<pti::transport::TypeInfoResponse>(&message.payload)) {
    for (const auto& xml : info->descriptions_xml) {
      if (claimed_descriptions_.fetch_add(1, std::memory_order_relaxed) >=
          kCaptureDescriptions) {
        break;
      }
      std::scoped_lock lock(capture_mutex_);
      capture_.description_xml.push_back(xml);
    }
  }
}

Capture TracingTransport::take_capture() {
  std::scoped_lock lock(capture_mutex_);
  Capture out = std::move(capture_);
  capture_ = Capture{};
  return out;
}

void TracingTransport::attach(std::string_view name, Handler handler) {
  const std::uint64_t to = endpoint_hash(name);
  inner_->attach(name, [to, handler = std::move(handler)](const Message& request) {
    SpanRecorder& recorder = SpanRecorder::instance();
    if (!recorder.enabled()) return handler(request);
    const std::uint64_t start = ScopedSpan::now();
    struct Record {
      SpanRecorder& recorder;
      const Message& request;
      std::uint64_t start, to;
      ~Record() {
        Span span;
        span.start = start;
        span.end = ScopedSpan::now();
        span.from = endpoint_hash(request.sender);
        span.to = to;
        span.thread = recorder.thread_id();
        span.kind = SpanKind::Handler;
        span.sub = static_cast<std::uint8_t>(request.payload.index());
        recorder.record(span);
      }
    } record{recorder, request, start, to};
    return handler(request);
  });
}

Message TracingTransport::send(const Message& request) {
  SpanRecorder& recorder = SpanRecorder::instance();
  if (!recorder.enabled()) return inner_->send(request);
  const std::uint64_t start = ScopedSpan::now();
  Message response = inner_->send(request);
  recorder.record(exchange_span(request, start, ScopedSpan::now(), recorder.thread_id()));
  capture(request);
  capture(response);
  return response;
}

std::future<Message> TracingTransport::send_async(Message request) {
  auto promise = std::make_shared<std::promise<Message>>();
  std::future<Message> future = promise->get_future();
  send_async(std::move(request), [promise](Message response, std::exception_ptr error) {
    if (error) {
      promise->set_exception(error);
    } else {
      promise->set_value(std::move(response));
    }
  });
  return future;
}

void TracingTransport::send_async(Message request, SendCallback on_complete) {
  SpanRecorder& recorder = SpanRecorder::instance();
  if (!recorder.enabled()) {
    inner_->send_async(std::move(request), std::move(on_complete));
    return;
  }
  // The exchange span belongs to the calling thread (its parent is found
  // there); it ends when the completion callback has run. The callback
  // itself is an Ack span nested in it, on the transport thread.
  const std::uint64_t start = ScopedSpan::now();
  const std::uint32_t caller = recorder.thread_id();
  const std::uint8_t kind = static_cast<std::uint8_t>(request.payload.index());
  Span proto = exchange_span(request, start, 0, caller);
  capture(request);
  inner_->send_async(
      std::move(request),
      [this, proto, kind, on_complete = std::move(on_complete)](
          Message response, std::exception_ptr error) mutable {
        SpanRecorder& rec = SpanRecorder::instance();
        if (!error) capture(response);
        Span ack;
        ack.start = ScopedSpan::now();
        on_complete(std::move(response), error);
        ack.end = ScopedSpan::now();
        ack.from = proto.from;
        ack.to = proto.to;
        ack.thread = rec.thread_id();
        ack.kind = SpanKind::Ack;
        ack.sub = kind;
        rec.record(ack);
        proto.end = ack.end;
        rec.record(proto);
      });
}

// --- TimingSerializer --------------------------------------------------------------

std::vector<std::uint8_t> TimingSerializer::serialize(const pti::reflect::Value& root) {
  ScopedSpan span(SpanKind::Serialize, index_);
  std::vector<std::uint8_t> bytes = inner_->serialize(root);
  span.set_units(static_cast<std::uint32_t>(bytes.size()));
  return bytes;
}

pti::reflect::Value TimingSerializer::deserialize(std::span<const std::uint8_t> data) {
  ScopedSpan span(SpanKind::Deserialize, index_, static_cast<std::uint32_t>(data.size()));
  return inner_->deserialize(data);
}

void install_timing_serializer(pti::serial::SerializerRegistry& registry,
                               std::string_view encoding) {
  if (encoding == "soap") {
    registry.add(std::make_shared<TimingSerializer>(
        std::make_shared<pti::serial::SoapSerializer>(), kSoap));
  } else {
    registry.add(std::make_shared<TimingSerializer>(
        std::make_shared<pti::serial::BinarySerializer>(), kBinary));
  }
}

// --- analysis ---------------------------------------------------------------------

TraceTree build_tree(std::vector<Span> spans) {
  TraceTree tree;
  const std::size_t n = spans.size();
  tree.parent.assign(n, -1);
  tree.self_ns.assign(n, 0);
  tree.root.assign(n, -1);

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (spans[a].start != spans[b].start) return spans[a].start < spans[b].start;
    return spans[a].end > spans[b].end;
  });

  // Remote links: a handler (or async completion) belongs to the exchange
  // with the same endpoints and message kind that encloses it in time.
  const auto key = [](const Span& s) {
    return pti::util::hash_combine(pti::util::hash_combine(s.from, s.to), s.sub);
  };
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> exchanges;
  for (const std::size_t i : order) {
    if (spans[i].kind == SpanKind::Exchange) exchanges[key(spans[i])].push_back(i);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (s.kind != SpanKind::Handler && s.kind != SpanKind::Ack) continue;
    const auto it = exchanges.find(key(s));
    bool linked = false;
    if (it != exchanges.end()) {
      const auto& list = it->second;
      auto pos = std::upper_bound(list.begin(), list.end(), s.start,
                                  [&](std::uint64_t t, std::size_t e) {
                                    return t < spans[e].start;
                                  });
      for (int back = 0; back < 8 && pos != list.begin(); ++back) {
        --pos;
        if (spans[*pos].end >= s.end) {
          tree.parent[i] = static_cast<std::int64_t>(*pos);
          linked = true;
          break;
        }
      }
    }
    if (!linked && s.kind == SpanKind::Handler) ++tree.unlinked_handlers;
  }

  // Local links: the innermost enclosing span of the same thread.
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> stacks;
  for (const std::size_t i : order) {
    const Span& s = spans[i];
    auto& stack = stacks[s.thread];
    while (!stack.empty() && spans[stack.back()].end < s.end) stack.pop_back();
    if (s.kind != SpanKind::Handler && s.kind != SpanKind::Ack && !stack.empty() &&
        s.kind != SpanKind::Push) {
      tree.parent[i] = static_cast<std::int64_t>(stack.back());
    }
    stack.push_back(i);
  }

  // Roots: the enclosing Push span of each span.
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t at = i;
    std::vector<std::size_t> path;
    while (tree.root[at] == -1 && spans[at].kind != SpanKind::Push && tree.parent[at] >= 0 &&
           path.size() < 64) {
      path.push_back(at);
      at = static_cast<std::size_t>(tree.parent[at]);
    }
    const std::int64_t root = spans[at].kind == SpanKind::Push
                                  ? static_cast<std::int64_t>(at)
                                  : tree.root[at];
    tree.root[at] = root;
    for (const std::size_t p : path) tree.root[p] = root;
  }

  // Self time: duration minus the union of the children's (clipped) intervals.
  std::vector<std::vector<std::size_t>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (tree.parent[i] >= 0) children[static_cast<std::size_t>(tree.parent[i])].push_back(i);
  }
  for (std::size_t p = 0; p < n; ++p) {
    const Span& s = spans[p];
    const std::uint64_t duration = s.end - s.start;
    if (children[p].empty()) {
      tree.self_ns[p] = duration;
      continue;
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
    intervals.reserve(children[p].size());
    for (const std::size_t c : children[p]) {
      const std::uint64_t a = std::max(spans[c].start, s.start);
      const std::uint64_t b = std::min(spans[c].end, s.end);
      if (b > a) intervals.emplace_back(a, b);
    }
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : intervals) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    tree.self_ns[p] = duration > covered ? duration - covered : 0;
  }
  tree.spans = std::move(spans);
  return tree;
}

}  // namespace perfbench
