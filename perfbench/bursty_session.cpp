// bursty_session: warmed session-mode traffic in bursts. Two sending
// threads each own one sender -> receiver pair (pair 0 sends the SOAP
// payload encoding, pair 1 binary) and send the paper's Person-with-
// Address object in bursts whose lengths are drawn from the seed:
//   * half the bursts are one synchronous send (a SessionPush frame);
//   * the rest are 2-16 send_async calls closed by flush_session_batches()
//     (one SessionBatch frame; a 16th call fills the window and flushes).
// Every pair is warmed during set-up, so conformance serves cached
// verdicts and the time goes to framing, the kernel round trip, session
// resolve and the payload serializer. Burst length decides how much
// batching can amortise, and single and batched pushes share the wire.
#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fixtures/sample_types.hpp"
#include "socket_common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using pti::core::InteropRuntime;
using pti::reflect::DynObject;
using pti::reflect::Value;

constexpr int kPairs = 2;
constexpr std::size_t kMaxBatch = 16;
constexpr std::size_t kObjects = 64;  ///< distinct objects per pair, sent round robin
constexpr std::size_t kSampleEvery = 8;  ///< objects j % 8 == 0 are checked field by field
constexpr int kSetups = 21;
constexpr int kWarmRounds = 16;
const char* const kEncodings[kPairs] = {"soap", "binary"};

struct PersonSpec {
  std::string name;
  std::string street;
  std::int32_t zip = 0;  ///< 1000 * pair + object index: identifies the object
};

struct Inputs {
  std::uint64_t seed = 0;
  std::vector<PersonSpec> persons[kPairs];
};

Inputs generate(std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  Rng rng(seed);
  for (int p = 0; p < kPairs; ++p) {
    for (std::size_t j = 0; j < kObjects; ++j) {
      PersonSpec s;
      s.name = "person-" + std::to_string(rng.next() % 1000000);
      s.street = std::to_string(rng.between(1, 999)) + " Main St";
      s.zip = static_cast<std::int32_t>(1000 * p + static_cast<int>(j));
      in.persons[p].push_back(std::move(s));
    }
  }
  return in;
}

struct Pair {
  InteropRuntime* sender = nullptr;
  InteropRuntime* receiver = nullptr;
  std::string to;
  std::vector<std::shared_ptr<DynObject>> objects;
};

struct Env {
  SocketSystem sys;
  Pair pairs[kPairs];
  std::vector<pti::core::Subscription> subscriptions;
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> sampled{0};
  std::atomic<std::uint64_t> content_mismatches{0};
};

std::unique_ptr<Env> set_up(const Inputs& in, bool traced) {
  auto env = std::make_unique<Env>();
  env->sys = make_socket_system(traced);
  pti::core::InteropSystem& system = *env->sys.system;
  Env* raw = env.get();
  for (int p = 0; p < kPairs; ++p) {
    pti::transport::PeerConfig config;
    config.retain_delivered = false;
    config.use_sessions = true;
    config.session.max_batch = kMaxBatch;
    config.payload_encoding = kEncodings[p];
    Pair& pair = env->pairs[p];
    pair.to = "bs.receiver" + std::to_string(p);
    pair.sender = &system.create_runtime("bs.sender" + std::to_string(p), config);
    pair.receiver = &system.create_runtime(pair.to, config);
    if (traced) {
      install_timing_serializer(pair.sender->peer().serializers(), kEncodings[p]);
      install_timing_serializer(pair.receiver->peer().serializers(), kEncodings[p]);
    }
    (void)pair.sender->publish_assembly(pti::fixtures::team_a_people());
    (void)pair.receiver->publish_assembly(pti::fixtures::team_b_people());
    const std::vector<PersonSpec>* specs = &in.persons[p];
    env->subscriptions.push_back(pair.receiver->subscribe(
        pair.receiver->type("teamB.Person"), [raw, specs, p](const auto& delivered) {
          ScopedSpan span(SpanKind::Deliver);
          raw->delivered.fetch_add(1, std::memory_order_relaxed);
          const DynObject& person = *delivered.object;
          const Value& address_value = person.get("address");
          const auto address = address_value.kind() == pti::reflect::ValueKind::Object
                                   ? address_value.as_object()
                                   : nullptr;
          const std::int32_t j =
              address ? address->get("zip").as_int32() - 1000 * p : -1;
          if (j < 0 || static_cast<std::size_t>(j) >= specs->size()) {
            raw->content_mismatches.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          if (static_cast<std::size_t>(j) % kSampleEvery != 0) return;
          raw->sampled.fetch_add(1, std::memory_order_relaxed);
          const PersonSpec& want = (*specs)[static_cast<std::size_t>(j)];
          if (person.type_name() != "teamA.Person" ||
              person.get("name") != Value(want.name) ||
              address->get("street") != Value(want.street)) {
            raw->content_mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }));
    for (const PersonSpec& s : in.persons[p]) {
      const Value args[] = {Value(s.name)};
      auto person = pair.sender->make("teamA.Person", args);
      const Value addr[] = {Value(s.street), Value(s.zip)};
      person->set("address", Value(pair.sender->make("teamA.Address", addr)));
      pair.objects.push_back(std::move(person));
    }
  }
  // Warm-up: intros, verdict caches, pooled connections and both async
  // workers, with single and batched pushes on every pair.
  for (int round = 0; round < kWarmRounds; ++round) {
    for (Pair& pair : env->pairs) {
      (void)pair.sender->send(pair.to, pair.objects[0]);
      std::vector<std::future<pti::transport::PushAck>> futures;
      for (std::size_t i = 0; i < kMaxBatch; ++i) {
        futures.push_back(pair.sender->send_async(pair.to, pair.objects[i]));
      }
      pair.sender->peer().flush_session_batches();
      for (auto& f : futures) (void)f.get();
    }
  }
  env->delivered = 0;
  env->sampled = 0;
  env->content_mismatches = 0;
  return env;
}

/// What one sending thread measured.
struct Lane {
  std::uint64_t pushes = 0;
  std::uint64_t batched = 0;
  std::uint64_t bursts = 0;
  std::vector<PushSample> samples;
  std::vector<std::string> failures;
};

/// Pushes of all lanes so far, and the peak RSS read when they passed
/// kRssAfterPushes.
struct Progress {
  std::atomic<std::uint64_t> pushes{0};
  std::atomic<double> rss_mb{0.0};

  void add(std::uint64_t n) {
    const std::uint64_t before = pushes.fetch_add(n, std::memory_order_relaxed);
    if (before <= kRssAfterPushes && before + n > kRssAfterPushes) rss_mb = peak_rss_mb();
  }
};

void drive(Pair& pair, std::uint64_t seed, int p, double seconds, Clock::time_point start,
           Lane& lane, Progress& progress) {
  Rng rng(seed * 1000003 + static_cast<std::uint64_t>(p) + 1);
  std::size_t next = 0;
  std::vector<std::future<pti::transport::PushAck>> futures;
  std::vector<Clock::time_point> sent;
  const auto check = [&](const pti::transport::PushAck& ack) {
    if (!ack.delivered || ack.detail != "teamB.Person") {
      lane.failures.push_back("bursty_session: pair " + std::to_string(p) + " ack delivered=" +
                              std::to_string(ack.delivered) + " detail='" + ack.detail + "'");
    }
  };
  while (seconds_since(start) < seconds) {
    ++lane.bursts;
    const std::size_t length = rng.chance(0.5) ? 1 : rng.between(2, kMaxBatch);
    try {
      if (length == 1) {
        ++lane.pushes;
        const auto t0 = Clock::now();
        pti::transport::PushAck ack;
        {
          ScopedSpan root(SpanKind::Push, 0, 1);
          ScopedSpan send(SpanKind::Send);
          ack = pair.sender->send(pair.to, pair.objects[next++ % kObjects]);
        }
        const auto t1 = Clock::now();
        lane.samples.push_back({std::chrono::duration<double>(t1 - start).count(),
                                std::chrono::duration<double, std::micro>(t1 - t0).count()});
        progress.add(1);
        check(ack);
        continue;
      }
      lane.pushes += length;
      lane.batched += length;
      futures.clear();
      sent.clear();
      std::vector<pti::transport::PushAck> acks;
      {
        ScopedSpan root(SpanKind::Push, 0, static_cast<std::uint32_t>(length));
        for (std::size_t i = 0; i < length; ++i) {
          sent.push_back(Clock::now());
          ScopedSpan send(SpanKind::SendAsync);
          futures.push_back(pair.sender->send_async(pair.to, pair.objects[next++ % kObjects]));
        }
        {
          ScopedSpan flush(SpanKind::Flush);
          pair.sender->peer().flush_session_batches();
        }
        for (std::size_t i = 0; i < length; ++i) {
          acks.push_back(futures[i].get());
          const auto t1 = Clock::now();
          lane.samples.push_back({std::chrono::duration<double>(t1 - start).count(),
                                  std::chrono::duration<double, std::micro>(t1 - sent[i]).count()});
        }
      }
      progress.add(length);
      for (const auto& ack : acks) check(ack);
    } catch (const std::exception& e) {
      lane.failures.push_back(std::string("bursty_session: push threw: ") + e.what());
    }
  }
}

Phase run_phase(Env& env, const Inputs& in, double seconds, Report& report,
                std::uint64_t& batched) {
  std::vector<InteropRuntime*> senders, receivers;
  for (Pair& pair : env.pairs) {
    senders.push_back(pair.sender);
    receivers.push_back(pair.receiver);
  }
  Phase phase;
  phase.before = read_counters(env.sys, senders, receivers);
  Lane lanes[kPairs];
  Progress progress;
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  CpuSampler sampler(start, seconds);
  {
    std::vector<std::jthread> threads;
    for (int p = 0; p < kPairs; ++p) {
      threads.emplace_back(
          [&, p] { drive(env.pairs[p], in.seed, p, seconds, start, lanes[p], progress); });
    }
  }
  phase.wall_s = seconds_since(start);
  phase.cpu_s = process_cpu_s() - cpu0;
  phase.cpu_marks = sampler.finish();
  phase.slice_s = sampler.slice_s();
  phase.rss_mb = progress.rss_mb > 0.0 ? progress.rss_mb.load() : peak_rss_mb();
  phase.after = read_counters(env.sys, senders, receivers);
  batched = 0;
  std::uint64_t bursts = 0;
  for (Lane& lane : lanes) {
    phase.pushes += lane.pushes;
    batched += lane.batched;
    bursts += lane.bursts;
    phase.samples.insert(phase.samples.end(), lane.samples.begin(), lane.samples.end());
    for (std::string& f : lane.failures) report.fail(std::move(f));
  }
  if (env.delivered.load() != phase.pushes) {
    report.fail("bursty_session: " + std::to_string(env.delivered.load()) +
                " deliveries for " + std::to_string(phase.pushes) + " pushes");
  }
  if (env.content_mismatches.load() != 0 || env.sampled.load() == 0) {
    report.fail("bursty_session: " + std::to_string(env.content_mismatches.load()) + " of " +
                std::to_string(env.sampled.load()) +
                " sampled deliveries differ from what was sent");
  }
  report.info["bursts"] = static_cast<double>(bursts);
  report.info["sampled_deliveries"] = static_cast<double>(env.sampled.load());
  return phase;
}

}  // namespace

void run_bursty_session(const Options& options, Report& report) {
  const Inputs in = generate(options.seed);
  std::uint64_t batched = 0;
  if (!options.trace) {
    std::vector<double> setups;
    std::unique_ptr<Env> env;
    for (int s = 0; s < kSetups; ++s) {
      env.reset();
      const auto t0 = Clock::now();
      env = set_up(in, false);
      setups.push_back(seconds_since(t0));
    }
    const Phase phase = run_phase(*env, in, options.seconds, report, batched);
    report.attempted = phase.pushes;
    report_end_to_end(report, phase, setups);
    report.info["measured_batched_share"] =
        ratio(static_cast<double>(batched), static_cast<double>(phase.pushes));
    return;
  }

  // Traced run, half the time each: an untraced phase on the plain
  // transport, then the same phase over the tracing seams.
  auto plain = set_up(in, false);
  const Phase untraced = run_phase(*plain, in, options.seconds / 2, report, batched);
  report_counters(report, untraced);
  const Counters& a = untraced.after;
  const Counters& b = untraced.before;
  const double pushes = static_cast<double>(untraced.pushes);
  report.set("session.verdict_hit_ratio",
             ratio(static_cast<double>(a.verdict_hits - b.verdict_hits),
                   static_cast<double>(a.received - b.received)),
             "ratio");
  report.set("session.resets", static_cast<double>(a.resets - b.resets), "count");
  report.set("session.retries", static_cast<double>(a.retries - b.retries), "count");
  report.set("session.intros_per_push", ratio(static_cast<double>(a.intros - b.intros), pushes),
             "count");
  report.set("session.batch_fill",
             ratio(static_cast<double>(batched), static_cast<double>(a.batches - b.batches)),
             "count");
  report.set("session.batched_share", ratio(static_cast<double>(batched), pushes), "ratio");
  report_raw_exchange(report, plain->sys);
  plain.reset();

  auto traced_env = set_up(in, true);
  SpanRecorder::instance().enable(true);
  const Phase traced = run_phase(*traced_env, in, options.seconds / 2, report, batched);
  SpanRecorder::instance().enable(false);
  const Capture capture = traced_env->sys.tracing->take_capture();
  traced_env.reset();  // joins every transport thread before the spans are read
  report.attempted = untraced.pushes + traced.pushes;
  report_trace(report, build_tree(SpanRecorder::instance().collect()), untraced, traced);
  report_frame_replay(report, capture);
}

}  // namespace perfbench
