// cold_wide: the paper's optimistic protocol on first contact, with wide
// types. Every push carries a type its receiver has never seen, so each
// one runs the whole protocol: description fetch, an uncached
// conformance check against the receiver's interests, a nested fetch of a
// referenced type, and the code fetch when an interest conforms.
//
// Generated inputs (all from --seed):
//   * a pool of pushed types `cw<i>.Rec`, each in its own assembly, with
//     F fields f0..f(F-1) (int32/string alternating), F getters, and a
//     trailing `part: cw<i>.Part` field whose type is not in the object
//     graph, so conforming checks fetch it mid-check. F is drawn from
//     [8, 64], so members (fields + getters) span 16-128;
//   * a share of the pool is "corrupt": field f7 (which every interest
//     requires) has the other primitive type, so the push conforms to no
//     interest and is rejected after its description fetch, before any
//     code fetch;
//   * each of kReceivers receivers declares kInterests interests
//     `rcv<r>k<k>.Rec` of the same shape, one narrow (F in [8, 12]), one
//     middle ([14, 18]) and one wide ([20, 24]), in a seeded order. The
//     strata keep the checks a push costs alike from seed to seed.
// The known answer of a push is the first interest, in declaration order,
// that is no wider than the pushed type, unless the type is corrupt.
#include <array>
#include <atomic>
#include <charconv>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "conform/conformance_checker.hpp"
#include "reflect/primitives.hpp"
#include "reflect/type_builder.hpp"
#include "serial/typedesc_xml.hpp"
#include "socket_common.hpp"
#include "workloads.hpp"
#include "xml/xml_parser.hpp"

namespace perfbench {
namespace {

using pti::core::InteropRuntime;
using pti::reflect::Args;
using pti::reflect::DynObject;
using pti::reflect::Value;

constexpr std::size_t kReceivers = 64;
constexpr std::size_t kInterests = 3;
constexpr std::size_t kPool = 2000;     ///< pushed types; kPool * kReceivers cold pushes
constexpr std::size_t kWarmTypes = 2;   ///< pushed to every receiver during set-up
constexpr std::size_t kCorruptField = 7;
constexpr double kCorruptShare = 0.2;
constexpr int kSetups = 9;

struct TypeSpec {
  std::string ns;
  std::size_t fields = 0;
  bool corrupt = false;
  std::shared_ptr<const pti::reflect::Assembly> assembly;
};

std::string field_type(std::size_t i, bool flipped) {
  const bool is_int = (i % 2 == 0) != flipped;
  return std::string(is_int ? pti::reflect::kInt32Type : pti::reflect::kStringType);
}

std::shared_ptr<const pti::reflect::Assembly> build_assembly(const std::string& ns,
                                                             std::size_t fields,
                                                             bool corrupt) {
  auto assembly = std::make_shared<pti::reflect::Assembly>(ns + ".types");
  const auto getter = [](std::string field) {
    return [field = std::move(field)](DynObject& self, Args) { return self.get(field); };
  };
  pti::reflect::TypeBuilder part(ns, "Part");
  part.field("code", field_type(0, false))
      .field("label", field_type(1, false))
      .method("getCode", field_type(0, false), {}, getter("code"))
      .method("getLabel", field_type(1, false), {}, getter("label"));
  pti::reflect::TypeBuilder rec(ns, "Rec");
  for (std::size_t i = 0; i < fields; ++i) {
    rec.field("f" + std::to_string(i), field_type(i, corrupt && i == kCorruptField));
  }
  rec.field("part", ns + ".Part");
  for (std::size_t i = 0; i < fields; ++i) {
    rec.method("getF" + std::to_string(i), field_type(i, corrupt && i == kCorruptField), {},
               getter("f" + std::to_string(i)));
  }
  assembly->add_type(part.build());
  assembly->add_type(rec.build());
  return assembly;
}

/// The f0 value a pushed object of pool index `i` carries.
std::int32_t f0_value(std::uint64_t seed, std::size_t i) {
  return static_cast<std::int32_t>((seed * 7919 + i * 104729) % 1000003);
}

struct Inputs {
  std::uint64_t seed = 0;
  std::vector<TypeSpec> pool;
  std::vector<TypeSpec> warm;
  std::array<std::array<TypeSpec, kInterests>, kReceivers> interests;
  /// Push order: (pool index, receiver), every pair exactly once.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
};

Inputs generate(std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  Rng rng(seed);
  for (std::size_t i = 0; i < kPool; ++i) {
    TypeSpec t;
    t.ns = "cw" + std::to_string(i);
    t.fields = rng.between(8, 64);
    t.corrupt = rng.chance(kCorruptShare);
    t.assembly = build_assembly(t.ns, t.fields, t.corrupt);
    in.pool.push_back(std::move(t));
  }
  for (std::size_t i = 0; i < kWarmTypes; ++i) {
    TypeSpec t;
    t.ns = "cwwarm" + std::to_string(i);
    t.fields = 24;
    t.assembly = build_assembly(t.ns, t.fields, false);
    in.warm.push_back(std::move(t));
  }
  for (std::size_t r = 0; r < kReceivers; ++r) {
    std::array<std::size_t, kInterests> strata{0, 1, 2};
    for (std::size_t k = kInterests - 1; k > 0; --k) std::swap(strata[k], strata[rng.between(0, k)]);
    for (std::size_t k = 0; k < kInterests; ++k) {
      TypeSpec t;
      t.ns = "rcv" + std::to_string(r) + "k" + std::to_string(k);
      t.fields = rng.between(8 + 6 * strata[k], 12 + 6 * strata[k]);
      t.assembly = build_assembly(t.ns, t.fields, false);
      in.interests[r][k] = std::move(t);
    }
  }
  for (std::uint32_t round = 0; round < kReceivers; ++round) {
    for (std::uint32_t i = 0; i < kPool; ++i) {
      in.order.emplace_back(i, static_cast<std::uint32_t>((i + round) % kReceivers));
    }
  }
  return in;
}

/// Index of the interest a push must match, or -1 when it must be rejected.
int expected_interest(const Inputs& in, std::size_t type, std::size_t receiver) {
  const TypeSpec& t = in.pool[type];
  if (t.corrupt) return -1;
  for (std::size_t k = 0; k < kInterests; ++k) {
    if (in.interests[receiver][k].fields <= t.fields) return static_cast<int>(k);
  }
  return -1;
}

struct Env {
  SocketSystem sys;
  InteropRuntime* sender = nullptr;
  std::vector<InteropRuntime*> receivers;
  std::vector<std::string> receiver_names;
  std::vector<std::shared_ptr<DynObject>> objects;  ///< one per pool type
  std::vector<pti::core::Subscription> subscriptions;
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> content_mismatches{0};
};

std::unique_ptr<Env> set_up(const Inputs& in, bool traced) {
  auto env = std::make_unique<Env>();
  env->sys = make_socket_system(traced);
  pti::core::InteropSystem& system = *env->sys.system;
  pti::transport::PeerConfig config;
  config.retain_delivered = false;
  env->sender = &system.create_runtime("cw.sender", config);
  if (traced) install_timing_serializer(env->sender->peer().serializers(), "soap");
  for (const TypeSpec& t : in.pool) (void)env->sender->publish_assembly(t.assembly);
  for (const TypeSpec& t : in.warm) (void)env->sender->publish_assembly(t.assembly);
  for (const TypeSpec& t : in.pool) {
    auto object = env->sender->make(t.ns + ".Rec");
    const std::size_t index = env->objects.size();
    object->set("f0", Value(f0_value(in.seed, index)));
    object->set("f1", Value("v" + std::to_string(index)));
    env->objects.push_back(std::move(object));
  }
  Env* raw = env.get();
  for (std::size_t r = 0; r < kReceivers; ++r) {
    const std::string name = "cw.receiver" + std::to_string(r);
    InteropRuntime& receiver = system.create_runtime(name, config);
    if (traced) install_timing_serializer(receiver.peer().serializers(), "soap");
    for (const TypeSpec& interest : in.interests[r]) {
      (void)receiver.publish_assembly(interest.assembly);
      const auto handle = receiver.type(interest.ns + ".Rec");
      env->subscriptions.push_back(
          receiver.subscribe(handle, [raw, seed = in.seed](const auto& delivered) {
            ScopedSpan span(SpanKind::Deliver);
            raw->delivered.fetch_add(1, std::memory_order_relaxed);
            // The content oracle: f0 of a delivered cw<i>.Rec is f0_value(i).
            const std::string& type = delivered.object->type_name();
            std::size_t index = 0;
            const auto parsed = std::from_chars(type.data() + 2, type.data() + type.size(), index);
            const bool ok = type.rfind("cw", 0) == 0 && parsed.ec == std::errc{} &&
                            delivered.object->get("f0") == Value(f0_value(seed, index));
            if (!ok) raw->content_mismatches.fetch_add(1, std::memory_order_relaxed);
          }));
    }
    env->receivers.push_back(&receiver);
    env->receiver_names.push_back(name);
  }
  // Warm-up: connections, code paths and allocator, on types the measured
  // phase never sends.
  for (const TypeSpec& t : in.warm) {
    const auto object = env->sender->make(t.ns + ".Rec");
    for (const std::string& to : env->receiver_names) (void)env->sender->send(to, object);
  }
  env->delivered = 0;
  env->content_mismatches = 0;
  return env;
}

Phase run_phase(Env& env, const Inputs& in, double seconds, Report& report,
                std::uint64_t& accepted) {
  Phase phase;
  phase.samples.reserve(in.order.size());
  const std::vector<InteropRuntime*> senders{env.sender};
  phase.before = read_counters(env.sys, senders, env.receivers);
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  CpuSampler sampler(start, seconds);
  for (const auto& [type, receiver] : in.order) {
    if (seconds_since(start) >= seconds) break;
    const int expect = expected_interest(in, type, receiver);
    if (phase.pushes++ == kRssAfterPushes) phase.rss_mb = peak_rss_mb();
    try {
      pti::transport::PushAck ack;
      const auto t0 = Clock::now();
      {
        ScopedSpan root(SpanKind::Push, 0, 1);
        ScopedSpan send(SpanKind::Send);
        ack = env.sender->send(env.receiver_names[receiver], env.objects[type]);
      }
      const auto t1 = Clock::now();
      phase.samples.push_back(
          {std::chrono::duration<double>(t1 - start).count(),
           std::chrono::duration<double, std::micro>(t1 - t0).count()});
      const std::string want =
          expect < 0 ? std::string() : in.interests[receiver][static_cast<std::size_t>(expect)].ns + ".Rec";
      if (ack.delivered != (expect >= 0) || (expect >= 0 && ack.detail != want)) {
        report.fail("cold_wide: push of " + in.pool[type].ns + ".Rec to receiver " +
                    std::to_string(receiver) + " acked delivered=" +
                    std::to_string(ack.delivered) + " detail='" + ack.detail +
                    "', expected '" + want + "'");
      }
      if (expect >= 0) ++accepted;
    } catch (const std::exception& e) {
      report.fail(std::string("cold_wide: push threw: ") + e.what());
    }
  }
  phase.wall_s = seconds_since(start);
  phase.cpu_s = process_cpu_s() - cpu0;
  phase.cpu_marks = sampler.finish();
  phase.slice_s = sampler.slice_s();
  if (phase.rss_mb == 0.0) phase.rss_mb = peak_rss_mb();
  phase.after = read_counters(env.sys, senders, env.receivers);
  if (phase.pushes == in.order.size()) report.fail("cold_wide: input pool exhausted before the time ran out");
  return phase;
}

/// Checks the delivery-side oracle of a finished phase.
void check_deliveries(Env& env, std::uint64_t accepted, Report& report) {
  if (env.delivered.load() != accepted) {
    report.fail("cold_wide: " + std::to_string(env.delivered.load()) +
                " deliveries for " + std::to_string(accepted) + " accepted pushes");
  }
  if (env.content_mismatches.load() != 0) {
    report.fail("cold_wide: " + std::to_string(env.content_mismatches.load()) +
                " delivered objects differ from what was sent");
  }
}

/// Uncached conformance replay: a fresh checker without a cache, over the
/// (pushed, interest) pairs the measured phase checked, in protocol order.
void replay_conformance(Env& env, const Inputs& in, std::uint64_t pushes, Report& report) {
  constexpr double kBudgetSeconds = 0.6;
  std::vector<double> check_us;
  std::array<std::vector<double>, 3> ns_per_member;  // members 16-31, 32-63, 64-128
  const auto start = Clock::now();
  for (std::uint64_t p = 0; p < pushes && seconds_since(start) < kBudgetSeconds; ++p) {
    const auto [type, r] = in.order[p];
    pti::reflect::TypeRegistry& registry = env.receivers[r]->domain().registry();
    pti::conform::ConformanceChecker checker(registry, env.receivers[r]->checker().options(),
                                             nullptr);
    const TypeSpec& pushed = in.pool[type];
    const auto* source = registry.find(pushed.ns + ".Rec");
    if (source == nullptr) {
      report.fail("cold_wide: replay finds no description of " + pushed.ns + ".Rec");
      continue;
    }
    const std::size_t members = 2 * pushed.fields;
    const std::size_t bucket = members < 32 ? 0 : (members < 64 ? 1 : 2);
    int matched = -1;
    for (std::size_t k = 0; k < kInterests && matched < 0; ++k) {
      const auto* target = registry.find(in.interests[r][k].ns + ".Rec");
      if (target == nullptr) throw std::runtime_error("cold_wide: an interest is not registered");
      const auto t0 = Clock::now();
      const bool ok = checker.check(*source, *target).conformant;
      const double us = seconds_since(t0) * 1e6;
      check_us.push_back(us);
      ns_per_member[bucket].push_back(us * 1e3 / static_cast<double>(members));
      if (ok) matched = static_cast<int>(k);
    }
    if (matched != expected_interest(in, type, r)) {
      report.fail("cold_wide: uncached replay verdict for " + pushed.ns + ".Rec differs");
    }
  }
  report.set("conform.uncached_check_us", median(check_us), "us");
  const char* names[] = {"w16_31", "w32_63", "w64_128"};
  for (std::size_t b = 0; b < 3; ++b) {
    report.set(std::string("conform.uncached_check_ns_per_member.") + names[b],
               median(ns_per_member[b]), "ns");
  }
  report.set("conform.uncached_growth_64_vs_16",
             ratio(median(ns_per_member[2]), median(ns_per_member[0])), "ratio");
  report.info["conform_replay_checks"] = static_cast<double>(check_us.size());
}

/// Description replays on captured TypeInfoResponse XML.
void replay_descriptions(const Capture& capture, Report& report) {
  if (capture.description_xml.empty()) {
    report.fail("cold_wide: no description XML captured");
    return;
  }
  double bytes = 0.0;
  for (const auto& xml : capture.description_xml) bytes += static_cast<double>(xml.size());
  constexpr double kSeconds = 0.25;
  std::size_t sink = 0;
  const auto timed = [&](auto&& body) {
    std::size_t rounds = 0;
    const auto start = Clock::now();
    do {
      for (const auto& xml : capture.description_xml) sink += body(xml);
      ++rounds;
    } while (seconds_since(start) < kSeconds);
    return std::pair{seconds_since(start), static_cast<double>(rounds)};
  };
  const auto [desc_s, desc_rounds] = timed([](const std::string& xml) {
    return pti::serial::type_description_from_string(xml).fields().size();
  });
  const double count = static_cast<double>(capture.description_xml.size()) * desc_rounds;
  report.set("reflect.description_parse_us", desc_s * 1e6 / count, "us");
  report.set("reflect.description_parse_us_per_kb",
             desc_s * 1e6 / (bytes * desc_rounds / 1024.0), "us/KB");
  const auto [xml_s, xml_rounds] = timed([](const std::string& xml) {
    return pti::xml::parse(xml).children().size();
  });
  report.set("xml.parse_mb_per_s", bytes * xml_rounds / (1024.0 * 1024.0) / xml_s, "MB/s");
  keep(sink);
}

}  // namespace

void run_cold_wide(const Options& options, Report& report) {
  const Inputs in = generate(options.seed);
  std::size_t corrupt = 0, rejected = 0;
  for (std::size_t i = 0; i < kPool; ++i) corrupt += in.pool[i].corrupt ? 1 : 0;
  for (const auto& [type, r] : in.order) rejected += expected_interest(in, type, r) < 0 ? 1 : 0;
  report.info["generated_rejection_share"] =
      static_cast<double>(rejected) / static_cast<double>(in.order.size());
  report.info["generated_corrupt_share"] = static_cast<double>(corrupt) / kPool;

  if (!options.trace) {
    std::vector<double> setups;
    std::unique_ptr<Env> env;
    for (int s = 0; s < kSetups; ++s) {
      env.reset();
      const auto t0 = Clock::now();
      env = set_up(in, false);
      setups.push_back(seconds_since(t0));
    }
    std::uint64_t accepted = 0;
    const Phase phase = run_phase(*env, in, options.seconds, report, accepted);
    check_deliveries(*env, accepted, report);
    report.attempted = phase.pushes;
    report_end_to_end(report, phase, setups);
    report.info["measured_rejection_share"] =
        ratio(static_cast<double>(phase.after.rejected - phase.before.rejected),
              static_cast<double>(phase.pushes));
    return;
  }

  // Traced run, half the time each: an untraced phase on the plain
  // transport (counters, raw floor, overhead baseline), then the same phase
  // over the tracing seams.
  std::uint64_t accepted = 0;
  auto plain = set_up(in, false);
  const Phase untraced = run_phase(*plain, in, options.seconds / 2, report, accepted);
  check_deliveries(*plain, accepted, report);
  report_counters(report, untraced);
  report_raw_exchange(report, plain->sys);
  replay_conformance(*plain, in, untraced.pushes, report);
  plain.reset();

  accepted = 0;
  auto traced_env = set_up(in, true);
  SpanRecorder::instance().enable(true);
  const Phase traced = run_phase(*traced_env, in, options.seconds / 2, report, accepted);
  SpanRecorder::instance().enable(false);
  check_deliveries(*traced_env, accepted, report);
  const Capture capture = traced_env->sys.tracing->take_capture();
  traced_env.reset();  // joins every transport thread before the spans are read
  report.attempted = untraced.pushes + traced.pushes;
  report_trace(report, build_tree(SpanRecorder::instance().collect()), untraced, traced);
  report_frame_replay(report, capture);
  replay_descriptions(capture, report);
}

}  // namespace perfbench
