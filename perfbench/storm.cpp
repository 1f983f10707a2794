// storm: the megasim's standard script at kPeers peers in session-batched
// mode (sessions on, windows of 16). It is the only workload that
// exercises InterestIndex fan-out, churn, partitions and epoch reclaim,
// and it runs the simulator's LightweightPeer copy of the protocol.
//
// A run covers kScenarios scenarios, seeded from --seed. Set-up constructs
// and runs the optimistic (cold protocol) reference of each; its
// accept_digest is the known answer. The measured phase is a fixed number
// of rounds, set by --seconds alone, each of which constructs and runs
// every batched scenario once; a traced run also reruns every optimistic
// reference in each round, interleaved with the batched run. Every run must
// reproduce its reference's accept_digest, and every repeated scenario its
// trace_digest. Each figure is read off a scenario's fastest run of the
// fixed count. Scenario::run is one call, so per-push latency is the wall
// time per delivery of that run, one sample per scenario.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "sim/scenario.hpp"
#include "util/epoch.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kPeers = 16000;
/// Scenarios per run, each with its own seed drawn from --seed: one
/// scenario's type universe decides much of its cost, so a run averages
/// several.
constexpr int kScenarios = 6;
/// Nominal length of one measured round on a 4-vCPU x86-64 host: the
/// batched runs alone, and with the optimistic reruns of a traced run.
/// They turn --seconds into a fixed round count, so how fast the host
/// happens to be does not change how many runs each figure is the best of.
constexpr double kRoundSeconds = 8.5;
constexpr double kTracedRoundSeconds = 17.0;
/// After this much measuring, no further round starts (at least two run).
constexpr double kMaxMeasureSeconds = 110.0;

pti::sim::ScenarioConfig config_for(std::uint64_t seed, bool batched) {
  pti::sim::ScenarioConfig config;
  config.seed = seed;
  config.peers = kPeers;
  config.types = 64;
  config.type_groups = 16;
  if (batched) {
    config.use_sessions = true;
    config.session_batch = 16;
  }
  return config;
}

struct Timed {
  pti::sim::ScenarioResult result;
  double construct_s = 0.0;
  double run_s = 0.0;
  double run_cpu_s = 0.0;
};

/// Constructs and runs one Scenario; `keep` receives it when non-null
/// (for the post-run index replay).
Timed construct_and_run(const pti::sim::ScenarioConfig& config,
                        const pti::sim::ScenarioScript& script,
                        std::unique_ptr<pti::sim::Scenario>* keep = nullptr) {
  Timed t;
  const auto c0 = Clock::now();
  auto scenario = std::make_unique<pti::sim::Scenario>(config);
  t.construct_s = seconds_since(c0);
  const double cpu0 = process_cpu_s();
  const auto r0 = Clock::now();
  t.result = scenario->run(script);
  t.run_s = seconds_since(r0);
  t.run_cpu_s = process_cpu_s() - cpu0;
  if (keep != nullptr) *keep = std::move(scenario);
  return t;
}

/// InterestIndex::collect_subscribers per family, on the post-run index.
double index_collect_us_per_family(pti::sim::Scenario& scenario) {
  pti::transport::InterestIndex& index = scenario.interests();
  pti::util::EpochManager::Pin pin(index.epochs());
  std::vector<pti::util::InternedName> families;
  index.collect_interests(families);
  std::vector<pti::transport::SubscriberId> out;
  std::size_t rounds = 0, sink = 0;
  const auto start = Clock::now();
  do {
    for (const auto family : families) {
      out.clear();
      sink += index.collect_subscribers(family, out);
    }
    ++rounds;
  } while (seconds_since(start) < 0.2);
  keep(sink);
  return ratio(seconds_since(start) * 1e6, static_cast<double>(rounds * families.size()));
}

}  // namespace

void run_storm(const Options& options, Report& report) {
  const pti::sim::ScenarioScript script = pti::sim::ScenarioScript::standard(kPeers);
  std::vector<std::uint64_t> seeds;
  Rng rng(options.seed);
  for (int j = 0; j < kScenarios; ++j) seeds.push_back(rng.next() >> 1);
  const std::size_t n_scenarios = seeds.size();

  // Set-up: construct and run the optimistic reference of every scenario.
  std::vector<double> setups;
  std::vector<pti::sim::ScenarioResult> references;
  for (const std::uint64_t seed : seeds) {
    const Timed t = construct_and_run(config_for(seed, false), script);
    setups.push_back(t.construct_s + t.run_s);
    references.push_back(t.result);
  }

  // One mode's runs of one scenario: the fastest of each timing, and the
  // counters of its first run. Every run must repeat trace_digest: the
  // optimistic reference's, or that of the first batched run.
  struct Best {
    std::size_t runs = 0;
    double run_s = 0.0;
    double cpu_s = 0.0;
    double construct_s = 0.0;
    std::uint64_t trace_digest = 0;
    pti::sim::ScenarioStats stats;
  };
  std::vector<Best> batched(n_scenarios), optimistic(n_scenarios);
  for (std::size_t j = 0; j < n_scenarios; ++j) {
    optimistic[j].trace_digest = references[j].trace_digest;
  }
  std::unique_ptr<pti::sim::Scenario> last;  ///< the last batched run, for the index replay
  std::size_t last_j = 0;
  const auto measure = [&](std::size_t j, bool is_batched) {
    if (is_batched) last.reset();
    const Timed t = construct_and_run(config_for(seeds[j], is_batched), script,
                                      is_batched ? &last : nullptr);
    if (is_batched) last_j = j;
    const auto& st = t.result.stats;
    report.attempted += st.deliveries;
    Best& b = is_batched ? batched[j] : optimistic[j];
    if (b.runs++ == 0) {
      b.run_s = t.run_s;
      b.cpu_s = t.run_cpu_s;
      b.construct_s = t.construct_s;
      b.stats = st;
      if (is_batched) b.trace_digest = t.result.trace_digest;
    } else {
      b.run_s = std::min(b.run_s, t.run_s);
      b.cpu_s = std::min(b.cpu_s, t.run_cpu_s);
      b.construct_s = std::min(b.construct_s, t.construct_s);
    }
    const std::string mode = is_batched ? "batched" : "optimistic";
    if (t.result.accept_digest != references[j].accept_digest) {
      report.failed += st.deliveries;
      report.errors.push_back("storm: " + mode +
                              " accept_digest differs from the optimistic reference");
    } else if (t.result.trace_digest != b.trace_digest) {
      report.failed += st.deliveries;
      report.errors.push_back("storm: " + mode + " trace_digest did not repeat for its seed");
    }
  };

  // Measured phase: a fixed number of rounds. A traced run alternates
  // which mode of a scenario runs first, so neither gains from the other
  // having warmed the allocator.
  const double round_s = options.trace ? kTracedRoundSeconds : kRoundSeconds;
  const auto rounds =
      std::max<std::size_t>(2, static_cast<std::size_t>(options.seconds / round_s + 0.5));
  const auto start = Clock::now();
  std::size_t round = 0;
  for (; round < rounds && (round < 2 || seconds_since(start) < kMaxMeasureSeconds); ++round) {
    for (std::size_t j = 0; j < n_scenarios; ++j) {
      if (options.trace && round % 2 == 0) measure(j, false);
      measure(j, true);
      if (options.trace && round % 2 == 1) measure(j, false);
    }
  }
  report.info["rounds"] = static_cast<double>(round);
  report.info["measured_s"] = seconds_since(start);

  double deliveries = 0.0, run_total = 0.0, cpu_total = 0.0;
  pti::sim::ScenarioStats sum;
  std::vector<double> run_s, reference_run_s, construct_s, us_per_delivery, cpu_ratio;
  for (std::size_t j = 0; j < n_scenarios; ++j) {
    const Best& b = batched[j];
    const auto n = static_cast<double>(b.stats.deliveries);
    deliveries += n;
    run_total += b.run_s;
    cpu_total += b.cpu_s;
    sum.net_bytes += b.stats.net_bytes;
    sum.net_messages += b.stats.net_messages;
    sum.typeinfo_requests += b.stats.typeinfo_requests;
    sum.code_requests += b.stats.code_requests;
    sum.session_batch_entries += b.stats.session_batch_entries;
    sum.session_batch_frames += b.stats.session_batch_frames;
    sum.accepts += b.stats.accepts;
    sum.rejects += b.stats.rejects;
    sum.drops += b.stats.drops;
    run_s.push_back(b.run_s);
    construct_s.push_back(b.construct_s);
    us_per_delivery.push_back(b.run_s * 1e6 / n);
    if (options.trace) {
      reference_run_s.push_back(optimistic[j].run_s);
      cpu_ratio.push_back(b.cpu_s / optimistic[j].cpu_s);
    }
  }
  report.info["scenarios"] = static_cast<double>(n_scenarios);
  report.info["deliveries_per_run"] = deliveries / static_cast<double>(n_scenarios);
  report.info["accept_share"] = static_cast<double>(sum.accepts) / deliveries;

  if (!options.trace) {
    report.set("setup_s", median(setups), "s");
    report.set("pushes_per_s", deliveries / run_total, "1/s");
    report.set("push_p50_us", quantile(us_per_delivery, 0.50), "us");
    report.set("push_p99_us", quantile(us_per_delivery, 0.99), "us");
    report.set("cpu_us_per_push", cpu_total * 1e6 / deliveries, "us");
    report.set("wire_bytes_per_push", static_cast<double>(sum.net_bytes) / deliveries, "B");
    report.set("msgs_per_push", static_cast<double>(sum.net_messages) / deliveries, "count");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.info["latency_samples"] = static_cast<double>(us_per_delivery.size());
    report.info["setup_s_min"] = quantile(setups, 0.0);
    report.info["setup_s_max"] = quantile(setups, 1.0);
    return;
  }

  // Per-layer: counters summed over the scenarios; timings as medians over
  // the scenarios of each one's fastest run, the batched and optimistic
  // runs taken the same number of times, interleaved; the index replay on
  // the last batched run.
  const auto per_delivery = [&](std::uint64_t count) {
    return static_cast<double>(count) / deliveries;
  };
  report.set("latency.push_p99_us", quantile(us_per_delivery, 0.99), "us");
  report.set("sim.run_s", median(run_s), "s");
  report.set("sim.reference_run_s", median(reference_run_s), "s");
  report.set("sim.batched_vs_optimistic_cpu", median(cpu_ratio), "ratio");
  report.set("sim.construct_s", median(construct_s), "s");
  report.set("sim.net_msgs_per_delivery", per_delivery(sum.net_messages), "count");
  report.set("sim.typeinfo_requests_per_delivery", per_delivery(sum.typeinfo_requests), "count");
  report.set("sim.code_requests_per_delivery", per_delivery(sum.code_requests), "count");
  report.set("sim.batch_fill",
             ratio(static_cast<double>(sum.session_batch_entries),
                   static_cast<double>(sum.session_batch_frames)),
             "count");
  report.set("sim.accepts", static_cast<double>(sum.accepts), "count");
  report.set("sim.rejects", static_cast<double>(sum.rejects), "count");
  report.set("sim.drops", static_cast<double>(sum.drops), "count");
  report.set("sim.index_entries", static_cast<double>(batched[last_j].stats.index_entries),
             "count");
  report.set("sim.index_collect_us_per_family", index_collect_us_per_family(*last), "us");
}

}  // namespace perfbench
