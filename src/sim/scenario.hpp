// Scenario — scripted population-scale workloads over the megasim.
//
// A Scenario wires one universe together — SimNetwork (deterministic
// transport + fault injection), AssemblyHub (whose InterestIndex is THE
// matching engine), TypeUniverse, and N LightweightPeers — and drives it
// through a ScenarioScript: publish storms (Zipf-skewed over types),
// churn (leave/rejoin with LIFO subscriber-id reuse), partition/heal
// waves, and settles, all as events on the EventLoop.
//
// Matching paths. A publish routes to "every live subscriber whose
// interest could match" (interest family in the published type's schema
// group — the topic-routing approximation); each receiver then runs the
// exact conformance gate, so accepts AND rejects both occur and the
// optimistic protocol has something to save. Target discovery goes
// through InterestIndex::collect_matches by default (a bitmap selection
// of the fanout_cap + 1 smallest subscriber ids, no sort); with
// `use_inverted_index = false` it walks every live peer's own interest
// list instead — the pre-PR-8 shape, kept as the benchmark baseline and
// as a correctness pin: both paths must produce identical target sets,
// so the whole scenario digest must be identical under either flag.
// Deliveries name their target by peer index (LightweightPeer keys its
// session state by it) and, in batched mode, park with a (publisher,
// target) group id so a flush regroups them with a counting sort.
//
// Determinism. Same seed => byte-identical ScenarioResult digests,
// regardless of host machine, thread count, or how many other scenarios
// run concurrently in the process. Everything mixed into a digest is a
// stable scenario-local index (peer index, family index) — NEVER a raw
// interned id or pointer, which depend on global interleaving.
//
// Thread safety: a Scenario is single-threaded; run several independent
// Scenarios on several threads to use more cores.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/lightweight_peer.hpp"
#include "sim/type_universe.hpp"
#include "transport/assembly_hub.hpp"
#include "transport/sim_network.hpp"
#include "util/dense_id_map.hpp"
#include "util/hash.hpp"

namespace pti::sim {

struct ScenarioConfig {
  std::uint64_t seed = 42;
  std::size_t peers = 1000;
  std::size_t types = 32;        ///< type families in the universe
  std::size_t type_groups = 8;   ///< conformance islands
  std::size_t interests_per_peer = 2;
  double zipf_exponent = 1.0;    ///< skew of type popularity (0 = uniform)
  transport::ProtocolMode mode = transport::ProtocolMode::Optimistic;
  /// Session-layer pushes: wire ids + raw payload + inline intros; the
  /// verdict/accept stream must match non-session runs while wire bytes
  /// and exchange counts collapse.
  bool use_sessions = false;
  /// With use_sessions, >1 defers deliveries into a window and flushes
  /// them as SessionBatch frames of at most this many entries per
  /// (publisher, target) pair. Windows close as soon as any pair fills,
  /// and ALWAYS before churn/partition/heal events, so every delivery
  /// observes exactly the network and interest state it would have seen
  /// unbatched — the accept stream is byte-identical to session_batch=1.
  std::size_t session_batch = 1;
  bool use_inverted_index = true;
  std::size_t fanout_cap = 64;   ///< deliveries per publish (keeps storms tractable)
  std::uint64_t event_interval_ns = 50'000;  ///< virtual spacing of scripted events
  std::size_t reclaim_every = 4096;  ///< deliveries between epoch reclaim sweeps
};

struct ScenarioStats {
  std::uint64_t publishes = 0;
  std::uint64_t deliveries = 0;  ///< pushes actually sent (post cap/partition)
  std::uint64_t accepts = 0;
  std::uint64_t rejects = 0;
  std::uint64_t drops = 0;
  std::uint64_t leaves = 0;
  std::uint64_t joins = 0;
  std::uint64_t partitions = 0;
  std::uint64_t heals = 0;
  std::uint64_t typeinfo_requests = 0;
  std::uint64_t code_requests = 0;
  std::uint64_t code_bytes_fetched = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t net_drops = 0;
  std::uint64_t virtual_time_ns = 0;
  std::uint64_t index_subscribers = 0;
  std::uint64_t index_entries = 0;
  std::uint64_t session_batch_frames = 0;   ///< SessionBatch frames flushed
  std::uint64_t session_batch_entries = 0;  ///< deliveries those frames carried
};

struct ScenarioResult {
  /// Every event in execution order (publishes, deliveries, verdicts,
  /// churn, partitions) — the "byte-identical run" pin.
  std::uint64_t trace_digest = util::kFnvOffset64;
  /// Only (target, family, verdict, matched interest) — what eager and
  /// optimistic sweeps must agree on.
  std::uint64_t accept_digest = util::kFnvOffset64;
  /// The final ScenarioStats, folded in field order.
  std::uint64_t stats_digest = util::kFnvOffset64;
  ScenarioStats stats;
};

/// The workload DSL: a value object listing phases; Scenario::run
/// schedules and executes them. Phases overlap in virtual time only
/// where the script says so (a partition wave's heals land inside the
/// following storm, which is the point).
class ScenarioScript {
 public:
  ScenarioScript& publish_storm(std::size_t publishes);
  /// `leaves` peers depart, then `rejoins` departed peers return
  /// (interleaved one-per-event; rejoin order is FIFO over departures).
  ScenarioScript& churn(std::size_t leaves, std::size_t rejoins);
  /// Partitions `pairs` live peer pairs (both directions), healing each
  /// after `heal_after_ns` of virtual time.
  ScenarioScript& partition_wave(std::size_t pairs, std::uint64_t heal_after_ns);
  /// Advances virtual time with no workload (lets scheduled heals land).
  ScenarioScript& settle(std::uint64_t idle_ns);

  /// The reference mix used by CI and the soak sweep: storm, churn,
  /// partitioned storm, settle — scaled to the population.
  [[nodiscard]] static ScenarioScript standard(std::size_t peers);

 private:
  friend class Scenario;
  struct Step {
    enum class Kind : std::uint8_t { PublishStorm, Churn, PartitionWave, Settle };
    Kind kind;
    std::size_t a = 0;  ///< publishes / leaves / pairs
    std::size_t b = 0;  ///< rejoins
    std::uint64_t duration_ns = 0;  ///< heal delay / idle time
  };
  std::vector<Step> steps_;
};

class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& config);
  ~Scenario();
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Runs the script to completion and returns the digests. One run per
  /// Scenario instance.
  ScenarioResult run(const ScenarioScript& script);

  [[nodiscard]] TypeUniverse& universe() noexcept { return *universe_; }
  [[nodiscard]] transport::InterestIndex& interests() noexcept { return hub_.interests(); }
  [[nodiscard]] transport::SimNetwork& network() noexcept { return net_; }

 private:
  void fire_publish();
  void fire_churn_leave();
  void fire_churn_rejoin();
  void fire_partition(std::uint64_t heal_after_ns);

  /// Sorted, deduplicated, publisher-excluded, capped target subscriber
  /// set for a publish of `family` — via the inverted index or the
  /// per-peer-list baseline, per config (identical results by contract).
  /// The index path asks collect_matches for only the fanout_cap + 1
  /// smallest ids: one more than the cap, in case the publisher is among
  /// them.
  void match_targets(std::uint32_t family, transport::SubscriberId publisher,
                     std::vector<transport::SubscriberId>& out);

  [[nodiscard]] std::uint32_t pick_live_peer();
  [[nodiscard]] std::uint32_t draw_family();
  void remove_from_live(std::uint32_t peer);
  void maybe_reclaim();

  /// Applies one delivery outcome to stats and digests — the ONE mixing
  /// block both the immediate path and the deferred flush go through, so
  /// batching cannot drift from the pinned fold.
  void mix_delivery(std::uint32_t target, std::uint32_t family,
                    const LightweightPeer::PushOutcome& outcome, std::uint32_t matched);
  /// Sends every deferred delivery as SessionBatch frames (grouped by
  /// (publisher, target) pair in first-touch order, chunks of at most
  /// session_batch entries) and mixes outcomes in original delivery order.
  /// The groups are numbered when deliveries are parked and counting-sorted
  /// here into reused vectors, so a flush allocates nothing once warm.
  void flush_session_batches();

  void mix_trace(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0,
                 std::uint64_t d = 0) noexcept;

  ScenarioConfig config_;
  transport::SimNetwork net_;
  transport::AssemblyHub hub_;
  std::unique_ptr<TypeUniverse> universe_;
  EventLoop loop_;
  std::vector<std::unique_ptr<LightweightPeer>> peers_;

  std::vector<std::uint32_t> live_;      ///< live peer indexes (swap-removed)
  std::vector<std::size_t> live_pos_;    ///< peer index -> position in live_
  std::deque<std::uint32_t> departed_;   ///< churned-out peers, FIFO rejoin
  std::vector<std::uint32_t> sub_to_peer_;  ///< SubscriberId -> peer index
  std::vector<double> zipf_cdf_;

  std::vector<transport::SubscriberId> target_scratch_;
  transport::InterestIndex::MatchScratch match_scratch_;

  /// Deferred-delivery window for batched session mode.
  struct PendingDelivery {
    std::uint32_t publisher;
    std::uint32_t target;
    std::uint32_t family;
    std::uint32_t group;  ///< its (publisher, target) pair's id in pending_groups_
  };
  bool defer_deliveries_ = false;  ///< use_sessions && session_batch > 1
  std::vector<PendingDelivery> pending_deliveries_;
  /// (publisher << 32 | target) -> group id, numbered in first-touch order.
  util::DenseIdMap<std::uint64_t> pending_groups_;
  /// Deliveries parked per group; the counting sort's offsets at flush.
  std::vector<std::uint32_t> group_sizes_;
  /// Flush scratch: delivery indexes grouped, one frame's families and
  /// outcomes, and every delivery's outcome by index.
  std::vector<std::uint32_t> flush_order_;
  std::vector<std::uint32_t> frame_families_;
  std::vector<LightweightPeer::PushOutcome> frame_outcomes_;
  std::vector<LightweightPeer::PushOutcome> flush_outcomes_;

  std::uint64_t cursor_ns_ = 0;  ///< schedule-time cursor for script phases
  std::size_t since_reclaim_ = 0;
  ScenarioStats stats_;
  std::uint64_t trace_digest_ = util::kFnvOffset64;
  std::uint64_t accept_digest_ = util::kFnvOffset64;
};

/// Builds a Scenario, runs `script`, returns the result.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& config,
                                          const ScenarioScript& script);

}  // namespace pti::sim
