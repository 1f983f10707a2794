// Megasim determinism and shared-index semantics (ISSUE 8 tentpole).
//
// Three layers under test:
//
//   EventLoop        (time, seq)-ordered firing, clock coupling, clamping.
//   InterestIndex    declaration-order matching, idempotent registration,
//                    LIFO id reuse, tombstone compaction, fingerprint
//                    buckets, sorted-union fan-out (the capped selection
//                    against the sort-and-truncate oracle) — plus a churn test
//                    that TSan watches: concurrent subscribe/unsubscribe
//                    against pinned snapshot readers.
//   Scenario         the determinism contract: same seed => byte-identical
//                    trace/accept/stats digests, invariant under host
//                    thread count; eager and optimistic modes agree on
//                    every accept/reject verdict while optimistic moves
//                    fewer bytes; the inverted index and the per-peer-scan
//                    baseline produce identical runs.
//
// SimScale.PopulationScenario is the CI scale gate: peers default to 3000
// for plain ctest; the scale-smoke stage sets PTI_SIM_PEERS=10000 and the
// nightly soak sweeps 10^5 (and 10^6 on big iron). The scenario runs
// PTI_SIM_RUNS times (default 2) and every run must produce the same
// digests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/scenario.hpp"
#include "transport/interest_index.hpp"
#include "transport/transport_error.hpp"
#include "util/epoch.hpp"
#include "util/interning.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"

namespace pti {
namespace {

using sim::EventLoop;
using sim::Scenario;
using sim::ScenarioConfig;
using sim::ScenarioResult;
using sim::ScenarioScript;
using transport::InterestEntry;
using transport::InterestIndex;
using transport::SubscriberId;
using util::InternedName;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  return raw != nullptr && *raw != '\0' ? std::strtoull(raw, nullptr, 10) : fallback;
}

InternedName intern(const std::string& s) { return util::SymbolTable::global().intern(s); }

// --- EventLoop ---------------------------------------------------------------

TEST(EventLoopTest, FiresInTimeThenScheduleOrder) {
  EventLoop loop(1);
  std::vector<int> order;
  loop.at(200, [&] { order.push_back(3); });
  loop.at(100, [&] { order.push_back(1); });
  loop.at(100, [&] { order.push_back(2); });  // same tick: schedule order
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now_ns(), 200u);
}

TEST(EventLoopTest, EventsMayScheduleMoreEventsAndPastClampsToNow) {
  EventLoop loop(1);
  std::vector<int> order;
  loop.at(100, [&] {
    order.push_back(1);
    loop.at(50, [&] { order.push_back(2); });  // in the past: fires next
    loop.after(10, [&] { order.push_back(3); });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now_ns(), 110u);
}

TEST(EventLoopTest, RunUntilAdvancesSharedClock) {
  util::SimClock clock;
  EventLoop loop(1, &clock);
  int fired = 0;
  loop.at(100, [&] { fired++; });
  loop.at(900, [&] { fired++; });
  EXPECT_EQ(loop.run_until(500), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(clock.now_ns(), 500u);  // advanced to the horizon, not the event
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_EQ(clock.now_ns(), 900u);
}

// --- InterestIndex -----------------------------------------------------------

TEST(InterestIndexTest, MatchFirstHonorsDeclarationOrder) {
  InterestIndex index;
  const SubscriberId sub = index.add_subscriber();
  const InternedName a = intern("simidx.order.A");
  const InternedName b = intern("simidx.order.B");
  const InternedName c = intern("simidx.order.C");
  index.add_interest(sub, b, 2);
  index.add_interest(sub, a, 1);
  index.add_interest(sub, c, 3);

  // Everything matches: the FIRST DECLARED interest wins, not the lowest id.
  const auto any = index.match_first(sub, [](const InterestEntry&) { return true; });
  ASSERT_TRUE(any.has_value());
  EXPECT_EQ(any->interest, b);
  EXPECT_EQ(any->fingerprint, 2u);

  // A selective acceptor sees candidates in declaration order too.
  std::vector<InternedName> seen;
  const auto last = index.match_first(sub, [&](const InterestEntry& e) {
    seen.push_back(e.interest);
    return e.interest == c;
  });
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->interest, c);
  EXPECT_EQ(seen, (std::vector<InternedName>{b, a, c}));
}

TEST(InterestIndexTest, RegistrationIsIdempotentAndRemovable) {
  InterestIndex index;
  const SubscriberId sub = index.add_subscriber();
  const InternedName a = intern("simidx.idem.A");
  index.add_interest(sub, a, 7);
  index.add_interest(sub, a, 7);  // duplicate pair: no-op
  EXPECT_EQ(index.entry_count(), 1u);
  EXPECT_EQ(index.interest_count(), 1u);

  index.remove_interest(sub, a);
  EXPECT_EQ(index.entry_count(), 0u);
  EXPECT_EQ(index.interest_count(), 0u);
  std::vector<SubscriberId> subs;
  EXPECT_EQ(index.collect_subscribers(a, subs), 0u);

  EXPECT_THROW(index.add_interest(sub, InternedName(), 0), transport::TransportError);
  EXPECT_THROW(index.add_interest(sub + 100, a, 7), transport::TransportError);
}

TEST(InterestIndexTest, SubscriberIdsAreDenseAndReusedLifo) {
  InterestIndex index;
  const SubscriberId s0 = index.add_subscriber();
  const SubscriberId s1 = index.add_subscriber();
  const SubscriberId s2 = index.add_subscriber();
  EXPECT_EQ(s1, s0 + 1);
  EXPECT_EQ(s2, s0 + 2);

  index.remove_subscriber(s1);
  index.remove_subscriber(s2);
  EXPECT_FALSE(index.is_live(s1));
  // LIFO reuse: the most recently freed id comes back first — this is what
  // keeps churned scenario replays deterministic.
  EXPECT_EQ(index.add_subscriber(), s2);
  EXPECT_EQ(index.add_subscriber(), s1);
  EXPECT_TRUE(index.is_live(s1));
}

TEST(InterestIndexTest, PostingListsSurviveTombstoneCompaction) {
  InterestIndex index;
  const InternedName hot = intern("simidx.compact.Hot");
  std::vector<SubscriberId> subs;
  for (int i = 0; i < 400; ++i) {
    const SubscriberId sub = index.add_subscriber();
    index.add_interest(sub, hot, 11);
    subs.push_back(sub);
  }
  // Remove enough for erase() to trip compaction (tombstones > live).
  for (int i = 0; i < 300; ++i) index.remove_subscriber(subs[i]);

  std::vector<SubscriberId> collected;
  ASSERT_EQ(index.collect_subscribers(hot, collected), 100u);
  // Subscription order of the survivors is preserved across compaction.
  EXPECT_EQ(collected, std::vector<SubscriberId>(subs.begin() + 300, subs.end()));
  index.epochs().try_reclaim();
}

TEST(InterestIndexTest, EquivalenceCandidatesGroupByFingerprint) {
  InterestIndex index;
  const SubscriberId sub = index.add_subscriber();
  const InternedName a = intern("simidx.fp.A");
  const InternedName b = intern("simidx.fp.B");
  const InternedName c = intern("simidx.fp.C");
  index.add_interest(sub, a, 0xAAAA);
  index.add_interest(sub, b, 0xAAAA);  // same structure, different name
  index.add_interest(sub, c, 0xCCCC);

  std::vector<InternedName> candidates;
  ASSERT_EQ(index.equivalence_candidates(0xAAAA, candidates), 2u);
  EXPECT_EQ(candidates, (std::vector<InternedName>{a, b}));
  candidates.clear();
  EXPECT_EQ(index.equivalence_candidates(0xBBBB, candidates), 0u);

  // The bucket empties when its last interest goes.
  index.remove_interest(sub, a);
  index.remove_interest(sub, b);
  candidates.clear();
  EXPECT_EQ(index.equivalence_candidates(0xAAAA, candidates), 0u);
}

TEST(InterestIndexTest, CollectMatchesReturnsSortedUnion) {
  InterestIndex index;
  const InternedName x = intern("simidx.union.X");
  const InternedName y = intern("simidx.union.Y");
  const SubscriberId s0 = index.add_subscriber();
  const SubscriberId s1 = index.add_subscriber();
  const SubscriberId s2 = index.add_subscriber();
  index.add_interest(s2, x, 1);
  index.add_interest(s0, x, 1);
  index.add_interest(s0, y, 2);
  index.add_interest(s1, y, 2);

  std::vector<SubscriberId> out;
  InterestIndex::MatchScratch scratch;
  // Accept both interests: s0 subscribes to both but appears once.
  ASSERT_EQ(index.collect_matches([](const InterestEntry&) { return true; }, out, scratch),
            3u);
  EXPECT_EQ(out, (std::vector<SubscriberId>{s0, s1, s2}));

  out.clear();
  ASSERT_EQ(index.collect_matches(
                [&](const InterestEntry& e) { return e.interest == y; }, out, scratch),
            2u);
  EXPECT_EQ(out, (std::vector<SubscriberId>{s0, s1}));
}

// The old publish fan-out, kept as the oracle for the bounded selection:
// gather every accepted posting, sort, dedupe, drop the publisher, keep
// the `cap` smallest.
std::vector<SubscriberId> sorted_fanout(const InterestIndex& index,
                                        const std::vector<InternedName>& accepted,
                                        SubscriberId publisher, std::size_t cap) {
  std::vector<SubscriberId> out;
  for (const InternedName interest : accepted) index.collect_subscribers(interest, out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  out.erase(std::remove(out.begin(), out.end(), publisher), out.end());
  if (out.size() > cap) out.resize(cap);
  return out;
}

// What Scenario::match_targets does on the index path: the cap + 1
// smallest matches, then the publisher dropped and the cap applied.
std::vector<SubscriberId> capped_fanout(const InterestIndex& index,
                                        const std::vector<InternedName>& accepted,
                                        SubscriberId publisher, std::size_t cap,
                                        InterestIndex::MatchScratch& scratch) {
  std::vector<SubscriberId> out;
  const std::size_t n = index.collect_matches(
      [&](const InterestEntry& e) {
        return std::find(accepted.begin(), accepted.end(), e.interest) != accepted.end();
      },
      out, scratch, cap + 1);
  // The selection itself: exactly the cap + 1 smallest of the union.
  std::vector<SubscriberId> smallest = sorted_fanout(index, accepted, transport::kNoSubscriber,
                                                     SIZE_MAX);
  if (smallest.size() > cap + 1) smallest.resize(cap + 1);
  EXPECT_EQ(out, smallest);
  EXPECT_EQ(n, out.size());
  out.erase(std::remove(out.begin(), out.end(), publisher), out.end());
  if (out.size() > cap) out.resize(cap);
  return out;
}

TEST(InterestIndexTest, CappedCollectMatchesEqualsSortUniqueTruncate) {
  std::vector<InternedName> names;
  for (int i = 0; i < 6; ++i) names.push_back(intern("simidx.cap.T" + std::to_string(i)));
  std::size_t reused_hits = 0, multi_hits = 0, publisher_hits = 0;
  std::size_t below = 0, at = 0, above = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    util::Rng rng(seed);
    InterestIndex index;
    std::vector<SubscriberId> live;
    const auto subscribe = [&](SubscriberId sub) {
      const std::size_t count = 1 + rng.next_below(3);
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t i = rng.next_below(names.size());
        index.add_interest(sub, names[i], i);
      }
      live.push_back(sub);
    };
    const std::size_t population = 40 + rng.next_below(400);
    for (std::size_t i = 0; i < population; ++i) subscribe(index.add_subscriber());
    // Churn: a third leave, half of those ids come back LIFO with fresh
    // interests, so reused ids sit among never-freed ones.
    std::vector<SubscriberId> reused;
    for (std::size_t i = 0; i < population / 3; ++i) {
      const std::size_t at_pos = rng.next_below(live.size());
      index.remove_subscriber(live[at_pos]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at_pos));
    }
    for (std::size_t i = 0; i < population / 6; ++i) {
      const SubscriberId sub = index.add_subscriber();
      reused.push_back(sub);
      subscribe(sub);
    }

    InterestIndex::MatchScratch scratch;
    for (int publish = 0; publish < 40; ++publish) {
      std::vector<InternedName> accepted;
      for (const InternedName name : names) {
        if (rng.next_bool(0.4)) accepted.push_back(name);
      }
      const std::vector<SubscriberId> all =
          sorted_fanout(index, accepted, transport::kNoSubscriber, SIZE_MAX);
      // The cap just below, at and above the match count, plus small and
      // huge ones; the publisher is one of the smallest matches half the
      // time, otherwise any live subscriber.
      const std::size_t caps[] = {all.empty() ? 0 : all.size() - 1, all.size(),
                                  all.size() + 1, rng.next_below(8), 64};
      for (const std::size_t cap : caps) {
        const SubscriberId publisher =
            !all.empty() && rng.next_bool(0.5)
                ? all[rng.next_below(std::min<std::size_t>(all.size(), cap + 1))]
                : live[rng.next_below(live.size())];
        const std::vector<SubscriberId> expected =
            sorted_fanout(index, accepted, publisher, cap);
        ASSERT_EQ(capped_fanout(index, accepted, publisher, cap, scratch), expected)
            << "seed " << seed << " publish " << publish << " cap " << cap;
        for (const std::uint64_t word : scratch.marks) ASSERT_EQ(word, 0u);

        below += all.size() < cap;
        at += all.size() == cap;
        above += all.size() > cap;
        const auto kept =
            all.begin() + static_cast<std::ptrdiff_t>(std::min(all.size(), cap + 1));
        publisher_hits += std::find(all.begin(), kept, publisher) != kept;
        for (const SubscriberId sub : expected) {
          reused_hits += std::find(reused.begin(), reused.end(), sub) != reused.end();
          const auto* held = index.interests_of(sub);
          std::size_t matched = 0;
          for (const InterestEntry& e : *held) {
            matched +=
                std::find(accepted.begin(), accepted.end(), e.interest) != accepted.end();
          }
          multi_hits += matched > 1;
        }
      }
      // An unbounded call is the whole sorted union.
      std::vector<SubscriberId> unbounded;
      index.collect_matches(
          [&](const InterestEntry& e) {
            return std::find(accepted.begin(), accepted.end(), e.interest) != accepted.end();
          },
          unbounded, scratch);
      ASSERT_EQ(unbounded, all);
    }
    index.epochs().try_reclaim();
  }
  // The corpus reached every shape the selection must get right.
  EXPECT_GT(reused_hits, 0u);
  EXPECT_GT(multi_hits, 0u);
  EXPECT_GT(publisher_hits, 0u);
  EXPECT_GT(below, 0u);
  EXPECT_GT(at, 0u);
  EXPECT_GT(above, 0u);
}

// The TSan target: writers churn subscriptions on a shared index while
// pinned readers walk snapshots and an epoch thread reclaims. Run under
// the tsan preset this asserts the epoch invariant (pinned readers never
// touch freed storage); under plain builds it is a liveness smoke.
TEST(InterestIndexTest, ConcurrentChurnWithPinnedReaders) {
  InterestIndex index;
  const int kInterests = 8;
  std::vector<InternedName> names;
  for (int i = 0; i < kInterests; ++i) {
    names.push_back(intern("simidx.churn.T" + std::to_string(i)));
  }

  std::vector<std::thread> threads;
  threads.reserve(6);
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      util::Rng rng(100 + w);
      for (int round = 0; round < 400; ++round) {
        const SubscriberId sub = index.add_subscriber();
        for (int i = 0; i < kInterests; ++i) {
          if (rng.next_bool(0.5)) {
            index.add_interest(sub, names[i], static_cast<std::uint64_t>(i));
          }
        }
        if (rng.next_bool(0.3)) {
          index.remove_interest(sub, names[rng.next_below(kInterests)]);
        }
        index.remove_subscriber(sub);
      }
    });
  }
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      std::vector<SubscriberId> subs;
      std::vector<InternedName> interests;
      for (int round = 0; round < 600; ++round) {
        util::EpochManager::Pin pin(index.epochs());
        subs.clear();
        index.collect_subscribers(names[round % kInterests], subs);
        interests.clear();
        index.collect_interests(interests);
        for (const SubscriberId sub : subs) {
          if (const auto* held = index.interests_of(sub)) {
            for (const InterestEntry& e : *held) ASSERT_TRUE(e.interest.valid());
          }
        }
        (void)r;
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 200; ++i) index.epochs().try_reclaim();
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(index.subscriber_count(), 0u);
  EXPECT_EQ(index.entry_count(), 0u);
  index.epochs().try_reclaim();
}

// --- Scenario determinism ----------------------------------------------------

ScenarioConfig small_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.peers = 400;
  config.types = 24;
  config.type_groups = 6;
  config.fanout_cap = 32;
  return config;
}

TEST(ScenarioDeterminism, SameSeedByteIdenticalDigests) {
  const ScenarioScript script = ScenarioScript::standard(400);
  const ScenarioResult first = sim::run_scenario(small_config(7), script);
  const ScenarioResult second = sim::run_scenario(small_config(7), script);
  EXPECT_EQ(first.trace_digest, second.trace_digest);
  EXPECT_EQ(first.accept_digest, second.accept_digest);
  EXPECT_EQ(first.stats_digest, second.stats_digest);
  EXPECT_EQ(first.stats.net_bytes, second.stats.net_bytes);

  // The run did real work in every dimension the digest covers.
  EXPECT_GT(first.stats.publishes, 0u);
  EXPECT_GT(first.stats.accepts, 0u);
  EXPECT_GT(first.stats.rejects, 0u);
  EXPECT_GT(first.stats.leaves, 0u);
  EXPECT_GT(first.stats.partitions, 0u);
  EXPECT_EQ(first.stats.heals, first.stats.partitions);
}

TEST(ScenarioDeterminism, DifferentSeedDiverges) {
  const ScenarioScript script = ScenarioScript::standard(400);
  const ScenarioResult a = sim::run_scenario(small_config(7), script);
  const ScenarioResult b = sim::run_scenario(small_config(8), script);
  EXPECT_NE(a.trace_digest, b.trace_digest);
}

// Independent scenarios on four host threads, all interning into the one
// global symbol table concurrently, must each reproduce the single-threaded
// digest — i.e. digests must not depend on raw interned-id values.
TEST(ScenarioDeterminism, HostThreadCountInvariant) {
  const ScenarioScript script = ScenarioScript::standard(400);
  const ScenarioResult reference = sim::run_scenario(small_config(11), script);

  std::vector<ScenarioResult> results(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(
        [&, t] { results[t] = sim::run_scenario(small_config(11), script); });
  }
  for (std::thread& t : threads) t.join();
  for (const ScenarioResult& result : results) {
    EXPECT_EQ(result.trace_digest, reference.trace_digest);
    EXPECT_EQ(result.accept_digest, reference.accept_digest);
    EXPECT_EQ(result.stats_digest, reference.stats_digest);
  }
}

// A dense little population (60 peers, 30 partitioned pairs) makes storms
// reliably cross live partitions, so the drop path is exercised — and must
// replay byte-identically like everything else.
TEST(ScenarioDeterminism, ChurnAndPartitionWavesReplay) {
  ScenarioConfig config;
  config.seed = 13;
  config.peers = 60;
  config.types = 8;
  config.type_groups = 2;
  config.fanout_cap = 16;
  ScenarioScript script;
  script.churn(20, 10)
      .partition_wave(30, 10'000'000)
      .publish_storm(200)
      .settle(20'000'000)
      .churn(5, 5)
      .publish_storm(50);
  const ScenarioResult a = sim::run_scenario(config, script);
  const ScenarioResult b = sim::run_scenario(config, script);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.stats_digest, b.stats_digest);
  EXPECT_EQ(a.stats.leaves, 25u);
  EXPECT_EQ(a.stats.joins, 60u + 15u);
  EXPECT_EQ(a.stats.partitions, 30u);
  EXPECT_EQ(a.stats.heals, 30u);
  EXPECT_GT(a.stats.drops, 0u);  // the storm overlapped live partitions
}

// Known answers for batched session mode, recorded from the string-keyed,
// sort-based implementation this one replaced: the bounded fan-out, the
// index-keyed session bits and the grouped flush must leave every frame
// byte-identical (the stats digest folds net bytes and messages). The
// second universe has 130 families, so session bits span three words.
TEST(ScenarioDeterminism, BatchedSessionKnownAnswers) {
  struct KnownAnswer {
    std::uint64_t seed;
    std::size_t peers, types, groups, cap, batch;
    std::uint64_t trace, accept, stats, net_bytes;
  };
  const KnownAnswer answers[] = {
      {13, 60, 8, 2, 16, 4, 0x7bcf22cb5d0776c8ULL, 0x5ab3f920c9f054f5ULL,
       0xfa3f332b95a88fe4ULL, 731783},
      {7, 400, 130, 6, 32, 8, 0x01ed7a4e7cb3f846ULL, 0xe1052fa7eac9e610ULL,
       0x07dcc84d730527c2ULL, 5076884},
  };
  for (const KnownAnswer& k : answers) {
    ScenarioConfig config;
    config.seed = k.seed;
    config.peers = k.peers;
    config.types = k.types;
    config.type_groups = k.groups;
    config.fanout_cap = k.cap;
    config.use_sessions = true;
    config.session_batch = k.batch;
    const ScenarioResult r = sim::run_scenario(config, ScenarioScript::standard(k.peers));
    EXPECT_EQ(r.trace_digest, k.trace) << "seed " << k.seed;
    EXPECT_EQ(r.accept_digest, k.accept) << "seed " << k.seed;
    EXPECT_EQ(r.stats_digest, k.stats) << "seed " << k.seed;
    EXPECT_EQ(r.stats.net_bytes, k.net_bytes) << "seed " << k.seed;
    EXPECT_GT(r.stats.session_batch_entries, r.stats.session_batch_frames);
  }
}

// --- Protocol-mode and matching-path equivalence -----------------------------

TEST(ScenarioEquivalence, EagerAndOptimisticAgreeOnEveryVerdict) {
  const ScenarioScript script = ScenarioScript::standard(1000);
  ScenarioConfig config;
  config.seed = 21;
  config.peers = 1000;
  config.mode = transport::ProtocolMode::Optimistic;
  const ScenarioResult optimistic = sim::run_scenario(config, script);
  config.mode = transport::ProtocolMode::Eager;
  const ScenarioResult eager = sim::run_scenario(config, script);

  // Same seed, same universe, same matrix: identical accept/reject stream.
  EXPECT_EQ(optimistic.accept_digest, eager.accept_digest);
  EXPECT_EQ(optimistic.stats.accepts, eager.stats.accepts);
  EXPECT_EQ(optimistic.stats.rejects, eager.stats.rejects);

  // The paper's claim, end to end: optimistic rejections skip the type
  // bundle, so the same verdicts cost fewer wire bytes.
  EXPECT_GT(optimistic.stats.rejects, 0u);
  EXPECT_LT(optimistic.stats.net_bytes, eager.stats.net_bytes);
  EXPECT_GT(optimistic.stats.typeinfo_requests, 0u);
  EXPECT_EQ(eager.stats.typeinfo_requests, 0u);
}

// Both matching paths must produce identical runs, cold and in batched
// session mode (where the capped fan-out also feeds the index-keyed
// session state and the grouped flush).
TEST(ScenarioEquivalence, InvertedIndexAndPerPeerScanProduceIdenticalRuns) {
  const ScenarioScript script = ScenarioScript::standard(600);
  for (const bool batched : {false, true}) {
    ScenarioConfig config;
    config.seed = 23;
    config.peers = 600;
    config.use_sessions = batched;
    config.session_batch = batched ? 16 : 1;
    config.use_inverted_index = true;
    const ScenarioResult indexed = sim::run_scenario(config, script);
    config.use_inverted_index = false;
    const ScenarioResult scanned = sim::run_scenario(config, script);

    EXPECT_EQ(indexed.trace_digest, scanned.trace_digest) << "batched " << batched;
    EXPECT_EQ(indexed.accept_digest, scanned.accept_digest) << "batched " << batched;
    EXPECT_EQ(indexed.stats_digest, scanned.stats_digest) << "batched " << batched;
    EXPECT_EQ(indexed.stats.session_batch_frames > 0, batched);

    // The cap bound: without it the same script delivers more.
    config.use_inverted_index = true;
    config.fanout_cap = SIZE_MAX;
    const ScenarioResult uncapped = sim::run_scenario(config, script);
    EXPECT_GT(uncapped.stats.deliveries, indexed.stats.deliveries) << "batched " << batched;
  }
}

TEST(ScenarioEquivalence, SessionModeAgreesWhileWireCostCollapses) {
  // A deliberately small, churn-heavy population so sender/receiver pairs
  // repeat a lot: that is where the session layer earns its keep. The
  // verdict/accept stream must be byte-identical to the non-session run —
  // sessions change how metadata travels, never what is decided — while
  // the exchange count and wire bytes drop (intros piggyback inline, so
  // the nested TypeInfoRequest traffic disappears entirely).
  ScenarioScript script;
  script.publish_storm(1500).churn(4, 4).publish_storm(1000).settle(5'000'000);
  ScenarioConfig config;
  config.seed = 29;
  config.peers = 16;
  config.types = 8;
  config.mode = transport::ProtocolMode::Optimistic;
  config.use_sessions = false;
  const ScenarioResult cold = sim::run_scenario(config, script);
  config.use_sessions = true;
  const ScenarioResult session = sim::run_scenario(config, script);

  EXPECT_EQ(session.accept_digest, cold.accept_digest);
  EXPECT_EQ(session.stats.accepts, cold.stats.accepts);
  EXPECT_EQ(session.stats.rejects, cold.stats.rejects);
  EXPECT_EQ(session.stats.deliveries, cold.stats.deliveries);
  EXPECT_EQ(session.stats.drops, cold.stats.drops);

  // The collapse: same verdicts, strictly fewer exchanges and bytes.
  EXPECT_GT(cold.stats.typeinfo_requests, 0u);
  EXPECT_EQ(session.stats.typeinfo_requests, 0u);
  EXPECT_LT(session.stats.net_messages, cold.stats.net_messages);
  EXPECT_LT(session.stats.net_bytes, cold.stats.net_bytes);

  // Determinism holds in session mode too: same seed, same digests.
  const ScenarioResult replay = sim::run_scenario(config, script);
  EXPECT_EQ(replay.trace_digest, session.trace_digest);
  EXPECT_EQ(replay.accept_digest, session.accept_digest);
  EXPECT_EQ(replay.stats_digest, session.stats_digest);
}

// Batched session mode regroups the wire — SessionBatch frames carry many
// pushes per (publisher, target) pair — but must NOT regroup the verdict
// stream: the accept digest folds per delivery in original order and has
// to land byte-identical to both the unbatched session run and the cold
// run, across churn, partitions and heals (windows close before every
// state-changing event).
TEST(ScenarioEquivalence, BatchedSessionsReproduceTheVerdictStream) {
  ScenarioScript script;
  script.publish_storm(1200)
      .churn(4, 4)
      .partition_wave(6, 400'000)
      .publish_storm(900)
      .settle(5'000'000)
      .publish_storm(400);
  ScenarioConfig config;
  config.seed = 31;
  config.peers = 24;
  config.types = 12;
  config.type_groups = 4;
  config.fanout_cap = 16;
  config.use_sessions = false;
  const ScenarioResult cold = sim::run_scenario(config, script);
  config.use_sessions = true;
  const ScenarioResult session = sim::run_scenario(config, script);
  config.session_batch = 8;
  const ScenarioResult batched = sim::run_scenario(config, script);

  EXPECT_EQ(batched.accept_digest, session.accept_digest);
  EXPECT_EQ(batched.accept_digest, cold.accept_digest);
  EXPECT_EQ(batched.stats.accepts, cold.stats.accepts);
  EXPECT_EQ(batched.stats.rejects, cold.stats.rejects);
  EXPECT_EQ(batched.stats.deliveries, cold.stats.deliveries);
  EXPECT_EQ(batched.stats.drops, cold.stats.drops);

  // The batching was real: frames carried more entries than frames, and
  // every deferred delivery went out through a batch frame.
  EXPECT_GT(batched.stats.session_batch_frames, 0u);
  EXPECT_GT(batched.stats.session_batch_entries, batched.stats.session_batch_frames);
  EXPECT_EQ(session.stats.session_batch_frames, 0u);
  // Fewer frames on the wire than unbatched session mode sent messages.
  EXPECT_LT(batched.stats.net_messages, session.stats.net_messages);
  EXPECT_LE(batched.stats.net_bytes, session.stats.net_bytes);

  // Determinism holds under batching: same seed, same digests.
  const ScenarioResult replay = sim::run_scenario(config, script);
  EXPECT_EQ(replay.trace_digest, batched.trace_digest);
  EXPECT_EQ(replay.accept_digest, batched.accept_digest);
  EXPECT_EQ(replay.stats_digest, batched.stats_digest);
}

// The shared-intro pay-off at population scale: a 16k-peer cold-heavy
// storm (almost every (sender, target) pair is first contact) used to be
// the session layer's worst case — every pair re-shipped the description
// XML the receiver already held. With receivers advertising description
// hashes and senders consulting the hub registry, a hot description
// crosses once per RECEIVER, so batched session bytes drop below even the
// cold protocol (which pays a TypeInfoRequest round trip per receiver).
TEST(ScenarioEquivalence, SharedIntrosBeatColdOnAColdHeavyStorm) {
  const std::size_t peers = env_u64("PTI_SIM_BATCH_PEERS", 16384);
  ScenarioScript script;
  script.publish_storm(2500);
  ScenarioConfig config;
  config.seed = 37;
  config.peers = peers;
  config.types = 64;
  config.type_groups = 16;
  config.fanout_cap = 16;
  config.use_sessions = false;
  const ScenarioResult cold = sim::run_scenario(config, script);
  config.use_sessions = true;
  config.session_batch = 16;
  const ScenarioResult batched = sim::run_scenario(config, script);

  EXPECT_EQ(batched.accept_digest, cold.accept_digest);
  EXPECT_EQ(batched.stats.accepts, cold.stats.accepts);
  EXPECT_EQ(batched.stats.rejects, cold.stats.rejects);
  EXPECT_GT(batched.stats.session_batch_frames, 0u);
  EXPECT_LE(batched.stats.net_bytes, cold.stats.net_bytes);
  EXPECT_LT(batched.stats.net_messages, cold.stats.net_messages);
  ::testing::Test::RecordProperty("cold_bytes", std::to_string(cold.stats.net_bytes));
  ::testing::Test::RecordProperty("session_bytes",
                                  std::to_string(batched.stats.net_bytes));
}

// Receiver session state is keyed by the push's token (the sender's index
// + 1). An intro under a token that names no peer index cannot be kept, so
// the push is answered with a Reset; under the largest token in range the
// binding is kept and a later intro-less push on it is decided normally.
// The 70-family universe puts the pushed type in the second bit word.
TEST(LightweightPeerSessions, TokenOutsideThePeerIndexRangeNamesNoSession) {
  ScenarioConfig config;
  config.seed = 3;
  config.peers = 4;
  config.types = 70;
  config.use_sessions = true;
  Scenario scenario(config);
  sim::TypeUniverse& universe = scenario.universe();
  const std::uint32_t family = 69;
  scenario.network().attach("outsider", [&](const transport::Message& request) {
    transport::CodeResponse code;
    code.assembly_name = std::get<transport::CodeRequest>(request.payload).assembly_name;
    code.found = true;
    code.code_bytes = universe.assembly_code_size(family);
    return transport::Message{"outsider", request.sender, std::move(code)};
  });

  transport::SessionPush push;
  push.wire_types = {family + 1};
  push.encoding = universe.payload_encoding();
  push.payload = universe.payload_bytes(family);
  transport::SessionIntro intro;
  intro.wire_id = family + 1;
  intro.type_name = universe.publisher_type_name(family);
  intro.description_xml = universe.description_xml(family);
  intro.assembly_name = universe.assembly_name(family);
  push.intros.push_back(intro);
  const auto send = [&](const transport::SessionPush& p) {
    const transport::Message response =
        scenario.network().send(transport::Message{"outsider", "p1", p});
    const auto* ack = std::get_if<transport::SessionAck>(&response.payload);
    EXPECT_NE(ack, nullptr) << response.kind_name();
    return ack != nullptr ? ack->status : transport::SessionStatus::Reset;
  };

  for (const std::uint64_t token : {std::uint64_t{0}, (std::uint64_t{1} << 32) + 1,
                                    ~std::uint64_t{0}}) {
    push.token = token;
    EXPECT_EQ(send(push), transport::SessionStatus::Reset) << "token " << token;
  }
  push.token = std::uint64_t{1} << 32;
  EXPECT_EQ(send(push), transport::SessionStatus::Ok);
  push.intros.clear();
  EXPECT_EQ(send(push), transport::SessionStatus::Ok);
  push.token = 2;  // a different session never saw the intro
  EXPECT_EQ(send(push), transport::SessionStatus::Reset);
}

// --- Scale gate --------------------------------------------------------------

// Env knobs:
//   PTI_SIM_PEERS  population size (default 3000; smoke 10^4; soak 10^5+)
//   PTI_SIM_RUNS   determinism repetitions (default 2; every run must match)
//   PTI_SIM_SEED   scenario seed (default 42)
// Each run also replays the script in the perfbench storm's batched mode
// (sessions, windows of 16): its accept digest must equal the cold run's,
// and its own digests must repeat across runs.
TEST(SimScale, PopulationScenario) {
  const std::size_t peers = env_u64("PTI_SIM_PEERS", 3000);
  const std::size_t runs = std::max<std::uint64_t>(env_u64("PTI_SIM_RUNS", 2), 1);
  ScenarioConfig config;
  config.seed = env_u64("PTI_SIM_SEED", 42);
  config.peers = peers;
  config.types = 64;
  config.type_groups = 16;
  ScenarioConfig batched_config = config;
  batched_config.use_sessions = true;
  batched_config.session_batch = 16;
  const ScenarioScript script = ScenarioScript::standard(peers);

  ScenarioResult reference;
  ScenarioResult batched_reference;
  for (std::size_t run = 0; run < runs; ++run) {
    const ScenarioResult result = sim::run_scenario(config, script);
    const ScenarioResult batched = sim::run_scenario(batched_config, script);
    EXPECT_EQ(batched.accept_digest, result.accept_digest) << "run " << run;
    EXPECT_EQ(batched.stats.deliveries, result.stats.deliveries) << "run " << run;
    if (run == 0) {
      batched_reference = batched;
      EXPECT_GT(batched.stats.session_batch_frames, 0u);
      reference = result;
      EXPECT_GE(result.stats.index_subscribers, peers - peers / 10);
      EXPECT_GT(result.stats.accepts, 0u);
      EXPECT_GT(result.stats.rejects, 0u);
      EXPECT_GT(result.stats.net_bytes, 0u);
      ::testing::Test::RecordProperty("peers", static_cast<int>(peers));
      ::testing::Test::RecordProperty(
          "net_messages", std::to_string(result.stats.net_messages));
      ::testing::Test::RecordProperty("trace_digest",
                                      std::to_string(result.trace_digest));
    } else {
      EXPECT_EQ(result.trace_digest, reference.trace_digest) << "run " << run;
      EXPECT_EQ(result.accept_digest, reference.accept_digest) << "run " << run;
      EXPECT_EQ(result.stats_digest, reference.stats_digest) << "run " << run;
      EXPECT_EQ(batched.trace_digest, batched_reference.trace_digest) << "run " << run;
      EXPECT_EQ(batched.stats_digest, batched_reference.stats_digest) << "run " << run;
    }
  }
}

}  // namespace
}  // namespace pti
