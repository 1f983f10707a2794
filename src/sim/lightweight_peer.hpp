// LightweightPeer — a full protocol participant at population weight.
//
// Where transport::Peer carries a Domain, checker, serializer registry,
// proxy factory and per-peer caches (~tens of KB plus per-message XML
// work), a LightweightPeer carries two bitsets and a counter block
// (~hundreds of bytes), which is what makes 10^5-10^6 of them tractable.
// Session state per peer pair is keyed by the other peer's index (a table
// slot plus one word per 64 families), never by its name string.
// What it does NOT lighten is the protocol: it attaches to the same
// Transport seam, exchanges the same ObjectPush/TypeInfoRequest/
// CodeRequest messages with real envelope bytes and real description XML
// crossing the (simulated) wire, registers interests in the same shared
// InterestIndex, and matches via the same match_first scan Peer uses.
// The differences are all precomputation, delegated to TypeUniverse:
//   * pushed-type resolution is a content-hash probe, not an XML parse;
//   * the conformance verdict is a matrix probe, not a checker run (the
//     matrix was filled by the real checker, once);
//   * "known descriptions" and "loaded assemblies" are bitsets over the
//     universe's families instead of registry/domain state.
//
// Optimistic mode fetches descriptions and code on demand and skips the
// code fetch entirely on rejection — the paper's saving. Eager mode ships
// both with every push. The accept/reject decisions are identical.
//
// Thread safety: none; drive from the owning scenario's event loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/type_universe.hpp"
#include "transport/interest_index.hpp"
#include "transport/intro_registry.hpp"
#include "transport/peer.hpp"
#include "transport/transport.hpp"
#include "util/dense_id_map.hpp"

namespace pti::sim {

/// Per-peer protocol counters (aggregated by the scenario's digests).
struct PeerCounters {
  std::uint64_t pushes_sent = 0;
  std::uint64_t pushes_received = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t typeinfo_requests = 0;
  std::uint64_t typeinfo_served = 0;
  std::uint64_t code_requests = 0;
  std::uint64_t code_served = 0;
  std::uint64_t code_bytes_fetched = 0;
};

/// Family bits per peer pair, keyed by the other peer's index: one 64-bit
/// word per 64 families per pair, every pair's words in one vector, so a
/// pair costs a table slot plus its words and no heap block of its own.
/// Rows are numbers, not pointers, and stay valid as rows are added.
class PairFamilyBits {
 public:
  static constexpr std::uint32_t kNoRow = util::DenseIdMap<std::uint32_t>::kNone;

  explicit PairFamilyBits(std::size_t families) : stride_((families + 63) / 64) {}

  /// Row of `peer`, added all-zero on first use.
  std::uint32_t row(std::uint32_t peer) {
    const std::uint32_t r = rows_.intern(peer);
    if ((r + 1) * stride_ > words_.size()) words_.resize((r + 1) * stride_);
    return r;
  }
  /// Row of `peer`, or kNoRow when it has none.
  [[nodiscard]] std::uint32_t find(std::uint32_t peer) const noexcept {
    return rows_.find(peer);
  }

  [[nodiscard]] bool test(std::uint32_t row, std::uint32_t family) const noexcept {
    return (words_[row * stride_ + family / 64] >> (family % 64) & 1) != 0;
  }
  void set(std::uint32_t row, std::uint32_t family) noexcept {
    words_[row * stride_ + family / 64] |= std::uint64_t{1} << (family % 64);
  }
  void clear(std::uint32_t row) noexcept {
    std::fill_n(words_.begin() + static_cast<std::ptrdiff_t>(row * stride_), stride_, 0);
  }

 private:
  std::size_t stride_;  ///< words per row
  util::DenseIdMap<std::uint32_t> rows_;
  std::vector<std::uint64_t> words_;
};

class LightweightPeer {
 public:
  static constexpr std::uint32_t kNoInterest = 0xFFFFFFFFu;

  LightweightPeer(std::uint32_t index, transport::Transport& network,
                  TypeUniverse& universe, transport::InterestIndex& interests,
                  transport::ProtocolMode mode, bool use_sessions = false,
                  transport::IntroRegistry* intro_registry = nullptr);
  ~LightweightPeer();
  LightweightPeer(const LightweightPeer&) = delete;
  LightweightPeer& operator=(const LightweightPeer&) = delete;

  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool live() const noexcept { return live_; }
  [[nodiscard]] transport::SubscriberId subscriber() const noexcept { return sub_; }

  /// The interest families this peer subscribes with (fixed across
  /// leave/rejoin, so churn is reversible and deterministic). Set before
  /// the first join().
  void set_interests(std::vector<std::uint32_t> interest_families);
  [[nodiscard]] const std::vector<std::uint32_t>& interest_families() const noexcept {
    return interest_families_;
  }

  /// Attaches to the network and registers every interest in the shared
  /// index (idempotent when live).
  void join();
  /// Detaches and unregisters; the subscriber id returns to the index's
  /// free list (reused LIFO — part of the determinism contract).
  void leave();

  struct PushOutcome {
    bool delivered = false;  ///< receiver accepted (a conformant interest)
    bool dropped = false;    ///< the network dropped or faulted the exchange
    /// Interest family the receiver matched (kNoInterest unless delivered).
    /// Filled by the session paths from the ack detail; the cold path
    /// reports it via the receiver's last_matched_interest() instead.
    std::uint32_t matched = kNoInterest;
  };
  /// Publishes family `family` to `target` (one full protocol exchange).
  PushOutcome publish_to(const LightweightPeer& target, std::uint32_t family);
  /// Publishes several families to `target` as ONE SessionBatch frame
  /// (session mode only). Entries are processed by the receiver in order
  /// and acked positionally; a Reset slot is replayed individually, so a
  /// refused entry never desynchronises the rest. Per-entry outcomes land
  /// in `out` (resized to match) in input order.
  void publish_batch_to(const LightweightPeer& target,
                        const std::vector<std::uint32_t>& families,
                        std::vector<PushOutcome>& out);

  /// Interest family matched by the most recent accepted push delivered
  /// TO this peer (kNoInterest when the last push was rejected). Valid
  /// between events on the single-threaded scenario loop.
  [[nodiscard]] std::uint32_t last_matched_interest() const noexcept {
    return last_matched_;
  }

  [[nodiscard]] const PeerCounters& counters() const noexcept { return counters_; }

 private:
  [[nodiscard]] transport::Message handle(const transport::Message& request);
  [[nodiscard]] transport::Message handle_push(const transport::Message& request,
                                               const transport::ObjectPush& push);
  [[nodiscard]] transport::Message handle_session_push(
      const transport::Message& request, const transport::SessionPush& push);
  [[nodiscard]] transport::Message handle_session_batch(
      const transport::Message& request, const transport::SessionBatch& batch);
  /// Receive-path core shared by single pushes and batch entries: learns
  /// intros, decides the verdict, advertises learned description hashes.
  [[nodiscard]] transport::SessionAck process_session_push(
      const std::string& sender, const transport::SessionPush& push);
  /// Builds one SessionPush for `family`; when `fresh`, attaches the intro
  /// (description bytes elided when the shared registry says `target`
  /// already advertised the hash).
  [[nodiscard]] transport::SessionPush build_session_entry(const std::string& target,
                                                           std::uint32_t family,
                                                           bool fresh);
  PushOutcome publish_session(const LightweightPeer& target, std::uint32_t family);

  std::uint32_t index_;
  std::string name_;
  transport::Transport& network_;
  TypeUniverse& universe_;
  transport::InterestIndex& interests_;
  transport::ProtocolMode mode_;

  bool live_ = false;
  transport::SubscriberId sub_ = transport::kNoSubscriber;
  std::vector<std::uint32_t> interest_families_;
  /// Families whose description / code this peer holds. Knowledge
  /// survives leave/rejoin (a rejoining peer keeps its caches), exactly
  /// like a real peer's registry.
  std::vector<bool> known_;
  std::vector<bool> loaded_;
  std::uint32_t last_matched_ = kNoInterest;
  PeerCounters counters_;

  /// Session mode: pushes travel as SessionPush frames (wire id = family
  /// index + 1, token = peer index + 1 — both scenario-local, digest-safe).
  /// Sender side tracks which families each target acknowledged an intro
  /// for (commit-on-ack), keyed by the target's index; receiver side
  /// mirrors which wire ids each sender introduced, keyed by the push's
  /// token − 1 (a token outside that range names no session: Reset). Both
  /// survive leave/rejoin, exactly like known_/loaded_.
  bool use_sessions_ = false;
  PairFamilyBits intro_sent_;
  PairFamilyBits session_known_;
  /// Scenario-shared intro registry (owned by the hub): receivers advertise
  /// description hashes in their acks; senders consult it to elide intro
  /// description bytes a target already holds. Byte-saving hint only —
  /// never consulted for a verdict.
  transport::IntroRegistry* intro_registry_ = nullptr;
};

}  // namespace pti::sim
