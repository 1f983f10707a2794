// InterestIndex — the shared inverted interest index every matching path
// goes through (PR 8).
//
// Before this index, interest matching was per-peer lists: each Peer kept
// a vector of interned interest ids and every inbound push scanned it.
// That shape is fine for two peers and collapses at population scale —
// a publish that must find "who is interested in type T" among 10^5-10^6
// subscribers cannot afford to walk every peer. The index inverts the
// relation once, for everyone:
//
//   interest id           -> posting list of SubscriberIds   (fan-out)
//   structural fingerprint-> interest ids in that bucket     (implicit-
//                            conformance/equivalence candidates)
//   SubscriberId          -> declaration-ordered interest entries (the
//                            receive-path scan Peer used to own)
//
// One instance is shared by every peer of a universe (AssemblyHub owns
// the real transports' instance; the megasim scenario owns its own), so
// the simulator and the real transports exercise ONE matching engine.
//
// Concurrency contract (the epoch invariant):
//  * Mutations — add/remove_subscriber, add/remove_interest — take the
//    interest's shard lock (and the subscriber mutex) exclusively. They
//    are append-mostly: posting lists grow in place; removal tombstones;
//    compaction and copy-on-write snapshots RETIRE the superseded storage
//    through a util::EpochManager instead of freeing it.
//  * Snapshot reads — interests_of(), match_first(), collect_subscribers(),
//    equivalence_candidates() — touch only atomically published immutable
//    snapshots (a directory of chunks with a published count, or a COW
//    vector). Readers hold an EpochManager::Pin for as long as they use a
//    snapshot; the three shipped transports already pin per message
//    exchange, and match_first()/interests_of() callers outside a
//    transport handler must pin themselves. A pinned reader can therefore
//    never observe freed memory, no matter how many subscribes,
//    unsubscribes and compactions run concurrently.
//  * Reads are weakly consistent by design: a collect that overlaps a
//    subscribe/unsubscribe may or may not include the affected entry —
//    exactly the guarantee a distributed interest registry can offer.
//
// Determinism: posting lists preserve insertion order (compaction keeps
// relative order), subscriber ids are dense and reused LIFO, and every
// "all interests" view is handed out sorted by interned id — so a
// deterministic caller (the megasim) gets byte-identical iteration from
// byte-identical histories.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "util/epoch.hpp"
#include "util/interning.hpp"

namespace pti::transport {

/// Dense identity of one subscriber (peer) within one InterestIndex.
/// Issued by add_subscriber(); freed ids are reused.
using SubscriberId = std::uint32_t;
inline constexpr SubscriberId kNoSubscriber = 0xFFFFFFFFu;

/// One registered interest of one subscriber: the interned qualified name
/// of the interest type plus its structural fingerprint (the bucket key
/// for implicit-conformance candidates).
struct InterestEntry {
  util::InternedName interest;
  std::uint64_t fingerprint = 0;
};

class InterestIndex {
 public:
  /// `epochs` is the manager superseded storage retires through; the
  /// process-global manager when null.
  explicit InterestIndex(util::EpochManager* epochs = nullptr);
  ~InterestIndex();
  InterestIndex(const InterestIndex&) = delete;
  InterestIndex& operator=(const InterestIndex&) = delete;

  // --- subscriber lifecycle --------------------------------------------

  /// Issues a dense subscriber id (reusing freed ids, LIFO).
  [[nodiscard]] SubscriberId add_subscriber();
  /// Unregisters every interest of `sub` and frees the id for reuse.
  void remove_subscriber(SubscriberId sub);
  [[nodiscard]] bool is_live(SubscriberId sub) const noexcept;

  // --- interest registration (append-mostly mutations) -----------------

  /// Registers `interest` for `sub` (idempotent per pair). `fingerprint`
  /// is the interest type's structural fingerprint.
  void add_interest(SubscriberId sub, util::InternedName interest, std::uint64_t fingerprint);
  /// Removes one interest of `sub`; returns whether it was registered.
  bool remove_interest(SubscriberId sub, util::InternedName interest);

  // --- snapshot reads (hold an EpochManager::Pin across use) -----------

  /// Declaration-ordered interests of `sub`: an immutable snapshot, valid
  /// for the duration of the caller's Pin (nullptr when none registered).
  [[nodiscard]] const std::vector<InterestEntry>* interests_of(SubscriberId sub) const noexcept;

  /// The receive-path matching engine Peer and the megasim share: the
  /// first interest of `sub`, in declaration order, accepted by `accept`.
  /// Takes its own Pin, so the snapshot outlives concurrent unsubscribes
  /// for the duration of the scan.
  [[nodiscard]] std::optional<InterestEntry> match_first(
      SubscriberId sub, const std::function<bool(const InterestEntry&)>& accept) const;

  /// Appends the live subscribers of `interest` in subscription order;
  /// returns how many were appended. Weakly consistent under concurrent
  /// mutation; exact at quiescent points.
  std::size_t collect_subscribers(util::InternedName interest,
                                  std::vector<SubscriberId>& out) const;

  /// Appends every interest id with at least one subscriber, sorted by id
  /// value (deterministic); returns how many were appended.
  std::size_t collect_interests(std::vector<util::InternedName>& out) const;

  /// Appends the subscribed interests whose structural fingerprint equals
  /// `fingerprint` — the implicit-conformance candidates structurally
  /// identical to a pushed type. A candidate still needs the checker's
  /// verdict (fingerprints are hashes: equal means "almost surely equal").
  std::size_t equivalence_candidates(std::uint64_t fingerprint,
                                     std::vector<util::InternedName>& out) const;

  /// Caller-owned scratch for collect_matches, reused across calls so a
  /// hot publisher loop allocates nothing once warm. `marks` holds one bit
  /// per SubscriberId; it grows lazily to the largest id ever collected
  /// and is all-zero between calls.
  struct MatchScratch {
    std::vector<util::InternedName> interests;
    std::vector<std::uint64_t> marks;
  };

  /// The publish-path fan-out: the union of subscribers over every live
  /// interest accepted by `accept`, ascending and deduplicated into `out`
  /// (cleared here), keeping only its `limit` smallest ids. The ids are
  /// marked in `scratch.marks` and read back in order, never sorted: the
  /// cost is O(collected ids + bitmap words). Returns |out|.
  std::size_t collect_matches(const std::function<bool(const InterestEntry&)>& accept,
                              std::vector<SubscriberId>& out, MatchScratch& scratch,
                              std::size_t limit = SIZE_MAX) const;

  /// The manager snapshot readers must pin — callers outside a transport
  /// handler bracket their use of interests_of()/collect results in an
  /// EpochManager::Pin on exactly this manager.
  [[nodiscard]] util::EpochManager& epochs() const noexcept { return epochs_; }

  // --- observability ----------------------------------------------------

  [[nodiscard]] std::size_t subscriber_count() const noexcept;
  /// Distinct interests with at least one live subscriber.
  [[nodiscard]] std::size_t interest_count() const;
  /// Total live (subscriber, interest) registrations.
  [[nodiscard]] std::size_t entry_count() const noexcept;

 private:
  // ---- lock-free-readable posting list of u32 values -------------------
  //
  // Chunked append-only storage: a Dir holds atomic chunk pointers and a
  // published count; appends write the slot, then publish count with a
  // release store. Removal tombstones the slot. When tombstones dominate,
  // compaction builds a fresh Dir (+chunks) preserving order and retires
  // the old through the epoch manager; growth copies chunk POINTERS into
  // a larger Dir and retires only the old Dir shell.
  class PostingList {
   public:
    static constexpr std::uint32_t kChunkSize = 128;
    static constexpr std::uint32_t kTombstone = 0xFFFFFFFFu;

    PostingList() = default;
    ~PostingList();
    PostingList(const PostingList&) = delete;
    PostingList& operator=(const PostingList&) = delete;

    /// Mutations: caller holds the owning shard's exclusive lock.
    void append(std::uint32_t value, util::EpochManager& em);
    bool erase(std::uint32_t value, util::EpochManager& em);

    /// Snapshot read (caller pinned): appends live values in insertion
    /// order; returns how many were appended.
    std::size_t collect(std::vector<std::uint32_t>& out) const;
    /// Snapshot read (caller pinned): sets bit v of `bits` for every live
    /// value v, growing `bits` as needed; raises `words_used` to cover the
    /// highest word set.
    void mark(std::vector<std::uint64_t>& bits, std::size_t& words_used) const;
    /// Snapshot read (caller pinned): first live value accepted by `fn`.
    void for_each(const std::function<bool(std::uint32_t)>& fn) const;

    [[nodiscard]] std::uint32_t live() const noexcept {
      return live_.load(std::memory_order_relaxed);
    }

   private:
    struct Chunk {
      std::array<std::atomic<std::uint32_t>, kChunkSize> slots;
    };
    struct Dir {
      explicit Dir(std::uint32_t chunk_capacity);
      ~Dir();
      std::uint32_t chunk_capacity;
      /// Slots published to readers (always <= filled chunk space).
      std::atomic<std::uint32_t> count{0};
      /// Whether ~Dir owns (frees) the chunks — set on the CURRENT dir
      /// and on compaction-retired dirs; growth-retired dirs share their
      /// chunks with the successor and must not free them.
      bool owns_chunks = true;
      std::unique_ptr<std::atomic<Chunk*>[]> chunks;
    };

    [[nodiscard]] Dir* ensure_capacity(std::uint32_t needed_slots, util::EpochManager& em);
    void compact(util::EpochManager& em);

    std::atomic<Dir*> dir_{nullptr};
    std::atomic<std::uint32_t> live_{0};
    std::uint32_t tombstones_ = 0;  ///< mutator-side only (under shard lock)
  };

  // ---- inverted map + fingerprint buckets, sharded by interest id ------

  struct Posting {
    std::uint64_t fingerprint = 0;
    PostingList subscribers;
  };

  static constexpr std::size_t kShardCount = 16;
  struct Shard {
    mutable std::shared_mutex mutex;
    /// interest id -> posting. Append-only: a posting whose last
    /// subscriber leaves stays (empty) so readers never hold a dangling
    /// Posting*; churn re-adding the interest reuses it.
    std::unordered_map<util::InternedName, std::unique_ptr<Posting>> postings;
  };
  struct BucketShard {
    mutable std::shared_mutex mutex;
    /// structural fingerprint -> interest ids currently subscribed.
    std::unordered_map<std::uint64_t, std::unique_ptr<PostingList>> buckets;
  };

  [[nodiscard]] static std::size_t shard_of(util::InternedName interest) noexcept {
    return (interest.value() * 0x9E3779B9u >> 16) & (kShardCount - 1);
  }
  [[nodiscard]] static std::size_t bucket_shard_of(std::uint64_t fp) noexcept {
    return static_cast<std::size_t>((fp ^ (fp >> 32)) & (kShardCount - 1));
  }

  /// Posting for `interest`, or nullptr. Shared shard lock for the map
  /// probe only; the returned pointer is stable (postings are append-only).
  [[nodiscard]] const Posting* find_posting(util::InternedName interest) const;

  /// Adds/removes `interest` to its fingerprint bucket. Called AFTER the
  /// interest's posting shard lock has been released (all writers are
  /// serialized by subscriber_mutex_, which orders bucket membership
  /// transitions); takes the bucket shard lock inside. No shard mutex is
  /// ever held while acquiring another — there is no lock nesting below
  /// subscriber_mutex_.
  void bucket_add(std::uint64_t fingerprint, util::InternedName interest);
  void bucket_remove(std::uint64_t fingerprint, util::InternedName interest);

  // ---- subscriber slots (dense ids, chunked stable storage) ------------

  static constexpr std::uint32_t kSlotChunkSize = 1024;
  static constexpr std::uint32_t kMaxSlotChunks = 4096;  ///< 4M subscribers
  struct SubscriberSlot {
    /// COW snapshot of the declaration-ordered interests; retired on
    /// every update. nullptr == no interests.
    std::atomic<const std::vector<InterestEntry>*> interests{nullptr};
    std::atomic<bool> live{false};
  };
  struct SlotChunk {
    std::array<SubscriberSlot, kSlotChunkSize> slots;
  };

  [[nodiscard]] SubscriberSlot* slot_of(SubscriberId sub) const noexcept;

  util::EpochManager& epochs_;
  std::array<Shard, kShardCount> shards_;
  std::array<BucketShard, kShardCount> bucket_shards_;

  mutable std::mutex subscriber_mutex_;
  std::array<std::atomic<SlotChunk*>, kMaxSlotChunks> slot_chunks_{};
  std::uint32_t slot_high_water_ = 0;     ///< under subscriber_mutex_
  std::vector<SubscriberId> free_ids_;    ///< under subscriber_mutex_
  std::atomic<std::size_t> subscribers_{0};
  std::atomic<std::size_t> entries_{0};
};

}  // namespace pti::transport
