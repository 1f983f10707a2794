#include "transport/interest_index.hpp"

#include <algorithm>
#include <bit>

#include "transport/transport_error.hpp"
#include "util/error.hpp"

namespace pti::transport {

// ---------------------------------------------------------------------------
// PostingList
// ---------------------------------------------------------------------------

InterestIndex::PostingList::Dir::Dir(std::uint32_t capacity)
    : chunk_capacity(capacity), chunks(new std::atomic<Chunk*>[capacity]) {
  for (std::uint32_t i = 0; i < capacity; ++i) chunks[i].store(nullptr, std::memory_order_relaxed);
}

InterestIndex::PostingList::Dir::~Dir() {
  if (!owns_chunks) return;
  for (std::uint32_t i = 0; i < chunk_capacity; ++i) {
    delete chunks[i].load(std::memory_order_relaxed);
  }
}

InterestIndex::PostingList::~PostingList() { delete dir_.load(std::memory_order_relaxed); }

InterestIndex::PostingList::Dir* InterestIndex::PostingList::ensure_capacity(
    std::uint32_t needed_slots, util::EpochManager& em) {
  Dir* dir = dir_.load(std::memory_order_relaxed);
  const std::uint32_t needed_chunks = (needed_slots + kChunkSize - 1) / kChunkSize;
  if (dir != nullptr && needed_chunks <= dir->chunk_capacity) return dir;
  const std::uint32_t capacity =
      std::max<std::uint32_t>({4, needed_chunks, dir ? dir->chunk_capacity * 2 : 0});
  Dir* grown = new Dir(capacity);
  if (dir != nullptr) {
    for (std::uint32_t i = 0; i < dir->chunk_capacity; ++i) {
      grown->chunks[i].store(dir->chunks[i].load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    }
    grown->count.store(dir->count.load(std::memory_order_relaxed), std::memory_order_relaxed);
    // The successor now references the same chunks: the retired shell must
    // not free them when its epoch expires.
    dir->owns_chunks = false;
  }
  dir_.store(grown, std::memory_order_release);
  if (dir != nullptr) em.retire(dir);
  return grown;
}

void InterestIndex::PostingList::append(std::uint32_t value, util::EpochManager& em) {
  Dir* dir = dir_.load(std::memory_order_relaxed);
  const std::uint32_t slot = dir ? dir->count.load(std::memory_order_relaxed) : 0;
  dir = ensure_capacity(slot + 1, em);
  const std::uint32_t chunk_idx = slot / kChunkSize;
  Chunk* chunk = dir->chunks[chunk_idx].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Chunk();
    for (auto& s : chunk->slots) s.store(kTombstone, std::memory_order_relaxed);
    dir->chunks[chunk_idx].store(chunk, std::memory_order_release);
  }
  chunk->slots[slot % kChunkSize].store(value, std::memory_order_relaxed);
  dir->count.store(slot + 1, std::memory_order_release);
  live_.fetch_add(1, std::memory_order_relaxed);
}

bool InterestIndex::PostingList::erase(std::uint32_t value, util::EpochManager& em) {
  Dir* dir = dir_.load(std::memory_order_relaxed);
  if (dir == nullptr) return false;
  const std::uint32_t n = dir->count.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < n; ++i) {
    Chunk* chunk = dir->chunks[i / kChunkSize].load(std::memory_order_relaxed);
    auto& cell = chunk->slots[i % kChunkSize];
    if (cell.load(std::memory_order_relaxed) != value) continue;
    cell.store(kTombstone, std::memory_order_relaxed);
    live_.fetch_sub(1, std::memory_order_relaxed);
    ++tombstones_;
    // Compact once tombstones dominate, so churn cannot grow a posting
    // list beyond ~2x its live population.
    if (tombstones_ >= kChunkSize && tombstones_ > live()) compact(em);
    return true;
  }
  return false;
}

void InterestIndex::PostingList::compact(util::EpochManager& em) {
  Dir* old_dir = dir_.load(std::memory_order_relaxed);
  if (old_dir == nullptr) return;
  const std::uint32_t n = old_dir->count.load(std::memory_order_relaxed);
  std::vector<std::uint32_t> kept;
  kept.reserve(live());
  for (std::uint32_t i = 0; i < n; ++i) {
    Chunk* chunk = old_dir->chunks[i / kChunkSize].load(std::memory_order_relaxed);
    const std::uint32_t v = chunk->slots[i % kChunkSize].load(std::memory_order_relaxed);
    if (v != kTombstone) kept.push_back(v);
  }
  const std::uint32_t chunk_count =
      std::max<std::uint32_t>(4, (static_cast<std::uint32_t>(kept.size()) + kChunkSize - 1) /
                                     kChunkSize);
  Dir* fresh = new Dir(chunk_count);
  for (std::uint32_t i = 0; i < kept.size(); ++i) {
    const std::uint32_t chunk_idx = i / kChunkSize;
    Chunk* chunk = fresh->chunks[chunk_idx].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Chunk();
      for (auto& s : chunk->slots) s.store(kTombstone, std::memory_order_relaxed);
      fresh->chunks[chunk_idx].store(chunk, std::memory_order_relaxed);
    }
    chunk->slots[i % kChunkSize].store(kept[i], std::memory_order_relaxed);
  }
  fresh->count.store(static_cast<std::uint32_t>(kept.size()), std::memory_order_relaxed);
  dir_.store(fresh, std::memory_order_release);
  tombstones_ = 0;
  // The old dir still owns its (now unreachable) chunks: pinned readers
  // may be mid-iteration over them, so both dir and chunks free together
  // once every such pin has released.
  em.retire(old_dir);
}

std::size_t InterestIndex::PostingList::collect(std::vector<std::uint32_t>& out) const {
  const Dir* dir = dir_.load(std::memory_order_acquire);
  if (dir == nullptr) return 0;
  const std::uint32_t n = dir->count.load(std::memory_order_acquire);
  std::size_t appended = 0;
  for (std::uint32_t base = 0; base < n; base += kChunkSize) {
    const Chunk* chunk = dir->chunks[base / kChunkSize].load(std::memory_order_acquire);
    const std::uint32_t limit = std::min(n - base, kChunkSize);
    for (std::uint32_t i = 0; i < limit; ++i) {
      const std::uint32_t v = chunk->slots[i].load(std::memory_order_relaxed);
      if (v != kTombstone) {
        out.push_back(v);
        ++appended;
      }
    }
  }
  return appended;
}

void InterestIndex::PostingList::mark(std::vector<std::uint64_t>& bits,
                                      std::size_t& words_used) const {
  const Dir* dir = dir_.load(std::memory_order_acquire);
  if (dir == nullptr) return;
  const std::uint32_t n = dir->count.load(std::memory_order_acquire);
  for (std::uint32_t base = 0; base < n; base += kChunkSize) {
    const Chunk* chunk = dir->chunks[base / kChunkSize].load(std::memory_order_acquire);
    const std::uint32_t limit = std::min(n - base, kChunkSize);
    for (std::uint32_t i = 0; i < limit; ++i) {
      const std::uint32_t v = chunk->slots[i].load(std::memory_order_relaxed);
      if (v == kTombstone) continue;
      const std::size_t word = v / 64;
      if (word >= bits.size()) bits.resize(word + 1);
      bits[word] |= std::uint64_t{1} << (v % 64);
      words_used = std::max(words_used, word + 1);
    }
  }
}

void InterestIndex::PostingList::for_each(const std::function<bool(std::uint32_t)>& fn) const {
  const Dir* dir = dir_.load(std::memory_order_acquire);
  if (dir == nullptr) return;
  const std::uint32_t n = dir->count.load(std::memory_order_acquire);
  for (std::uint32_t base = 0; base < n; base += kChunkSize) {
    const Chunk* chunk = dir->chunks[base / kChunkSize].load(std::memory_order_acquire);
    const std::uint32_t limit = std::min(n - base, kChunkSize);
    for (std::uint32_t i = 0; i < limit; ++i) {
      const std::uint32_t v = chunk->slots[i].load(std::memory_order_relaxed);
      if (v != kTombstone && !fn(v)) return;
    }
  }
}

// ---------------------------------------------------------------------------
// InterestIndex
// ---------------------------------------------------------------------------

InterestIndex::InterestIndex(util::EpochManager* epochs)
    : epochs_(epochs != nullptr ? *epochs : util::EpochManager::global()) {}

InterestIndex::~InterestIndex() {
  for (auto& chunk_ptr : slot_chunks_) {
    SlotChunk* chunk = chunk_ptr.load(std::memory_order_relaxed);
    if (chunk == nullptr) continue;
    for (auto& slot : chunk->slots) {
      delete slot.interests.load(std::memory_order_relaxed);
    }
    delete chunk;
  }
}

InterestIndex::SubscriberSlot* InterestIndex::slot_of(SubscriberId sub) const noexcept {
  if (sub == kNoSubscriber) return nullptr;
  const std::uint32_t chunk_idx = sub / kSlotChunkSize;
  if (chunk_idx >= kMaxSlotChunks) return nullptr;
  SlotChunk* chunk = slot_chunks_[chunk_idx].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  return &chunk->slots[sub % kSlotChunkSize];
}

SubscriberId InterestIndex::add_subscriber() {
  std::scoped_lock lock(subscriber_mutex_);
  SubscriberId id = kNoSubscriber;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    if (slot_high_water_ >= kMaxSlotChunks * kSlotChunkSize) {
      throw pti::ResourceExhaustedError("InterestIndex subscriber capacity exhausted");
    }
    id = slot_high_water_++;
    const std::uint32_t chunk_idx = id / kSlotChunkSize;
    if (slot_chunks_[chunk_idx].load(std::memory_order_relaxed) == nullptr) {
      slot_chunks_[chunk_idx].store(new SlotChunk(), std::memory_order_release);
    }
  }
  SubscriberSlot* slot = slot_of(id);
  slot->live.store(true, std::memory_order_release);
  subscribers_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void InterestIndex::remove_subscriber(SubscriberId sub) {
  std::scoped_lock lock(subscriber_mutex_);
  SubscriberSlot* slot = slot_of(sub);
  if (slot == nullptr || !slot->live.load(std::memory_order_relaxed)) return;
  const std::vector<InterestEntry>* current =
      slot->interests.load(std::memory_order_relaxed);
  if (current != nullptr) {
    for (const InterestEntry& entry : *current) {
      bool emptied = false;
      std::uint64_t posting_fingerprint = 0;
      {
        Shard& shard = shards_[shard_of(entry.interest)];
        std::unique_lock shard_lock(shard.mutex);
        const auto it = shard.postings.find(entry.interest);
        if (it != shard.postings.end() &&
            it->second->subscribers.erase(sub, epochs_)) {
          entries_.fetch_sub(1, std::memory_order_relaxed);
          if (it->second->subscribers.live() == 0) {
            emptied = true;
            posting_fingerprint = it->second->fingerprint;
          }
        }
      }
      if (emptied) bucket_remove(posting_fingerprint, entry.interest);
    }
    slot->interests.store(nullptr, std::memory_order_release);
    epochs_.retire(const_cast<std::vector<InterestEntry>*>(current));
  }
  slot->live.store(false, std::memory_order_release);
  free_ids_.push_back(sub);
  subscribers_.fetch_sub(1, std::memory_order_relaxed);
}

bool InterestIndex::is_live(SubscriberId sub) const noexcept {
  const SubscriberSlot* slot = slot_of(sub);
  return slot != nullptr && slot->live.load(std::memory_order_acquire);
}

void InterestIndex::add_interest(SubscriberId sub, util::InternedName interest,
                                 std::uint64_t fingerprint) {
  if (!interest.valid()) throw TransportError("cannot register an invalid interest id");
  std::scoped_lock lock(subscriber_mutex_);
  SubscriberSlot* slot = slot_of(sub);
  if (slot == nullptr || !slot->live.load(std::memory_order_relaxed)) {
    throw TransportError("interest registered for an unknown subscriber");
  }
  const std::vector<InterestEntry>* current =
      slot->interests.load(std::memory_order_relaxed);
  if (current != nullptr) {
    for (const InterestEntry& entry : *current) {
      if (entry.interest == interest) return;  // idempotent per (sub, interest)
    }
  }
  auto* grown = current != nullptr ? new std::vector<InterestEntry>(*current)
                                   : new std::vector<InterestEntry>();
  grown->push_back(InterestEntry{interest, fingerprint});
  slot->interests.store(grown, std::memory_order_release);
  if (current != nullptr) epochs_.retire(const_cast<std::vector<InterestEntry>*>(current));

  bool first_subscriber = false;
  std::uint64_t posting_fingerprint = 0;
  {
    Shard& shard = shards_[shard_of(interest)];
    std::unique_lock shard_lock(shard.mutex);
    auto& posting = shard.postings[interest];
    if (posting == nullptr) {
      posting = std::make_unique<Posting>();
      posting->fingerprint = fingerprint;
    }
    first_subscriber = posting->subscribers.live() == 0;
    posting->subscribers.append(sub, epochs_);
    posting_fingerprint = posting->fingerprint;
    entries_.fetch_add(1, std::memory_order_relaxed);
  }
  // Bucket maintenance happens after the posting lock is released: writers
  // are already serialized by subscriber_mutex_, so keeping the two shard
  // lock families disjoint costs nothing and means the index never nests
  // one shard mutex inside another.
  if (first_subscriber) bucket_add(posting_fingerprint, interest);
}

bool InterestIndex::remove_interest(SubscriberId sub, util::InternedName interest) {
  std::scoped_lock lock(subscriber_mutex_);
  SubscriberSlot* slot = slot_of(sub);
  if (slot == nullptr || !slot->live.load(std::memory_order_relaxed)) return false;
  const std::vector<InterestEntry>* current =
      slot->interests.load(std::memory_order_relaxed);
  if (current == nullptr) return false;
  auto* shrunk = new std::vector<InterestEntry>();
  shrunk->reserve(current->size());
  bool found = false;
  for (const InterestEntry& entry : *current) {
    if (entry.interest == interest) {
      found = true;
      continue;
    }
    shrunk->push_back(entry);
  }
  if (!found) {
    delete shrunk;
    return false;
  }
  slot->interests.store(shrunk, std::memory_order_release);
  epochs_.retire(const_cast<std::vector<InterestEntry>*>(current));

  bool emptied = false;
  std::uint64_t posting_fingerprint = 0;
  {
    Shard& shard = shards_[shard_of(interest)];
    std::unique_lock shard_lock(shard.mutex);
    const auto it = shard.postings.find(interest);
    if (it != shard.postings.end() && it->second->subscribers.erase(sub, epochs_)) {
      entries_.fetch_sub(1, std::memory_order_relaxed);
      if (it->second->subscribers.live() == 0) {
        emptied = true;
        posting_fingerprint = it->second->fingerprint;
      }
    }
  }
  if (emptied) bucket_remove(posting_fingerprint, interest);
  return true;
}

const std::vector<InterestEntry>* InterestIndex::interests_of(
    SubscriberId sub) const noexcept {
  const SubscriberSlot* slot = slot_of(sub);
  if (slot == nullptr) return nullptr;
  return slot->interests.load(std::memory_order_acquire);
}

std::optional<InterestEntry> InterestIndex::match_first(
    SubscriberId sub, const std::function<bool(const InterestEntry&)>& accept) const {
  util::EpochManager::Pin pin(epochs_);
  const std::vector<InterestEntry>* interests = interests_of(sub);
  if (interests == nullptr) return std::nullopt;
  for (const InterestEntry& entry : *interests) {
    if (accept(entry)) return entry;
  }
  return std::nullopt;
}

const InterestIndex::Posting* InterestIndex::find_posting(util::InternedName interest) const {
  const Shard& shard = shards_[shard_of(interest)];
  std::shared_lock lock(shard.mutex);
  const auto it = shard.postings.find(interest);
  return it == shard.postings.end() ? nullptr : it->second.get();
}

std::size_t InterestIndex::collect_subscribers(util::InternedName interest,
                                               std::vector<SubscriberId>& out) const {
  const Posting* posting = find_posting(interest);
  if (posting == nullptr) return 0;
  return posting->subscribers.collect(out);
}

std::size_t InterestIndex::collect_interests(std::vector<util::InternedName>& out) const {
  const std::size_t before = out.size();
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    for (const auto& [interest, posting] : shard.postings) {
      if (posting->subscribers.live() > 0) out.push_back(interest);
    }
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(before), out.end(),
            [](util::InternedName a, util::InternedName b) { return a.value() < b.value(); });
  return out.size() - before;
}

void InterestIndex::bucket_add(std::uint64_t fingerprint, util::InternedName interest) {
  BucketShard& shard = bucket_shards_[bucket_shard_of(fingerprint)];
  std::unique_lock lock(shard.mutex);
  auto& bucket = shard.buckets[fingerprint];
  if (bucket == nullptr) bucket = std::make_unique<PostingList>();
  bucket->append(interest.value(), epochs_);
}

void InterestIndex::bucket_remove(std::uint64_t fingerprint, util::InternedName interest) {
  BucketShard& shard = bucket_shards_[bucket_shard_of(fingerprint)];
  std::unique_lock lock(shard.mutex);
  const auto it = shard.buckets.find(fingerprint);
  if (it != shard.buckets.end()) it->second->erase(interest.value(), epochs_);
}

std::size_t InterestIndex::equivalence_candidates(std::uint64_t fingerprint,
                                                  std::vector<util::InternedName>& out) const {
  const BucketShard& shard = bucket_shards_[bucket_shard_of(fingerprint)];
  const PostingList* bucket = nullptr;
  {
    std::shared_lock lock(shard.mutex);
    const auto it = shard.buckets.find(fingerprint);
    if (it == shard.buckets.end()) return 0;
    bucket = it->second.get();
  }
  std::size_t appended = 0;
  bucket->for_each([&](std::uint32_t raw) {
    out.push_back(util::InternedName(raw));
    ++appended;
    return true;
  });
  return appended;
}

std::size_t InterestIndex::collect_matches(
    const std::function<bool(const InterestEntry&)>& accept, std::vector<SubscriberId>& out,
    MatchScratch& scratch, std::size_t limit) const {
  util::EpochManager::Pin pin(epochs_);
  scratch.interests.clear();
  out.clear();
  collect_interests(scratch.interests);
  std::vector<std::uint64_t>& marks = scratch.marks;
  std::size_t words = 0;
  for (const util::InternedName interest : scratch.interests) {
    const Posting* posting = find_posting(interest);
    if (posting == nullptr || posting->subscribers.live() == 0) continue;
    if (!accept(InterestEntry{interest, posting->fingerprint})) continue;
    posting->subscribers.mark(marks, words);
  }
  // Read the marks back in ascending id order (a subscriber of several
  // accepted interests was marked once), zeroing every word touched so the
  // bitmap is clean for the next call.
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = marks[w];
    marks[w] = 0;
    for (; bits != 0 && out.size() < limit; bits &= bits - 1) {
      out.push_back(static_cast<SubscriberId>(w * 64 + std::countr_zero(bits)));
    }
  }
  return out.size();
}

std::size_t InterestIndex::subscriber_count() const noexcept {
  return subscribers_.load(std::memory_order_relaxed);
}

std::size_t InterestIndex::entry_count() const noexcept {
  return entries_.load(std::memory_order_relaxed);
}

std::size_t InterestIndex::interest_count() const {
  std::size_t count = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    for (const auto& [interest, posting] : shard.postings) {
      if (posting->subscribers.live() > 0) ++count;
    }
  }
  return count;
}

}  // namespace pti::transport
