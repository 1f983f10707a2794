// DenseIdMap — numbers integer keys 0, 1, 2, ... in first-insert order.
//
// An open-addressing table (linear probing, Fibonacci hashing, doubling
// at half load) whose slots all live in one vector: adding a key never
// allocates a node, so per-key state kept in a side vector indexed by the
// id costs one table slot plus its own words. The megasim keys per-pair
// session bits and deferred-delivery groups with it.
//
// Thread safety: none.
#pragma once

#include <cstdint>
#include <vector>

namespace pti::util {

template <typename Key>
class DenseIdMap {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// The id of `key`, assigning the next one on first sight.
  std::uint32_t intern(Key key) {
    if ((size() + 1) * 2 > slots_.size()) grow();
    std::size_t i = home(key);
    while (slots_[i].id != kNone) {
      if (slots_[i].key == key) return slots_[i].id;
      i = (i + 1) & (slots_.size() - 1);
    }
    const auto id = static_cast<std::uint32_t>(used_.size());
    slots_[i] = Slot{key, id};
    used_.push_back(static_cast<std::uint32_t>(i));
    return id;
  }

  /// The id of `key`, or kNone when it was never interned.
  [[nodiscard]] std::uint32_t find(Key key) const noexcept {
    if (slots_.empty()) return kNone;
    for (std::size_t i = home(key);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i].id == kNone || slots_[i].key == key) return slots_[i].id;
    }
  }

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(used_.size());
  }

  /// Forgets every key in O(keys held), keeping the storage for reuse.
  void clear() noexcept {
    for (const std::uint32_t i : used_) slots_[i].id = kNone;
    used_.clear();
  }

 private:
  struct Slot {
    Key key{};
    std::uint32_t id = kNone;
  };

  [[nodiscard]] std::size_t home(Key key) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    const std::size_t capacity = slots_.empty() ? 16 : slots_.size() * 2;
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    for (std::uint32_t& at : used_) {
      const Slot moved = old[at];
      std::size_t i = home(moved.key);
      while (slots_[i].id != kNone) i = (i + 1) & (capacity - 1);
      slots_[i] = moved;
      at = static_cast<std::uint32_t>(i);
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> used_;  ///< slot of each id, in id order
  int shift_ = 64;
};

}  // namespace pti::util
