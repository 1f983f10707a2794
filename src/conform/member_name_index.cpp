#include "conform/member_name_index.hpp"

#include <algorithm>
#include <bit>

#include "util/hash.hpp"
#include "util/levenshtein.hpp"
#include "util/string_util.hpp"

namespace pti::conform {

namespace {

constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

/// An index whose buffers grew past this many keys (names plus tokens) is
/// freed when its lease ends rather than pooled, so one huge peer
/// description does not pin its buffers to the thread.
constexpr std::size_t kMaxPooledKeys = std::size_t{1} << 14;

/// This thread's spare indexes, buffers intact.
thread_local std::vector<std::unique_ptr<MemberNameIndex>> t_spares;

std::uint64_t folded_hash(std::string_view s) noexcept {
  std::uint64_t h = util::kFnvOffset64;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(util::to_lower(c));
    h *= util::kFnvPrime64;
  }
  return h;
}

/// Open-addressed table size for `entries` keys: a power of two, at most
/// half full.
std::size_t table_size(std::size_t entries) {
  return entries == 0 ? 0 : std::bit_ceil(2 * entries);
}

/// Linear probe of a non-empty table: the slot holding the entry `same`
/// accepts, or the empty slot where it would go.
template <typename Same>
std::size_t probe(const std::vector<std::uint32_t>& slots, std::uint64_t hash, Same&& same) {
  const std::size_t mask = slots.size() - 1;
  std::size_t s = hash & mask;
  while (slots[s] != kEmpty && !same(slots[s])) s = (s + 1) & mask;
  return s;
}

}  // namespace

std::unique_ptr<MemberNameIndex> MemberNameIndex::Lease::acquire() {
  if (t_spares.empty()) {
    // Room for every index this thread creates, so that handing one back
    // in ~Lease never allocates (and so never throws).
    t_spares.reserve(t_spares.capacity() + 1);
    return std::unique_ptr<MemberNameIndex>(new MemberNameIndex);
  }
  std::unique_ptr<MemberNameIndex> index = std::move(t_spares.back());
  t_spares.pop_back();
  return index;
}

MemberNameIndex::Lease::~Lease() {
  if (index_->retained_keys() <= kMaxPooledKeys) t_spares.push_back(std::move(index_));
}

std::size_t MemberNameIndex::retained_keys() const {
  return names_.capacity() + member_tokens_.capacity();
}

void MemberNameIndex::build(const ConformanceOptions& options) {
  options_ = options;
  switch (options_.member_name_rule) {
    case MemberNameRule::Exact:
      if (options_.max_name_distance == 0) {
        build_folded_names();
      } else {
        build_length_order();
      }
      break;
    case MemberNameRule::TokenSubset:
      build_tokens();
      break;
    case MemberNameRule::Contains:
      break;
  }
}

void MemberNameIndex::build_folded_names() {
  const auto n = static_cast<std::uint32_t>(names_.size());
  slots_.assign(table_size(n), kEmpty);
  next_.assign(n, kEmpty);
  name_hash_.resize(n);
  // Filed back to front so each chain lists its members ascending.
  for (std::uint32_t i = n; i-- > 0;) {
    name_hash_[i] = folded_hash(names_[i]);
    const std::size_t s = probe(slots_, name_hash_[i], [&](std::uint32_t e) {
      return name_hash_[e] == name_hash_[i] && util::iequals(names_[e], names_[i]);
    });
    next_[i] = slots_[s];
    slots_[s] = i;
  }
}

void MemberNameIndex::build_length_order() {
  by_length_.resize(names_.size());
  for (std::uint32_t i = 0; i < by_length_.size(); ++i) by_length_[i] = i;
  std::ranges::stable_sort(by_length_, {},
                          [this](std::uint32_t i) { return names_[i].size(); });
}

std::uint32_t MemberNameIndex::add_token(std::string_view token) {
  const std::uint64_t h = folded_hash(token);
  const auto same = [&](std::uint32_t id) {
    return token_hash_[id] == h && util::iequals(token_text_[id], token);
  };
  const std::size_t s = probe(token_slots_, h, same);
  if (token_slots_[s] != kEmpty) return token_slots_[s];
  const auto id = static_cast<std::uint32_t>(token_text_.size());
  token_text_.push_back(token);
  token_hash_.push_back(h);
  posting_begin_.push_back(0);
  if (2 * token_text_.size() > token_slots_.size()) {
    // Keep the table at most half full: rehash every id into twice the slots.
    token_slots_.assign(2 * token_slots_.size(), kEmpty);
    for (std::uint32_t t = 0; t < token_text_.size(); ++t) {
      token_slots_[probe(token_slots_, token_hash_[t], [](std::uint32_t) { return false; })] = t;
    }
  } else {
    token_slots_[s] = id;
  }
  return id;
}

void MemberNameIndex::build_tokens() {
  const auto n = static_cast<std::uint32_t>(names_.size());
  // Each member's case-folded tokens become a sorted set of index-local
  // ids; posting_begin_[t] counts the members with token t for now. The
  // token table starts sized for two tokens a name.
  token_text_.clear();
  token_hash_.clear();
  token_slots_.assign(std::max<std::size_t>(table_size(2 * n), 2), kEmpty);
  posting_begin_.clear();
  member_tokens_.clear();
  member_token_begin_.resize(n + 1);
  member_token_begin_[0] = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto first = static_cast<std::ptrdiff_t>(member_tokens_.size());
    util::IdentifierTokens tokens(names_[i]);
    for (std::string_view t = tokens.next(); !t.empty(); t = tokens.next()) {
      member_tokens_.push_back(add_token(t));
    }
    std::sort(member_tokens_.begin() + first, member_tokens_.end());
    member_tokens_.erase(std::unique(member_tokens_.begin() + first, member_tokens_.end()),
                         member_tokens_.end());
    for (auto id = member_tokens_.begin() + first; id != member_tokens_.end(); ++id) {
      ++posting_begin_[*id];
    }
    member_token_begin_[i + 1] = static_cast<std::uint32_t>(member_tokens_.size());
  }

  // Each member is also filed under its own rarest token; token-less
  // members are listed apart. rarest_begin_[t] counts t's filed members.
  const std::size_t token_count = token_text_.size();
  rarest_begin_.assign(token_count + 1, 0);
  rarest_of_.resize(n);
  tokenless_.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    rarest_of_[i] = kEmpty;
    for (std::uint32_t id : tokens_of(i)) {
      if (rarest_of_[i] == kEmpty || posting_begin_[id] < posting_begin_[rarest_of_[i]]) {
        rarest_of_[i] = id;
      }
    }
    if (rarest_of_[i] == kEmpty) {
      tokenless_.push_back(i);
    } else {
      ++rarest_begin_[rarest_of_[i]];
    }
  }

  // Both lists in CSR form, filled back to front so each lists its
  // members ascending: the running sums make begin[t] t's end, and each
  // member filed counts it down to t's begin.
  const auto total = static_cast<std::uint32_t>(member_tokens_.size());
  posting_begin_.push_back(total);
  std::uint32_t postings = 0;
  std::uint32_t filed = 0;
  for (std::size_t t = 0; t < token_count; ++t) {
    postings = posting_begin_[t] += postings;
    filed = rarest_begin_[t] += filed;
  }
  rarest_begin_[token_count] = filed;
  postings_.resize(total);
  by_rarest_.resize(filed);
  for (std::uint32_t i = n; i-- > 0;) {
    for (std::uint32_t id : tokens_of(i)) postings_[--posting_begin_[id]] = i;
    if (rarest_of_[i] != kEmpty) by_rarest_[--rarest_begin_[rarest_of_[i]]] = i;
  }
}

std::span<const std::uint32_t> MemberNameIndex::candidates(std::string_view target_name) {
  out_.clear();
  if (options_.allow_wildcards && target_name.find_first_of("*?") != std::string_view::npos) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (util::wildcard_match(target_name, names_[i])) out_.push_back(i);
    }
    return out_;
  }
  switch (options_.member_name_rule) {
    case MemberNameRule::Exact:
      if (options_.max_name_distance == 0) {
        exact(target_name);
      } else {
        within_distance(target_name);
      }
      break;
    case MemberNameRule::Contains:
      for (std::uint32_t i = 0; i < names_.size(); ++i) {
        if (util::icontains(names_[i], target_name) ||
            util::icontains(target_name, names_[i])) {
          out_.push_back(i);
        }
      }
      break;
    case MemberNameRule::TokenSubset:
      token_subset(target_name);
      break;
  }
  return out_;
}

void MemberNameIndex::exact(std::string_view target_name) {
  if (slots_.empty()) return;
  const std::uint64_t h = folded_hash(target_name);
  const std::size_t s = probe(slots_, h, [&](std::uint32_t e) {
    return name_hash_[e] == h && util::iequals(names_[e], target_name);
  });
  for (std::uint32_t m = slots_[s]; m != kEmpty; m = next_[m]) out_.push_back(m);
}

void MemberNameIndex::within_distance(std::string_view target_name) {
  const std::size_t d = options_.max_name_distance;
  const std::size_t lo = target_name.size() > d ? target_name.size() - d : 0;
  const std::size_t hi = target_name.size() + d;
  const auto first = std::ranges::lower_bound(
      by_length_, lo, {}, [this](std::uint32_t i) { return names_[i].size(); });
  for (auto it = first; it != by_length_.end() && names_[*it].size() <= hi; ++it) {
    if (util::levenshtein_within(names_[*it], target_name, d, /*case_insensitive=*/true)) {
      out_.push_back(*it);
    }
  }
  std::sort(out_.begin(), out_.end());
}

std::uint32_t MemberNameIndex::find_token(std::string_view token) const {
  const std::uint64_t h = folded_hash(token);
  return token_slots_[probe(token_slots_, h, [&](std::uint32_t id) {
    return token_hash_[id] == h && util::iequals(token_text_[id], token);
  })];
}

void MemberNameIndex::token_subset(std::string_view target_name) {
  // One name conforms to another when either's token set includes the
  // other's; a name without tokens conforms only to another such name.
  target_tokens_.clear();
  bool has_tokens = false;
  bool has_unknown = false;
  util::IdentifierTokens tokens(target_name);
  for (std::string_view t = tokens.next(); !t.empty(); t = tokens.next()) {
    has_tokens = true;
    const std::uint32_t id = find_token(t);
    if (id == kEmpty) {
      has_unknown = true;
    } else {
      target_tokens_.push_back(id);
    }
  }
  if (!has_tokens) {
    out_.assign(tokenless_.begin(), tokenless_.end());
    return;
  }
  std::sort(target_tokens_.begin(), target_tokens_.end());
  target_tokens_.erase(std::unique(target_tokens_.begin(), target_tokens_.end()),
                       target_tokens_.end());
  const std::size_t k = target_tokens_.size();
  if (k == 0) return;

  // Strict supersets: every one carries the target's rarest token. A
  // target token no source name has rules them all out.
  if (!has_unknown) {
    std::uint32_t rarest = target_tokens_.front();
    for (std::uint32_t id : target_tokens_) {
      if (posting_size(id) < posting_size(rarest)) rarest = id;
    }
    for (std::uint32_t p = posting_begin_[rarest]; p < posting_begin_[rarest + 1]; ++p) {
      const auto source = tokens_of(postings_[p]);
      if (source.size() > k && std::ranges::includes(source, target_tokens_)) {
        out_.push_back(postings_[p]);
      }
    }
  }

  // Subsets (equal sets included): every one is filed under its rarest
  // token, which is among the target's.
  for (std::uint32_t id : target_tokens_) {
    for (std::uint32_t r = rarest_begin_[id]; r < rarest_begin_[id + 1]; ++r) {
      const auto source = tokens_of(by_rarest_[r]);
      if (source.size() <= k && std::ranges::includes(target_tokens_, source)) {
        out_.push_back(by_rarest_[r]);
      }
    }
  }
  std::sort(out_.begin(), out_.end());
}

}  // namespace pti::conform
