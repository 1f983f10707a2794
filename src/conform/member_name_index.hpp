// MemberNameIndex — the member-name part of rule (vi)'s field and method
// aspects, as an index join instead of a target × source scan.
//
// The checker indexes one source member list (fields or methods) per
// check and looks every target member name up in it; each name's match
// key is computed once:
//   * Exact, distance 0 — a hash on the case-folded name;
//   * Exact, distance d > 0 — names sorted by length, so only those
//     within d characters of the target's length run the banded
//     Levenshtein test;
//   * TokenSubset — each name's camelCase tokens, case-folded and mapped
//     to index-local small integer ids. Sources whose token set is a
//     strict superset of the target's come off the posting list of the
//     target's rarest token. Sources whose set is a subset of (or equal
//     to) the target's are filed under their own rarest token, which must
//     be one of the target's, and the target walks those lists;
//   * Contains, and wildcard targets under allow_wildcards, scan the names.
// Token ids are local to one index and never interned: member names are
// controlled by the peer that sent the description, and interning them
// would bypass the name budget util::SymbolTable enforces.
//
// Candidates come out in source declaration order — the order the
// ambiguity policies and the plan mappings are defined over.
//
// Cost: building is linear in the total name length. A TokenSubset lookup
// walks one posting list plus the rarest-token lists of the target's
// tokens, so it is short while tokens are shared by few names; names
// built from a few common tokens make those lists long, and then the
// join degrades towards the target × source scan it replaces (with a
// smaller constant: ids, not strings, are compared).
//
// Indexes are leased from a per-thread pool and rebuilt in place, so a
// check on a thread that has checked before allocates nothing here
// (nested checks of member types lease indexes of their own).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "conform/conformance_options.hpp"

namespace pti::conform {

class MemberNameIndex {
 public:
  /// A pooled index over the `name` of each of `members`
  /// (FieldDescription or MethodDescription), in declaration order. The
  /// members must outlive the lease; the index goes back to the calling
  /// thread's pool when the lease ends.
  class Lease {
   public:
    template <typename Member>
    Lease(const ConformanceOptions& options, const std::vector<Member>& members)
        : index_(acquire()) {
      index_->names_.clear();
      for (const Member& m : members) index_->names_.emplace_back(m.name);
      index_->build(options);
    }
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    MemberNameIndex* operator->() const { return index_.get(); }

   private:
    static std::unique_ptr<MemberNameIndex> acquire();
    std::unique_ptr<MemberNameIndex> index_;
  };

  /// Positions of the source members whose names conform to
  /// `target_name`, ascending. Valid until the next call.
  [[nodiscard]] std::span<const std::uint32_t> candidates(std::string_view target_name);

 private:
  MemberNameIndex() = default;

  void build(const ConformanceOptions& options);
  void build_folded_names();
  void build_length_order();
  void build_tokens();
  /// Keys (names and tokens) whose buffers this index holds on to.
  [[nodiscard]] std::size_t retained_keys() const;

  void exact(std::string_view target_name);
  void within_distance(std::string_view target_name);
  void token_subset(std::string_view target_name);

  /// Id of `token` in the token table, added (and counted in
  /// posting_begin_) if new.
  std::uint32_t add_token(std::string_view token);
  /// Id of `token` in the token table, or ~0 when no source name has it.
  [[nodiscard]] std::uint32_t find_token(std::string_view token) const;
  [[nodiscard]] std::span<const std::uint32_t> tokens_of(std::uint32_t member) const {
    return {member_tokens_.data() + member_token_begin_[member],
            member_tokens_.data() + member_token_begin_[member + 1]};
  }
  [[nodiscard]] std::uint32_t posting_size(std::uint32_t token) const {
    return posting_begin_[token + 1] - posting_begin_[token];
  }

  ConformanceOptions options_;
  std::vector<std::string_view> names_;
  std::vector<std::uint32_t> out_;

  // Exact, distance 0: open-addressed slots hold the first member with a
  // folded name (~0 == empty); members sharing it chain through `next_`,
  // ascending.
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint32_t> next_;
  std::vector<std::uint64_t> name_hash_;

  // Exact, distance > 0: member positions ordered by name length.
  std::vector<std::uint32_t> by_length_;

  // TokenSubset: per-member sorted distinct token ids (CSR), per-token
  // posting lists of members (CSR, ascending), the members filed under
  // their rarest token only (CSR), the token-less members, and the token
  // table.
  std::vector<std::uint32_t> member_token_begin_;
  std::vector<std::uint32_t> member_tokens_;
  std::vector<std::uint32_t> posting_begin_;
  std::vector<std::uint32_t> postings_;
  std::vector<std::uint32_t> rarest_of_;
  std::vector<std::uint32_t> rarest_begin_;
  std::vector<std::uint32_t> by_rarest_;
  std::vector<std::uint32_t> tokenless_;
  std::vector<std::string_view> token_text_;
  std::vector<std::uint64_t> token_hash_;
  std::vector<std::uint32_t> token_slots_;
  std::vector<std::uint32_t> target_tokens_;
};

}  // namespace pti::conform
