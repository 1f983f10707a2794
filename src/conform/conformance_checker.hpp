// ConformanceChecker — implements the paper's conformance rules (Fig. 2).
//
// `check(source, target)` decides whether `source ≼ target`, i.e. whether
// an instance of `source` can safely be used where a `target` is expected,
// trying in order:
//   1. identity            — same type GUID (platform type identity),
//   2. equivalence         — structurally equal descriptions,
//   3. explicit            — nominal subtyping via the supertype closure,
//   4. implicit structural — rule (vi): name (i) + fields (ii) +
//      supertypes (iii) + methods (iv) + constructors (v).
//
// Methods use covariant returns and contravariant arguments, with argument
// permutations (Fig. 2's Perm) searched via bipartite matching. Recursive
// type references are handled coinductively: a pair already under test is
// assumed conformant, the standard algorithm for structural subtyping of
// recursive types. Member names are matched by an index join over the
// source's members (MemberNameIndex), so an uncached check grows linearly
// with the member count while names share few tokens (see there for the
// bound).
//
// The checker works purely on TypeDescriptions obtained through a
// TypeResolver — never on implementations — which is what allows a peer to
// check conformance *before* downloading any code (the optimistic
// protocol's whole point). References to types the resolver cannot supply
// are reported in CheckResult::missing_types so the transport layer can
// fetch them and retry.
//
// Thread safety: a ConformanceChecker keeps all per-check state on the
// stack (the Ctx of each top-level check), so concurrent check() /
// conforms() calls on one shared checker are safe provided its resolver
// is — a plain TypeRegistry is fully thread-safe; a Peer's
// network-fetching resolver is not, so protocol-driven checks stay on
// the peer's thread. The optional ConformanceCache is sharded with
// lock-free reads and may be shared by any number of checkers/threads;
// two threads racing the same uncached pair simply compute the same
// verdict and the cache keeps one canonical entry (first write wins).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "conform/conformance_cache.hpp"
#include "conform/conformance_options.hpp"
#include "conform/conformance_plan.hpp"
#include "reflect/type_description.hpp"
#include "reflect/type_registry.hpp"

namespace pti::conform {

struct CheckResult {
  bool conformant = false;
  ConformancePlan plan;  ///< meaningful only when conformant
  /// Type names referenced during the check that the resolver could not
  /// supply. Non-empty means the verdict is provisional: fetch these and
  /// re-check.
  std::vector<std::string> missing_types;
  /// Human-readable reasons for failure (capped).
  std::vector<std::string> failures;

  [[nodiscard]] bool needs_more_types() const noexcept { return !missing_types.empty(); }
};

class ConformanceChecker {
 public:
  /// The resolver supplies descriptions for referenced type names; the
  /// optional cache memoizes verdicts across checks.
  explicit ConformanceChecker(reflect::TypeResolver& resolver,
                              ConformanceOptions options = {},
                              ConformanceCache* cache = nullptr);

  [[nodiscard]] const ConformanceOptions& options() const noexcept { return options_; }

  /// Full check with plan. `source ≼ target`?
  [[nodiscard]] CheckResult check(const reflect::TypeDescription& source,
                                  const reflect::TypeDescription& target);

  /// Check by (possibly unqualified) type names, resolved via the resolver.
  [[nodiscard]] CheckResult check(std::string_view source_name,
                                  std::string_view target_name);

  /// Convenience verdict-only form. On a cache hit this is the cheapest
  /// entry point: the verdict is returned straight from the interned-key
  /// cache without materializing a CheckResult (zero heap allocations).
  [[nodiscard]] bool conforms(const reflect::TypeDescription& source,
                              const reflect::TypeDescription& target);

  /// A (source, target) pair of an all-pairs verdict query. Null
  /// descriptions are simply non-conformant.
  using DescPair =
      std::pair<const reflect::TypeDescription*, const reflect::TypeDescription*>;

  /// Batched verdict-only checks: cached pairs are answered through one
  /// shard-aware batched cache probe (ConformanceCache::probe_batch) with
  /// zero allocations; misses fall back to full check()s. `out` must hold
  /// at least pairs.size() verdicts.
  void conforms_batch(std::span<const DescPair> pairs, std::span<bool> out);

  /// The paper's `equals()`: equivalence only (identity or structural
  /// equality), no subtyping, no implicit rule.
  [[nodiscard]] static bool equivalent(const reflect::TypeDescription& source,
                                       const reflect::TypeDescription& target) noexcept;

 private:
  struct Ctx;

  CheckResult compute(const reflect::TypeDescription& source,
                      const reflect::TypeDescription& target, Ctx& ctx);
  CheckResult check_with_ctx(const reflect::TypeDescription& source,
                             const reflect::TypeDescription& target, Ctx& ctx);

  /// Recursive conformance on *referenced* type names (field types,
  /// parameter types, supertypes). Appends to ctx missing/failure lists.
  bool ref_conforms(std::string_view source_type, std::string_view source_ns,
                    std::string_view target_type, std::string_view target_ns, Ctx& ctx);

  bool name_conforms(std::string_view source_name, std::string_view target_name) const;
  bool explicitly_conforms(const reflect::TypeDescription& source,
                           const reflect::TypeDescription& target, Ctx& ctx);

  bool check_supertypes(const reflect::TypeDescription& source,
                        const reflect::TypeDescription& target, Ctx& ctx,
                        std::vector<std::string>& failures);
  bool check_fields(const reflect::TypeDescription& source,
                    const reflect::TypeDescription& target, Ctx& ctx,
                    ConformancePlan& plan, std::vector<std::string>& failures);
  bool check_methods(const reflect::TypeDescription& source,
                     const reflect::TypeDescription& target, Ctx& ctx,
                     ConformancePlan& plan, std::vector<std::string>& failures);
  bool check_constructors(const reflect::TypeDescription& source,
                          const reflect::TypeDescription& target, Ctx& ctx,
                          ConformancePlan& plan, std::vector<std::string>& failures);

  /// Finds a permutation assigning each source parameter a compatible
  /// target argument (contravariant), preferring the identity permutation.
  /// Returns empty optional when no perfect matching exists.
  std::optional<std::vector<std::size_t>> find_argument_permutation(
      const std::vector<reflect::ParamDescription>& source_params,
      std::string_view source_ns,
      const std::vector<reflect::ParamDescription>& target_params,
      std::string_view target_ns, Ctx& ctx);

  reflect::TypeResolver& resolver_;
  ConformanceOptions options_;
  /// options_.fingerprint() hashed once at construction; part of every
  /// cache key.
  std::uint64_t options_fp_;
  ConformanceCache* cache_;
};

}  // namespace pti::conform
