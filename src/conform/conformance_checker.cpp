#include "conform/conformance_checker.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "conform/conform_error.hpp"
#include "conform/member_name_index.hpp"
#include "reflect/primitives.hpp"
#include "util/interning.hpp"
#include "util/levenshtein.hpp"
#include "util/string_util.hpp"

namespace pti::conform {

using reflect::ConstructorDescription;
using reflect::FieldDescription;
using reflect::MethodDescription;
using reflect::ParamDescription;
using reflect::TypeDescription;
using reflect::TypeKind;

namespace {

constexpr std::size_t kMaxFailures = 32;

void push_failure(std::vector<std::string>& failures, std::string message) {
  if (failures.size() < kMaxFailures) failures.push_back(std::move(message));
}

}  // namespace

/// Per-top-level-check state shared across the recursion. All pair keys
/// are util::pair_key() of the two descriptions' interned name ids — a
/// 64-bit integer, so guard/memo probes never fold or build strings.
struct ConformanceChecker::Ctx {
  /// Pairs (source, target) currently being checked; re-encountering one
  /// is the coinductive "assume conformant" case for recursive types.
  std::unordered_set<std::uint64_t> in_progress;
  /// Pairs completed within this top-level check. Without it, a pair
  /// referenced from several member positions (field type + return type,
  /// say) is recomputed per position — exponential on deep reference
  /// chains. Only assumption-free results are memoized (see
  /// check_with_ctx): a verdict derived from a still-open coinductive
  /// assumption is provisional until the enclosing pair closes.
  std::unordered_map<std::uint64_t, CheckResult> memo;
  /// Incremented whenever the coinductive "assume in-progress pair
  /// conformant" branch fires; used to detect provisional results.
  int assumption_events = 0;
  std::vector<std::string> missing_types;
  int depth = 0;
};

ConformanceChecker::ConformanceChecker(reflect::TypeResolver& resolver,
                                       ConformanceOptions options, ConformanceCache* cache)
    : resolver_(resolver),
      options_(options),
      options_fp_(options.fingerprint()),
      cache_(cache) {}

bool ConformanceChecker::equivalent(const TypeDescription& source,
                                    const TypeDescription& target) noexcept {
  if (!source.guid().is_nil() && source.guid() == target.guid()) return true;
  return source.structurally_equal(target);
}

bool ConformanceChecker::name_conforms(std::string_view source_name,
                                       std::string_view target_name) const {
  if (options_.allow_wildcards &&
      target_name.find_first_of("*?") != std::string_view::npos) {
    return util::wildcard_match(target_name, source_name);
  }
  return util::levenshtein_within(source_name, target_name, options_.max_name_distance,
                                  /*case_insensitive=*/true);
}

CheckResult ConformanceChecker::check(const TypeDescription& source,
                                      const TypeDescription& target) {
  Ctx ctx;
  return check_with_ctx(source, target, ctx);
}

CheckResult ConformanceChecker::check(std::string_view source_name,
                                      std::string_view target_name) {
  CheckResult result;
  const TypeDescription* source = resolver_.resolve(source_name, "");
  const TypeDescription* target = resolver_.resolve(target_name, "");
  if (source == nullptr) result.missing_types.emplace_back(source_name);
  if (target == nullptr) result.missing_types.emplace_back(target_name);
  if (source == nullptr || target == nullptr) {
    push_failure(result.failures, "unresolved type name(s)");
    return result;
  }
  return check(*source, *target);
}

bool ConformanceChecker::conforms(const TypeDescription& source,
                                  const TypeDescription& target) {
  // Verdict-only fast path: a cached verdict answers without building a
  // CheckResult (no plan copy, no failure strings — zero allocations).
  // probe() leaves miss accounting to the lookup inside check().
  if (cache_ != nullptr) {
    if (const CachedVerdict* cached = cache_->probe(source, target, options_fp_)) {
      return cached->conformant;
    }
  }
  return check(source, target).conformant;
}

void ConformanceChecker::conforms_batch(std::span<const DescPair> pairs,
                                        std::span<bool> out) {
  constexpr std::size_t kBlock = 64;
  ConformanceCache::Key keys[kBlock];
  const CachedVerdict* cached[kBlock];
  for (std::size_t base = 0; base < pairs.size(); base += kBlock) {
    const std::size_t n = std::min(kBlock, pairs.size() - base);
    if (cache_ != nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto& [source, target] = pairs[base + i];
        keys[i] = ConformanceCache::Key{
            source != nullptr ? source->name_id() : util::InternedName{},
            target != nullptr ? target->name_id() : util::InternedName{}, options_fp_};
      }
      cache_->probe_batch(std::span<const ConformanceCache::Key>(keys, n), cached);
      for (std::size_t i = 0; i < n; ++i) {
        const auto& [source, target] = pairs[base + i];
        if (source == nullptr || target == nullptr) {
          out[base + i] = false;
        } else if (cached[i] != nullptr) {
          out[base + i] = cached[i]->conformant;
        } else {
          out[base + i] = check(*source, *target).conformant;
        }
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const auto& [source, target] = pairs[base + i];
        out[base + i] =
            source != nullptr && target != nullptr && check(*source, *target).conformant;
      }
    }
  }
}

CheckResult ConformanceChecker::check_with_ctx(const TypeDescription& source,
                                               const TypeDescription& target, Ctx& ctx) {
  if (cache_ != nullptr) {
    if (const CachedVerdict* cached = cache_->lookup(source, target, options_fp_)) {
      CheckResult result;
      result.conformant = cached->conformant;
      result.plan = cached->plan;
      if (!result.conformant) {
        push_failure(result.failures, "cached verdict: not conformant");
      }
      return result;
    }
  }
  const std::uint64_t memo_key = util::pair_key(source.name_id(), target.name_id());
  if (const auto it = ctx.memo.find(memo_key); it != ctx.memo.end()) {
    return it->second;
  }
  const bool top_level = ctx.in_progress.empty();
  const int events_before = ctx.assumption_events;
  CheckResult result = compute(source, target, ctx);
  // A result that leaned on a coinductive assumption about a pair that is
  // still open is provisional; once the top-level pair closes, the
  // fixpoint is complete and the verdict is final either way.
  const bool final_verdict = top_level || ctx.assumption_events == events_before;
  if (final_verdict) {
    if (cache_ != nullptr && result.missing_types.empty()) {
      cache_->insert(source.name_id(), target.name_id(), options_fp_,
                     CachedVerdict{result.conformant, result.plan});
    }
    ctx.memo.emplace(memo_key, result);
  }
  return result;
}

CheckResult ConformanceChecker::compute(const TypeDescription& source,
                                        const TypeDescription& target, Ctx& ctx) {
  CheckResult result;
  const std::string src_name = source.qualified_name();
  const std::string tgt_name = target.qualified_name();

  // --- 1. identity: same platform type identity (GUID). -------------------
  if (!source.guid().is_nil() && source.guid() == target.guid()) {
    result.conformant = true;
    result.plan = ConformancePlan(src_name, tgt_name, ConformanceKind::Identity);
    return result;
  }

  // --- 2. the top type: everything conforms to `object`. ------------------
  if (reflect::canonical_primitive(tgt_name) == reflect::kObjectType) {
    result.conformant = true;
    result.plan = ConformancePlan(src_name, tgt_name, ConformanceKind::Explicit);
    return result;
  }

  // --- 3. primitives conform only to themselves (plus optional widening). --
  if (source.kind() == TypeKind::Primitive || target.kind() == TypeKind::Primitive) {
    if (source.kind() != target.kind()) {
      push_failure(result.failures, "primitive/non-primitive mismatch between '" +
                                        src_name + "' and '" + tgt_name + "'");
      return result;
    }
    const std::string_view s = reflect::canonical_primitive(src_name);
    const std::string_view t = reflect::canonical_primitive(tgt_name);
    bool ok = (s == t);
    if (!ok && options_.allow_numeric_widening) {
      ok = (s == reflect::kInt32Type &&
            (t == reflect::kInt64Type || t == reflect::kFloat64Type)) ||
           (s == reflect::kInt64Type && t == reflect::kFloat64Type);
    }
    if (ok) {
      result.conformant = true;
      result.plan = ConformancePlan(src_name, tgt_name,
                                    s == t ? ConformanceKind::Equivalent
                                           : ConformanceKind::Explicit);
    } else {
      push_failure(result.failures,
                   "primitive '" + src_name + "' does not conform to '" + tgt_name + "'");
    }
    return result;
  }

  // --- 4. equivalence: structurally equal descriptions. -------------------
  if (source.structurally_equal(target)) {
    result.conformant = true;
    result.plan = ConformancePlan(src_name, tgt_name, ConformanceKind::Equivalent);
    return result;
  }

  // --- 5. explicit conformance: nominal subtyping. ------------------------
  if (explicitly_conforms(source, target, ctx)) {
    result.conformant = true;
    result.plan = ConformancePlan(src_name, tgt_name, ConformanceKind::Explicit);
    result.missing_types = ctx.missing_types;
    return result;
  }

  // --- 6. implicit structural conformance (rule vi). ----------------------
  // Kind gating: a class may stand in for a class or an interface; an
  // interface has no state or constructors, so it can only stand in for
  // another interface.
  if (target.kind() == TypeKind::Class && source.kind() == TypeKind::Interface) {
    push_failure(result.failures, "interface '" + src_name +
                                      "' cannot conform to class '" + tgt_name + "'");
    return result;
  }

  ConformancePlan plan(src_name, tgt_name, ConformanceKind::ImplicitStructural);

  // Aspect (i): type names.
  if (options_.check_name && !name_conforms(source.name(), target.name())) {
    push_failure(result.failures, "name aspect: '" + source.name() +
                                      "' does not conform to '" + target.name() + "'");
    return result;
  }

  // Coinductive cycle handling for the recursive aspects.
  const std::uint64_t key = util::pair_key(source.name_id(), target.name_id());
  if (ctx.in_progress.contains(key)) {
    // Assumed conformant while the enclosing check of the same pair runs.
    ++ctx.assumption_events;
    result.conformant = true;
    result.plan = std::move(plan);
    return result;
  }
  ctx.in_progress.insert(key);

  bool ok = true;
  if (ok && options_.check_supertypes) {
    ok = check_supertypes(source, target, ctx, result.failures);
  }
  if (ok && options_.check_fields) {
    ok = check_fields(source, target, ctx, plan, result.failures);
  }
  if (ok && options_.check_methods) {
    ok = check_methods(source, target, ctx, plan, result.failures);
  }
  if (ok && options_.check_constructors) {
    ok = check_constructors(source, target, ctx, plan, result.failures);
  }

  ctx.in_progress.erase(key);

  result.conformant = ok;
  result.missing_types = ctx.missing_types;
  if (ok) result.plan = std::move(plan);
  return result;
}

bool ConformanceChecker::ref_conforms(std::string_view source_type,
                                      std::string_view source_ns,
                                      std::string_view target_type,
                                      std::string_view target_ns, Ctx& ctx) {
  const TypeDescription* source = resolver_.resolve(source_type, source_ns);
  const TypeDescription* target = resolver_.resolve(target_type, target_ns);
  if (source == nullptr) ctx.missing_types.emplace_back(source_type);
  if (target == nullptr) ctx.missing_types.emplace_back(target_type);
  if (source == nullptr || target == nullptr) return false;

  // Re-enter through the cache-aware path so nested pairs get memoized
  // plans of their own (the dynamic proxy asks for them when wrapping
  // returned objects).
  ++ctx.depth;
  const CheckResult inner = check_with_ctx(*source, *target, ctx);
  --ctx.depth;
  for (const auto& m : inner.missing_types) ctx.missing_types.push_back(m);
  return inner.conformant;
}

bool ConformanceChecker::explicitly_conforms(const TypeDescription& source,
                                             const TypeDescription& target, Ctx& ctx) {
  // Breadth-first walk of the nominal ancestry (superclass chain plus all
  // transitively implemented interfaces), matching by resolved identity or
  // case-insensitive qualified name.
  std::vector<const TypeDescription*> frontier{&source};
  std::unordered_set<util::InternedName> visited;
  while (!frontier.empty()) {
    const TypeDescription* current = frontier.back();
    frontier.pop_back();
    if (!visited.insert(current->name_id()).second) continue;

    if (current != &source) {
      if (!current->guid().is_nil() && current->guid() == target.guid()) return true;
      if (current->name_id() == target.name_id()) return true;
    }

    const auto visit_ref = [&](const std::string& ref) {
      if (ref.empty()) return;
      if (reflect::canonical_primitive(ref) == reflect::kObjectType) return;
      const TypeDescription* resolved = resolver_.resolve(ref, current->namespace_name());
      if (resolved == nullptr) {
        ctx.missing_types.push_back(ref);
        return;
      }
      frontier.push_back(resolved);
    };
    visit_ref(current->superclass());
    for (const auto& itf : current->interfaces()) visit_ref(itf);
  }
  return false;
}

bool ConformanceChecker::check_supertypes(const TypeDescription& source,
                                          const TypeDescription& target, Ctx& ctx,
                                          std::vector<std::string>& failures) {
  // Superclass: the target's superclass (if meaningful) must be matched by
  // the source's superclass, implicit-structurally.
  const std::string& tgt_super = target.superclass();
  const bool tgt_super_trivial =
      tgt_super.empty() ||
      reflect::canonical_primitive(tgt_super) == reflect::kObjectType;
  if (!tgt_super_trivial) {
    if (source.superclass().empty()) {
      push_failure(failures, "supertype aspect: target expects superclass '" + tgt_super +
                                 "' but source has none");
      return false;
    }
    if (!ref_conforms(source.superclass(), source.namespace_name(), tgt_super,
                      target.namespace_name(), ctx)) {
      push_failure(failures, "supertype aspect: superclass '" + source.superclass() +
                                 "' does not conform to '" + tgt_super + "'");
      return false;
    }
  }

  // Interfaces: every target interface must be covered by some source
  // interface.
  for (const auto& tgt_itf : target.interfaces()) {
    bool covered = false;
    for (const auto& src_itf : source.interfaces()) {
      if (ref_conforms(src_itf, source.namespace_name(), tgt_itf,
                       target.namespace_name(), ctx)) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      push_failure(failures, "supertype aspect: no source interface conforms to '" +
                                 tgt_itf + "'");
      return false;
    }
  }
  return true;
}

bool ConformanceChecker::check_fields(const TypeDescription& source,
                                      const TypeDescription& target, Ctx& ctx,
                                      ConformancePlan& plan,
                                      std::vector<std::string>& failures) {
  if (target.fields().empty()) return true;
  const MemberNameIndex::Lease names(options_, source.fields());
  std::vector<const FieldDescription*> candidates;
  for (const auto& tgt_field : target.fields()) {
    candidates.clear();
    for (const std::uint32_t i : names->candidates(tgt_field.name)) {
      const FieldDescription& src_field = source.fields()[i];
      if (src_field.is_static != tgt_field.is_static) continue;
      if (!ref_conforms(src_field.type_name, source.namespace_name(), tgt_field.type_name,
                        target.namespace_name(), ctx)) {
        continue;
      }
      candidates.push_back(&src_field);
    }
    if (candidates.empty()) {
      push_failure(failures, "field aspect: no source field conforms to '" +
                                 tgt_field.name + ":" + tgt_field.type_name + "'");
      return false;
    }
    if (candidates.size() > 1 && options_.ambiguity == AmbiguityPolicy::Error) {
      push_failure(failures, "field aspect: " + std::to_string(candidates.size()) +
                                 " source fields match '" + tgt_field.name + "'");
      return false;
    }
    const FieldDescription* chosen = candidates.front();
    if (options_.ambiguity == AmbiguityPolicy::PreferExactName) {
      for (const FieldDescription* c : candidates) {
        if (util::iequals(c->name, tgt_field.name)) {
          chosen = c;
          break;
        }
      }
    }
    plan.add_field(FieldMapping{tgt_field.name, chosen->name, tgt_field.type_name,
                                chosen->type_name});
  }
  return true;
}

std::optional<std::vector<std::size_t>> ConformanceChecker::find_argument_permutation(
    const std::vector<ParamDescription>& source_params, std::string_view source_ns,
    const std::vector<ParamDescription>& target_params, std::string_view target_ns,
    Ctx& ctx) {
  const std::size_t n = source_params.size();
  if (n != target_params.size()) return std::nullopt;
  if (n == 0) return std::vector<std::size_t>{};

  // Contravariance (Fig. 2, aspect iv, case (2)): the *target's* argument
  // type must conform to the *source's* parameter type — the received
  // object's method will be fed values produced against the target
  // signature.
  std::vector<std::vector<bool>> compat(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (!options_.allow_permutations && i != j) continue;
      compat[i][j] = ref_conforms(target_params[j].type_name, target_ns,
                                  source_params[i].type_name, source_ns, ctx);
    }
  }

  // Fast path: identity permutation.
  bool identity_ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (!compat[i][i]) {
      identity_ok = false;
      break;
    }
  }
  if (identity_ok) {
    std::vector<std::size_t> id(n);
    for (std::size_t i = 0; i < n; ++i) id[i] = i;
    return id;
  }
  if (!options_.allow_permutations) return std::nullopt;

  // General case: perfect bipartite matching (Kuhn's augmenting paths);
  // polynomial, so wide signatures cannot blow up factorially.
  std::vector<std::size_t> target_owner(n, static_cast<std::size_t>(-1));
  const auto try_augment = [&](std::size_t i, auto&& self, std::vector<bool>& seen) -> bool {
    for (std::size_t j = 0; j < n; ++j) {
      if (!compat[i][j] || seen[j]) continue;
      seen[j] = true;
      if (target_owner[j] == static_cast<std::size_t>(-1) ||
          self(target_owner[j], self, seen)) {
        target_owner[j] = i;
        return true;
      }
    }
    return false;
  };
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<bool> seen(n, false);
    if (!try_augment(i, try_augment, seen)) return std::nullopt;
  }
  std::vector<std::size_t> perm(n, 0);
  for (std::size_t j = 0; j < n; ++j) perm[target_owner[j]] = j;
  return perm;
}

bool ConformanceChecker::check_methods(const TypeDescription& source,
                                       const TypeDescription& target, Ctx& ctx,
                                       ConformancePlan& plan,
                                       std::vector<std::string>& failures) {
  if (target.methods().empty()) return true;
  const MemberNameIndex::Lease names(options_, source.methods());
  struct Candidate {
    const MethodDescription* method;
    std::vector<std::size_t> permutation;
  };
  std::vector<Candidate> candidates;
  for (const auto& tgt_method : target.methods()) {
    candidates.clear();
    for (const std::uint32_t i : names->candidates(tgt_method.name)) {
      const MethodDescription& src_method = source.methods()[i];
      if (src_method.arity() != tgt_method.arity()) continue;
      if (options_.require_same_modifiers &&
          (src_method.visibility != tgt_method.visibility ||
           src_method.is_static != tgt_method.is_static)) {
        continue;
      }
      // Covariant return (Fig. 2, aspect iv, case (1)): the source's return
      // value is consumed where a target return value is expected.
      if (!ref_conforms(src_method.return_type, source.namespace_name(),
                        tgt_method.return_type, target.namespace_name(), ctx)) {
        continue;
      }
      auto perm = find_argument_permutation(src_method.params, source.namespace_name(),
                                            tgt_method.params, target.namespace_name(), ctx);
      if (!perm.has_value()) continue;
      candidates.push_back(Candidate{&src_method, std::move(*perm)});
    }

    if (candidates.empty()) {
      push_failure(failures, "method aspect: no source method conforms to '" +
                                 tgt_method.signature_string() + "'");
      return false;
    }
    if (candidates.size() > 1 && options_.ambiguity == AmbiguityPolicy::Error) {
      push_failure(failures, "method aspect: " + std::to_string(candidates.size()) +
                                 " source methods match '" +
                                 tgt_method.signature_string() + "'");
      return false;
    }
    const Candidate* chosen = &candidates.front();
    if (options_.ambiguity == AmbiguityPolicy::PreferExactName) {
      for (const Candidate& c : candidates) {
        if (util::iequals(c.method->name, tgt_method.name)) {
          chosen = &c;
          break;
        }
      }
    }

    MethodMapping mapping;
    mapping.target_name = tgt_method.name;
    mapping.source_name = chosen->method->name;
    mapping.arity = tgt_method.arity();
    mapping.arg_permutation = chosen->permutation;
    mapping.target_return_type = tgt_method.return_type;
    mapping.source_return_type = chosen->method->return_type;
    mapping.candidate_count = candidates.size();
    plan.add_method(std::move(mapping));
  }
  return true;
}

bool ConformanceChecker::check_constructors(const TypeDescription& source,
                                            const TypeDescription& target, Ctx& ctx,
                                            ConformancePlan& plan,
                                            std::vector<std::string>& failures) {
  for (const auto& tgt_ctor : target.constructors()) {
    struct Candidate {
      const ConstructorDescription* ctor;
      std::vector<std::size_t> permutation;
    };
    std::vector<Candidate> candidates;

    for (const auto& src_ctor : source.constructors()) {
      if (src_ctor.arity() != tgt_ctor.arity()) continue;
      if (options_.require_same_modifiers &&
          src_ctor.visibility != tgt_ctor.visibility) {
        continue;
      }
      auto perm = find_argument_permutation(src_ctor.params, source.namespace_name(),
                                            tgt_ctor.params, target.namespace_name(), ctx);
      if (!perm.has_value()) continue;
      candidates.push_back(Candidate{&src_ctor, std::move(*perm)});
    }

    if (candidates.empty()) {
      push_failure(failures, "constructor aspect: no source constructor conforms to '" +
                                 tgt_ctor.signature_string() + "'");
      return false;
    }
    if (candidates.size() > 1 && options_.ambiguity == AmbiguityPolicy::Error) {
      push_failure(failures, "constructor aspect: " + std::to_string(candidates.size()) +
                                 " source constructors match '" +
                                 tgt_ctor.signature_string() + "'");
      return false;
    }
    CtorMapping mapping;
    mapping.arity = tgt_ctor.arity();
    mapping.arg_permutation = candidates.front().permutation;
    mapping.candidate_count = candidates.size();
    plan.add_ctor(std::move(mapping));
  }
  return true;
}

}  // namespace pti::conform
