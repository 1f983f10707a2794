// Tests for the conformance engine: the paper's rules (Fig. 2), cycle
// handling, ambiguity, caching, missing-type reporting and the baseline
// matchers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "conform/baselines.hpp"
#include "conform/conformance_cache.hpp"
#include "conform/conformance_checker.hpp"
#include "fixtures/sample_types.hpp"
#include "reflect/domain.hpp"
#include "reflect/introspect.hpp"
#include "reflect/primitives.hpp"
#include "reflect/type_builder.hpp"
#include "util/levenshtein.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace pti::conform {
namespace {

using reflect::Args;
using reflect::Domain;
using reflect::DynObject;
using reflect::TypeBuilder;
using reflect::TypeDescription;
using reflect::TypeKind;
using reflect::Value;

/// A domain pre-loaded with the whole fixture universe.
class ConformTest : public ::testing::Test {
 protected:
  ConformTest() {
    domain_.load_assembly(fixtures::team_a_people());
    domain_.load_assembly(fixtures::team_b_people());
    domain_.load_assembly(fixtures::planner_meetings());
    domain_.load_assembly(fixtures::agenda_meetings());
    domain_.load_assembly(fixtures::bank_accounts());
    domain_.load_assembly(fixtures::lists_a());
    domain_.load_assembly(fixtures::lists_b());
    domain_.load_assembly(fixtures::tagged_a());
    domain_.load_assembly(fixtures::tagged_b());
  }

  const TypeDescription& type(std::string_view name) {
    const TypeDescription* d = domain_.registry().find(name);
    EXPECT_NE(d, nullptr) << name;
    return *d;
  }

  ConformanceChecker make_checker(ConformanceOptions options = {},
                                  ConformanceCache* cache = nullptr) {
    return ConformanceChecker(domain_.registry(), options, cache);
  }

  Domain domain_;
};

// --- the headline result: the paper's Person example -------------------------

TEST_F(ConformTest, TeamBPersonConformsToTeamAPerson) {
  ConformanceChecker checker = make_checker();
  const CheckResult r = checker.check(type("teamB.Person"), type("teamA.Person"));
  ASSERT_TRUE(r.conformant) << (r.failures.empty() ? "" : r.failures.front());
  EXPECT_EQ(r.plan.kind(), ConformanceKind::ImplicitStructural);

  // The plan must map the renamed accessors.
  const MethodMapping* get_name = r.plan.find_method("getName", 0);
  ASSERT_NE(get_name, nullptr);
  EXPECT_EQ(get_name->source_name, "getPersonName");
  const MethodMapping* set_name = r.plan.find_method("setName", 1);
  ASSERT_NE(set_name, nullptr);
  EXPECT_EQ(set_name->source_name, "setPersonName");
}

TEST_F(ConformTest, ConformanceIsMutualForThePersonPair) {
  ConformanceChecker checker = make_checker();
  EXPECT_TRUE(checker.conforms(type("teamA.Person"), type("teamB.Person")));
  EXPECT_TRUE(checker.conforms(type("teamB.Person"), type("teamA.Person")));
}

TEST_F(ConformTest, NestedAddressTypesConformRecursively) {
  ConformanceChecker checker = make_checker();
  EXPECT_TRUE(checker.conforms(type("teamB.Address"), type("teamA.Address")));
  const CheckResult r = checker.check(type("teamB.Address"), type("teamA.Address"));
  const MethodMapping* m = r.plan.find_method("getStreet", 0);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->source_name, "getStreetName");
}

TEST_F(ConformTest, InterfacesConformAcrossTeams) {
  ConformanceChecker checker = make_checker();
  // teamB's INamed implicitly conforms to teamA's INamed (same name,
  // token-conformant method).
  EXPECT_TRUE(checker.conforms(type("teamB.INamed"), type("teamA.INamed")));
  // A *class* named Person does NOT conform to an interface named INamed:
  // the paper's name aspect (rule i) applies to the types themselves.
  EXPECT_FALSE(checker.conforms(type("teamB.Person"), type("teamA.INamed")));
  // And an interface cannot stand in for a class.
  EXPECT_FALSE(checker.conforms(type("teamA.INamed"), type("teamB.Person")));
}

TEST_F(ConformTest, AccountConformsToNothingPersonish) {
  ConformanceChecker checker = make_checker();
  const CheckResult r = checker.check(type("bank.Account"), type("teamA.Person"));
  EXPECT_FALSE(r.conformant);
  ASSERT_FALSE(r.failures.empty());
  EXPECT_NE(r.failures.front().find("name aspect"), std::string::npos);
}

// --- conformance kinds ---------------------------------------------------

TEST_F(ConformTest, IdentityShortCircuits) {
  ConformanceChecker checker = make_checker();
  const CheckResult r = checker.check(type("teamA.Person"), type("teamA.Person"));
  EXPECT_TRUE(r.conformant);
  EXPECT_EQ(r.plan.kind(), ConformanceKind::Identity);
  EXPECT_TRUE(r.plan.is_passthrough());
}

TEST_F(ConformTest, EverythingConformsToObject) {
  ConformanceChecker checker = make_checker();
  EXPECT_TRUE(checker.conforms(type("teamA.Person"), type("object")));
  EXPECT_TRUE(checker.conforms(type("int32"), type("object")));
  EXPECT_TRUE(checker.conforms(type("bank.Account"), type("object")));
}

TEST_F(ConformTest, PrimitivesConformOnlyToThemselves) {
  ConformanceChecker checker = make_checker();
  EXPECT_TRUE(checker.conforms(type("int32"), type("int32")));
  EXPECT_FALSE(checker.conforms(type("int32"), type("int64")));
  EXPECT_FALSE(checker.conforms(type("int32"), type("string")));
  EXPECT_FALSE(checker.conforms(type("string"), type("teamA.Person")));
  EXPECT_FALSE(checker.conforms(type("teamA.Person"), type("string")));
}

TEST_F(ConformTest, NumericWideningIsOptIn) {
  ConformanceOptions options;
  options.allow_numeric_widening = true;
  ConformanceChecker widening = make_checker(options);
  EXPECT_TRUE(widening.conforms(type("int32"), type("int64")));
  EXPECT_TRUE(widening.conforms(type("int32"), type("float64")));
  EXPECT_TRUE(widening.conforms(type("int64"), type("float64")));
  EXPECT_FALSE(widening.conforms(type("int64"), type("int32")));  // no narrowing
  EXPECT_FALSE(widening.conforms(type("float64"), type("int32")));
}

TEST_F(ConformTest, ExplicitConformanceViaDeclaredInterface) {
  ConformanceChecker checker = make_checker();
  const CheckResult r = checker.check(type("teamA.Person"), type("teamA.INamed"));
  EXPECT_TRUE(r.conformant);
  EXPECT_EQ(r.plan.kind(), ConformanceKind::Explicit);
}

TEST_F(ConformTest, EquivalentWhenStructurallyEqual) {
  // Two identical descriptions in different namespaces with different GUIDs.
  Domain d;
  d.load_assembly(fixtures::wide_type("wa", "Widget", 3, 3));
  d.load_assembly(fixtures::wide_type("wb", "Widget", 3, 3));
  ConformanceChecker checker{d.registry()};
  const CheckResult r =
      checker.check(*d.registry().find("wa.Widget"), *d.registry().find("wb.Widget"));
  EXPECT_TRUE(r.conformant);
  EXPECT_EQ(r.plan.kind(), ConformanceKind::Equivalent);
}

// --- methods: covariance, contravariance, permutations ------------------------

TEST_F(ConformTest, ArgumentPermutationsAreFound) {
  ConformanceChecker checker = make_checker();
  const CheckResult r = checker.check(type("agenda.Meeting"), type("planner.Meeting"));
  ASSERT_TRUE(r.conformant) << (r.failures.empty() ? "" : r.failures.front());

  const MethodMapping* m = r.plan.find_method("reschedule", 2);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->source_name, "reschedule");
  // planner.reschedule(title:string, start:int64) maps onto
  // agenda.reschedule(begin:int64, title:string): source param 0 (int64)
  // takes target arg 1, source param 1 (string) takes target arg 0.
  EXPECT_FALSE(m->is_identity_permutation());
  ASSERT_EQ(m->arg_permutation.size(), 2u);
  EXPECT_EQ(m->arg_permutation[0], 1u);
  EXPECT_EQ(m->arg_permutation[1], 0u);

  // Constructors permute the same way.
  ASSERT_EQ(r.plan.ctors().size(), 1u);
  EXPECT_EQ(r.plan.ctors()[0].arg_permutation, (std::vector<std::size_t>{1, 0}));
}

TEST_F(ConformTest, PermutationsCanBeDisabled) {
  ConformanceOptions options;
  options.allow_permutations = false;
  ConformanceChecker strict = make_checker(options);
  EXPECT_FALSE(strict.conforms(type("agenda.Meeting"), type("planner.Meeting")));
  // Same-order signatures still work.
  EXPECT_TRUE(strict.conforms(type("teamB.Person"), type("teamA.Person")));
}

TEST_F(ConformTest, ReturnTypeIsCovariant) {
  Domain d;
  // target: make()->object   source: make()->Thing  (Thing ≼ object) OK.
  d.registry().add([] {
    TypeDescription t("t", "Factory", TypeKind::Class);
    t.add_method({"make", "object", {}, reflect::Visibility::Public, false});
    return t;
  }());
  d.registry().add([] {
    TypeDescription t("s", "Factory", TypeKind::Class);
    t.add_method({"make", "s.Thing", {}, reflect::Visibility::Public, false});
    return t;
  }());
  d.registry().add(TypeDescription("s", "Thing", TypeKind::Class));
  ConformanceChecker checker{d.registry()};
  EXPECT_TRUE(
      checker.conforms(*d.registry().find("s.Factory"), *d.registry().find("t.Factory")));
  // The reverse requires object ≼ s.Thing, which fails.
  EXPECT_FALSE(
      checker.conforms(*d.registry().find("t.Factory"), *d.registry().find("s.Factory")));
}

TEST_F(ConformTest, ModifiersMustMatchByDefault) {
  Domain d;
  d.registry().add([] {
    TypeDescription t("t", "Svc", TypeKind::Class);
    t.add_method({"run", "void", {}, reflect::Visibility::Public, false});
    return t;
  }());
  d.registry().add([] {
    TypeDescription t("s", "Svc", TypeKind::Class);
    t.add_method({"run", "void", {}, reflect::Visibility::Private, false});
    return t;
  }());
  ConformanceChecker checker{d.registry()};
  EXPECT_FALSE(
      checker.conforms(*d.registry().find("s.Svc"), *d.registry().find("t.Svc")));

  ConformanceOptions lax;
  lax.require_same_modifiers = false;
  ConformanceChecker lax_checker{d.registry(), lax};
  EXPECT_TRUE(
      lax_checker.conforms(*d.registry().find("s.Svc"), *d.registry().find("t.Svc")));
}

// --- recursive types ---------------------------------------------------------

TEST_F(ConformTest, RecursiveTypesConformCoinductively) {
  ConformanceChecker checker = make_checker();
  const CheckResult r = checker.check(type("listsB.Node"), type("listsA.Node"));
  ASSERT_TRUE(r.conformant) << (r.failures.empty() ? "" : r.failures.front());
  const MethodMapping* next = r.plan.find_method("getNext", 0);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->source_name, "getNextNode");
}

TEST_F(ConformTest, DeepChainsConform) {
  Domain d;
  d.load_assembly(fixtures::deep_type_chain("da", 8));
  d.load_assembly(fixtures::deep_type_chain("db", 8));
  ConformanceChecker checker{d.registry()};
  EXPECT_TRUE(checker.conforms(*d.registry().find("db.T0"), *d.registry().find("da.T0")));
  // Chains of different depth do not conform (leaf shapes differ).
  Domain d2;
  d2.load_assembly(fixtures::deep_type_chain("da", 4));
  d2.load_assembly(fixtures::deep_type_chain("db", 5));
  ConformanceChecker checker2{d2.registry()};
  EXPECT_FALSE(
      checker2.conforms(*d2.registry().find("db.T0"), *d2.registry().find("da.T0")));
}

// --- aspect toggles (the "weaker rule" the paper warns about) ------------------

TEST_F(ConformTest, NameOnlyRuleAcceptsUnsafeMatches) {
  ConformanceOptions weak;
  weak.check_fields = false;
  weak.check_methods = false;
  weak.check_constructors = false;
  weak.check_supertypes = false;
  ConformanceChecker weak_checker = make_checker(weak);

  // planner.Meeting and agenda.Meeting share the name — fine. But so do
  // *any* two types named alike, even with totally different members:
  Domain d;
  d.registry().add(TypeDescription("x", "Account", TypeKind::Class));
  ConformanceChecker wk{d.registry(), weak};
  d.registry().add([] {
    TypeDescription t("y", "Account", TypeKind::Class);
    t.add_method({"explode", "void", {}, reflect::Visibility::Public, false});
    return t;
  }());
  EXPECT_TRUE(wk.conforms(*d.registry().find("x.Account"), *d.registry().find("y.Account")));
  // ... which is exactly why the full rule checks all aspects: the full
  // checker refuses.
  ConformanceChecker full{d.registry()};
  EXPECT_FALSE(
      full.conforms(*d.registry().find("x.Account"), *d.registry().find("y.Account")));
  (void)weak_checker;
}

TEST_F(ConformTest, WildcardTargetNames) {
  ConformanceOptions options;
  options.allow_wildcards = true;
  ConformanceChecker checker = make_checker(options);
  TypeDescription pattern("", "Pers*", TypeKind::Class);
  EXPECT_TRUE(checker.conforms(type("teamB.Person"), pattern));
  TypeDescription nomatch("", "Acc*", TypeKind::Class);
  EXPECT_FALSE(checker.conforms(type("teamB.Person"), nomatch));
}

TEST_F(ConformTest, MemberNameRuleAblation) {
  // Exact member names reject the paper's own example...
  ConformanceOptions exact;
  exact.member_name_rule = MemberNameRule::Exact;
  EXPECT_FALSE(
      make_checker(exact).conforms(type("teamB.Person"), type("teamA.Person")));
  // ...token-subset (default) and a Levenshtein budget behave differently.
  ConformanceOptions fuzzy;
  fuzzy.member_name_rule = MemberNameRule::Exact;
  fuzzy.max_name_distance = 6;  // "getName" -> "getPersonName" is 6 edits
  EXPECT_TRUE(
      make_checker(fuzzy).conforms(type("teamB.Person"), type("teamA.Person")));
}

// --- ambiguity ------------------------------------------------------------

class AmbiguityTest : public ::testing::Test {
 protected:
  AmbiguityTest() {
    // Target wants getName; source offers getName AND getNickName — both
    // token-conformant.
    domain_.registry().add([] {
      TypeDescription t("tgt", "Person", TypeKind::Class);
      t.add_method({"getName", "string", {}, reflect::Visibility::Public, false});
      return t;
    }());
    domain_.registry().add([] {
      TypeDescription t("src", "Person", TypeKind::Class);
      t.add_method({"getNickName", "string", {}, reflect::Visibility::Public, false});
      t.add_method({"getName", "string", {}, reflect::Visibility::Public, false});
      return t;
    }());
  }
  Domain domain_;
};

TEST_F(AmbiguityTest, FirstPolicyPicksDeclarationOrder) {
  ConformanceChecker checker{domain_.registry()};
  const CheckResult r = checker.check(*domain_.registry().find("src.Person"),
                                      *domain_.registry().find("tgt.Person"));
  ASSERT_TRUE(r.conformant);
  const MethodMapping* m = r.plan.find_method("getName", 0);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->source_name, "getNickName");  // declared first
  EXPECT_EQ(m->candidate_count, 2u);
  EXPECT_TRUE(r.plan.has_ambiguities());
}

TEST_F(AmbiguityTest, PreferExactNamePolicy) {
  ConformanceOptions options;
  options.ambiguity = AmbiguityPolicy::PreferExactName;
  ConformanceChecker checker{domain_.registry(), options};
  const CheckResult r = checker.check(*domain_.registry().find("src.Person"),
                                      *domain_.registry().find("tgt.Person"));
  ASSERT_TRUE(r.conformant);
  EXPECT_EQ(r.plan.find_method("getName", 0)->source_name, "getName");
}

TEST_F(AmbiguityTest, ErrorPolicyRefuses) {
  ConformanceOptions options;
  options.ambiguity = AmbiguityPolicy::Error;
  ConformanceChecker checker{domain_.registry(), options};
  const CheckResult r = checker.check(*domain_.registry().find("src.Person"),
                                      *domain_.registry().find("tgt.Person"));
  EXPECT_FALSE(r.conformant);
  ASSERT_FALSE(r.failures.empty());
  EXPECT_NE(r.failures.front().find("2 source methods"), std::string::npos);
}

// --- missing types -------------------------------------------------------

TEST_F(ConformTest, MissingReferencedTypesAreReported) {
  Domain d;
  d.registry().add([] {
    TypeDescription t("remote", "Person", TypeKind::Class);
    t.add_field({"address", "remote.Address", reflect::Visibility::Private, false});
    return t;
  }());
  d.registry().add([] {
    TypeDescription t("local", "Person", TypeKind::Class);
    t.add_field({"address", "local.Address", reflect::Visibility::Private, false});
    return t;
  }());
  d.registry().add(TypeDescription("local", "Address", TypeKind::Class));
  // remote.Address is unknown.
  ConformanceChecker checker{d.registry()};
  const CheckResult r = checker.check(*d.registry().find("remote.Person"),
                                      *d.registry().find("local.Person"));
  EXPECT_FALSE(r.conformant);
  ASSERT_FALSE(r.missing_types.empty());
  EXPECT_EQ(r.missing_types.front(), "remote.Address");

  // Once the missing description is supplied, the verdict flips.
  d.registry().add(TypeDescription("remote", "Address", TypeKind::Class));
  const CheckResult r2 = checker.check(*d.registry().find("remote.Person"),
                                       *d.registry().find("local.Person"));
  EXPECT_TRUE(r2.conformant);
  EXPECT_TRUE(r2.missing_types.empty());
}

// --- cache ------------------------------------------------------------------

TEST_F(ConformTest, CacheHitsAndConsistency) {
  ConformanceCache cache;
  ConformanceChecker checker = make_checker({}, &cache);

  const CheckResult first = checker.check(type("teamB.Person"), type("teamA.Person"));
  const auto misses_after_first = cache.stats().misses;
  EXPECT_GT(cache.size(), 0u);

  const CheckResult second = checker.check(type("teamB.Person"), type("teamA.Person"));
  EXPECT_EQ(cache.stats().misses, misses_after_first);  // no new misses
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_EQ(first.conformant, second.conformant);
  EXPECT_EQ(second.plan.find_method("getName", 0)->source_name, "getPersonName");

  // Different options -> different fingerprint -> separate entries.
  ConformanceOptions exact;
  exact.member_name_rule = MemberNameRule::Exact;
  ConformanceChecker other = make_checker(exact, &cache);
  EXPECT_FALSE(other.conforms(type("teamB.Person"), type("teamA.Person")));
  EXPECT_TRUE(checker.conforms(type("teamB.Person"), type("teamA.Person")));
}

TEST_F(ConformTest, NegativeVerdictsAreCachedToo) {
  ConformanceCache cache;
  ConformanceChecker checker = make_checker({}, &cache);
  EXPECT_FALSE(checker.conforms(type("bank.Account"), type("teamA.Person")));
  const auto hits_before = cache.stats().hits;
  EXPECT_FALSE(checker.conforms(type("bank.Account"), type("teamA.Person")));
  EXPECT_GT(cache.stats().hits, hits_before);
}

// --- equivalence helper ---------------------------------------------------

TEST_F(ConformTest, EquivalentHelper) {
  EXPECT_TRUE(
      ConformanceChecker::equivalent(type("teamA.Person"), type("teamA.Person")));
  EXPECT_FALSE(
      ConformanceChecker::equivalent(type("teamB.Person"), type("teamA.Person")));
}

// --- baselines ------------------------------------------------------------

TEST_F(ConformTest, ExactMatcherOnlyAcceptsIdentity) {
  ExactMatcher exact;
  EXPECT_TRUE(exact.matches(type("teamA.Person"), type("teamA.Person")));
  EXPECT_FALSE(exact.matches(type("teamB.Person"), type("teamA.Person")));
  EXPECT_FALSE(exact.matches(type("taggedA.Point"), type("taggedB.Point")));
}

TEST_F(ConformTest, NominalMatcherAcceptsDeclaredSubtyping) {
  NominalMatcher nominal(domain_.registry());
  EXPECT_TRUE(nominal.matches(type("teamA.Person"), type("teamA.INamed")));
  EXPECT_TRUE(nominal.matches(type("teamA.Person"), type("teamA.Person")));
  EXPECT_FALSE(nominal.matches(type("teamB.Person"), type("teamA.Person")));
  EXPECT_FALSE(nominal.matches(type("teamB.Person"), type("teamA.INamed")));
}

TEST_F(ConformTest, TaggedStructuralMatcherRequiresTags) {
  TaggedStructuralMatcher tagged(domain_.registry());
  // Both tagged, identical method sets: match.
  EXPECT_TRUE(tagged.matches(type("taggedB.Point"), type("taggedA.Point")));
  // Untagged twin: no match, even with identical structure — the
  // restriction the paper lifts.
  EXPECT_FALSE(tagged.matches(type("taggedB.PlainPoint"), type("taggedA.Point")));
  // Tagged but renamed members (the Person pair): no match either.
  EXPECT_FALSE(tagged.matches(type("teamB.Person"), type("teamA.Person")));
}

TEST_F(ConformTest, ImplicitMatcherSubsumesTheOthersOnPositives) {
  // Containment property: whatever exact/nominal accept, implicit accepts.
  ExactMatcher exact;
  NominalMatcher nominal(domain_.registry());
  ImplicitStructuralMatcher implicit(domain_.registry());
  const std::array<std::string_view, 6> names = {
      "teamA.Person", "teamB.Person",   "teamA.INamed",
      "bank.Account", "planner.Meeting", "agenda.Meeting"};
  for (const auto src : names) {
    for (const auto tgt : names) {
      const TypeDescription& s = type(src);
      const TypeDescription& t = type(tgt);
      if (exact.matches(s, t)) {
        EXPECT_TRUE(implicit.matches(s, t)) << src << "->" << tgt;
      }
      if (nominal.matches(s, t)) {
        EXPECT_TRUE(implicit.matches(s, t)) << src << "->" << tgt;
      }
    }
  }
}

// --- member-name matching ------------------------------------------------------

// The paper's motivating example, both directions, plus separator and
// negative cases, as the checker's default TokenSubset member rule sees them.
TEST(MemberNameRule, TokenSubsetMatchesEitherInclusion) {
  const auto conforms = [](std::string_view source_member, std::string_view target_member) {
    Domain d;
    TypeDescription source("s", "T", TypeKind::Class);
    source.add_field({std::string(source_member), "int32"});
    TypeDescription target("t", "T", TypeKind::Class);
    target.add_field({std::string(target_member), "int32"});
    return ConformanceChecker(d.registry()).conforms(source, target);
  };
  EXPECT_TRUE(conforms("getName", "getPersonName"));
  EXPECT_TRUE(conforms("getPersonName", "getName"));
  EXPECT_TRUE(conforms("setName", "set_name"));
  EXPECT_FALSE(conforms("getName", "getBalance"));
  EXPECT_FALSE(conforms("deposit", "withdraw"));
  EXPECT_TRUE(conforms("_", "--"));  // token-less names match each other only
  EXPECT_FALSE(conforms("_", "name"));
  EXPECT_FALSE(conforms("name", "_"));
}

// The member matching the checker did before it became an index join: every
// (target, source) pair compared by name, both names tokenized per pair.
// Kept verbatim as the reference the index join must reproduce.
namespace reference {

std::vector<std::string> identifier_tokens(std::string_view identifier) {
  std::vector<std::string> tokens;
  std::string current;
  const auto flush = [&] {
    if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  };
  const auto is_upper = [](char c) { return c >= 'A' && c <= 'Z'; };
  const auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
  for (std::size_t i = 0; i < identifier.size(); ++i) {
    const char c = identifier[i];
    if (c == '_' || c == '-' || c == ' ') {
      flush();
      continue;
    }
    if (is_upper(c)) {
      const bool prev_lower = i > 0 && !is_upper(identifier[i - 1]) &&
                              !is_digit(identifier[i - 1]) && identifier[i - 1] != '_';
      const bool next_lower = i + 1 < identifier.size() && !is_upper(identifier[i + 1]) &&
                              !is_digit(identifier[i + 1]) && identifier[i + 1] != '_';
      if (prev_lower || (next_lower && !current.empty())) flush();
    } else if (is_digit(c)) {
      if (!current.empty() && !is_digit(current.back())) flush();
    } else if (!current.empty() && is_digit(current.back())) {
      flush();
    }
    current.push_back(util::to_lower(c));
  }
  flush();
  return tokens;
}

bool token_subset_match(std::string_view a, std::string_view b) {
  const std::vector<std::string> ta = identifier_tokens(a);
  const std::vector<std::string> tb = identifier_tokens(b);
  const auto subset = [](const std::vector<std::string>& small,
                         const std::vector<std::string>& big) {
    for (const auto& t : small) {
      if (std::find(big.begin(), big.end(), t) == big.end()) return false;
    }
    return true;
  };
  if (ta.empty() || tb.empty()) return ta.empty() && tb.empty();
  return subset(ta, tb) || subset(tb, ta);
}

bool member_name_conforms(const ConformanceOptions& options, std::string_view source_name,
                          std::string_view target_name) {
  if (options.allow_wildcards && target_name.find_first_of("*?") != std::string_view::npos) {
    return util::wildcard_match(target_name, source_name);
  }
  switch (options.member_name_rule) {
    case MemberNameRule::Exact:
      return util::levenshtein_within(source_name, target_name, options.max_name_distance,
                                      true);
    case MemberNameRule::Contains:
      return util::icontains(source_name, target_name) ||
             util::icontains(target_name, source_name);
    case MemberNameRule::TokenSubset:
      return token_subset_match(source_name, target_name);
  }
  return false;
}

/// The generated members reference primitives only, which conform exactly
/// when they are the same primitive (numeric widening stays off).
bool primitive_conforms(std::string_view source_type, std::string_view target_type) {
  return reflect::canonical_primitive(source_type) ==
         reflect::canonical_primitive(target_type);
}

std::optional<std::vector<std::size_t>> argument_permutation(
    const std::vector<reflect::ParamDescription>& source_params,
    const std::vector<reflect::ParamDescription>& target_params) {
  const std::size_t n = source_params.size();
  std::vector<std::vector<bool>> compat(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      compat[i][j] =
          primitive_conforms(target_params[j].type_name, source_params[i].type_name);
    }
  }
  bool identity_ok = true;
  for (std::size_t i = 0; i < n; ++i) identity_ok = identity_ok && compat[i][i];
  if (identity_ok) {
    std::vector<std::size_t> id(n);
    for (std::size_t i = 0; i < n; ++i) id[i] = i;
    return id;
  }
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

struct Outcome {
  bool conformant = false;
  std::vector<std::string> failures;
  std::vector<FieldMapping> fields;
  std::vector<MethodMapping> methods;
  /// Most source candidates any target member had.
  std::size_t max_candidates = 0;
};

/// The field and method aspects of rule (vi) over a same-named,
/// supertype-free, constructor-free pair.
Outcome check_members(const TypeDescription& source, const TypeDescription& target,
                      const ConformanceOptions& options) {
  Outcome out;
  for (const auto& tgt_field : target.fields()) {
    std::vector<const reflect::FieldDescription*> candidates;
    for (const auto& src_field : source.fields()) {
      if (!member_name_conforms(options, src_field.name, tgt_field.name)) continue;
      if (src_field.is_static != tgt_field.is_static) continue;
      if (!primitive_conforms(src_field.type_name, tgt_field.type_name)) continue;
      candidates.push_back(&src_field);
    }
    out.max_candidates = std::max(out.max_candidates, candidates.size());
    if (candidates.empty()) {
      out.failures.push_back("field aspect: no source field conforms to '" + tgt_field.name +
                             ":" + tgt_field.type_name + "'");
      return out;
    }
    if (candidates.size() > 1 && options.ambiguity == AmbiguityPolicy::Error) {
      out.failures.push_back("field aspect: " + std::to_string(candidates.size()) +
                             " source fields match '" + tgt_field.name + "'");
      return out;
    }
    const reflect::FieldDescription* chosen = candidates.front();
    if (options.ambiguity == AmbiguityPolicy::PreferExactName) {
      for (const auto* c : candidates) {
        if (util::iequals(c->name, tgt_field.name)) {
          chosen = c;
          break;
        }
      }
    }
    out.fields.push_back(
        FieldMapping{tgt_field.name, chosen->name, tgt_field.type_name, chosen->type_name});
  }
  for (const auto& tgt_method : target.methods()) {
    std::vector<std::pair<const reflect::MethodDescription*, std::vector<std::size_t>>>
        candidates;
    for (const auto& src_method : source.methods()) {
      if (src_method.arity() != tgt_method.arity()) continue;
      if (!member_name_conforms(options, src_method.name, tgt_method.name)) continue;
      if (src_method.visibility != tgt_method.visibility ||
          src_method.is_static != tgt_method.is_static) {
        continue;
      }
      if (!primitive_conforms(src_method.return_type, tgt_method.return_type)) continue;
      auto perm = argument_permutation(src_method.params, tgt_method.params);
      if (!perm.has_value()) continue;
      candidates.emplace_back(&src_method, std::move(*perm));
    }
    out.max_candidates = std::max(out.max_candidates, candidates.size());
    if (candidates.empty()) {
      out.failures.push_back("method aspect: no source method conforms to '" +
                             tgt_method.signature_string() + "'");
      return out;
    }
    if (candidates.size() > 1 && options.ambiguity == AmbiguityPolicy::Error) {
      out.failures.push_back("method aspect: " + std::to_string(candidates.size()) +
                             " source methods match '" + tgt_method.signature_string() +
                             "'");
      return out;
    }
    const auto* chosen = &candidates.front();
    if (options.ambiguity == AmbiguityPolicy::PreferExactName) {
      for (const auto& c : candidates) {
        if (util::iequals(c.first->name, tgt_method.name)) {
          chosen = &c;
          break;
        }
      }
    }
    MethodMapping m;
    m.target_name = tgt_method.name;
    m.source_name = chosen->first->name;
    m.arity = tgt_method.arity();
    m.arg_permutation = chosen->second;
    m.target_return_type = tgt_method.return_type;
    m.source_return_type = chosen->first->return_type;
    m.candidate_count = candidates.size();
    out.methods.push_back(std::move(m));
  }
  out.conformant = true;
  return out;
}

}  // namespace reference

/// Seeded member sets over names that stress every rule: camelCase,
/// acronyms, digit runs, `_`/`-` separators, token-less names, duplicate
/// and overlapping names, wildcard patterns, near-miss spellings.
class MemberSetGenerator {
 public:
  explicit MemberSetGenerator(std::uint64_t seed) : rng_(seed) {}

  /// A type of up to `max_fields` fields and `max_methods` methods. With
  /// `like`, about half of the members copy one of `like`'s (name, type
  /// and modifiers) so that many checks conform, some ambiguously.
  TypeDescription make(const std::string& ns, std::size_t max_fields, std::size_t max_methods,
                       const TypeDescription* like = nullptr) {
    TypeDescription t(ns, "Rec", TypeKind::Class);
    const std::size_t fields = rng_.next_below(max_fields + 1);
    for (std::size_t i = 0; i < fields; ++i) {
      if (like != nullptr && !like->fields().empty() && rng_.next_bool(0.5)) {
        t.add_field(like->fields()[rng_.next_below(like->fields().size())]);
      } else {
        t.add_field({name(), type(), reflect::Visibility::Private, rng_.next_bool(0.15)});
      }
    }
    const std::size_t methods = rng_.next_below(max_methods + 1);
    for (std::size_t i = 0; i < methods; ++i) {
      if (like != nullptr && !like->methods().empty() && rng_.next_bool(0.5)) {
        t.add_method(like->methods()[rng_.next_below(like->methods().size())]);
        continue;
      }
      const std::size_t arity = rng_.next_bool(0.5) ? 0 : 1 + rng_.next_below(2);
      std::vector<reflect::ParamDescription> params(arity);
      for (std::size_t p = 0; p < params.size(); ++p) {
        params[p] = {"p" + std::to_string(p), type()};
      }
      t.add_method({name(), type(), std::move(params),
                    rng_.next_bool(0.85) ? reflect::Visibility::Public
                                         : reflect::Visibility::Private,
                    rng_.next_bool(0.15)});
    }
    return t;
  }

 private:
  std::string name() {
    static constexpr const char* kFixed[] = {
        "name",     "personName", "getName",  "getPersonName", "get_name", "GetNAME",
        "getname",  "Name",       "nam",      "namE",          "names",    "nameName",
        "XMLParser", "xmlParser", "parseXML", "XML",           "f0",       "f1",
        "f10",      "f01",        "getF0",    "getF10",        "URL2Fetch", "url_2_fetch",
        "_",        "__",         "-",        "a-b",           "A_B",      "ab",
        "id",       "ID",         "getId",    "setName",       "set_name", "getNickName",
        "get*",     "*Name",      "?ame",     "f?",            "*",        "n*e",
        "get",      "value",      "getValue", "val",           "vale",     "getValue2",
        "getPersonNameXmlUrlIdValueF0Set12",   "setPersonName_xml_url_ID_value_f_0"};
    static constexpr const char* kTokens[] = {"get", "set", "name", "person", "f",  "0",
                                              "12",  "xml", "url",  "id",     "value"};
    if (rng_.next_bool(0.6)) return kFixed[rng_.next_below(std::size(kFixed))];
    // A random identifier from a small token vocabulary; some are long,
    // with many distinct tokens.
    std::string out;
    const std::size_t tokens = 1 + rng_.next_below(rng_.next_bool(0.2) ? 14 : 4);
    for (std::size_t i = 0; i < tokens; ++i) {
      std::string token = kTokens[rng_.next_below(std::size(kTokens))];
      const std::uint64_t style = rng_.next_below(4);
      if (i > 0 && style == 0) out.push_back('_');
      if (i > 0 && style == 1) out.push_back('-');
      if (style == 2) {
        for (char& c : token) c = static_cast<char>(std::toupper(c));
      } else if (i > 0 || style == 3) {
        token[0] = static_cast<char>(std::toupper(token[0]));
      }
      out += token;
    }
    return out;
  }

  std::string type() {
    static constexpr std::string_view kTypes[] = {reflect::kInt32Type, reflect::kInt32Type,
                                                  reflect::kStringType, reflect::kFloat64Type};
    return std::string(kTypes[rng_.next_below(std::size(kTypes))]);
  }

  util::Rng rng_;
};

TEST(MemberMatchingDifferential, IndexJoinReproducesThePerPairLoop) {
  constexpr std::uint64_t kSeeds = 400;
  std::size_t conformant = 0;
  std::size_t ambiguous = 0;
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    MemberSetGenerator gen(seed);
    Domain domain;
    const TypeDescription& source =
        domain.registry().add(gen.make("src" + std::to_string(seed), 14, 14));
    const TypeDescription& target =
        domain.registry().add(gen.make("tgt" + std::to_string(seed), 3, 3, &source));
    for (const MemberNameRule rule :
         {MemberNameRule::TokenSubset, MemberNameRule::Contains, MemberNameRule::Exact}) {
      for (const AmbiguityPolicy ambiguity : {AmbiguityPolicy::First,
                                              AmbiguityPolicy::PreferExactName,
                                              AmbiguityPolicy::Error}) {
        for (const bool wildcards : {false, true}) {
          for (const std::uint32_t distance : {0U, 1U, 2U}) {
            ConformanceOptions options;
            options.member_name_rule = rule;
            options.ambiguity = ambiguity;
            options.allow_wildcards = wildcards;
            options.max_name_distance = distance;
            const std::string where = "seed " + std::to_string(seed) + " rule " +
                                      std::to_string(static_cast<int>(rule)) + " ambiguity " +
                                      std::to_string(static_cast<int>(ambiguity)) +
                                      " wildcards " + std::to_string(wildcards) +
                                      " distance " + std::to_string(distance);
            const CheckResult got = ConformanceChecker(domain.registry(), options)
                                        .check(source, target);
            ++compared;
            if (source.structurally_equal(target)) {
              EXPECT_TRUE(got.conformant) << where;
              EXPECT_EQ(got.plan.kind(), ConformanceKind::Equivalent) << where;
              continue;
            }
            const reference::Outcome want = reference::check_members(source, target, options);
            ASSERT_EQ(got.conformant, want.conformant) << where;
            ASSERT_EQ(got.failures, want.failures) << where;
            if (want.max_candidates > 1) ++ambiguous;
            if (!want.conformant) continue;
            ++conformant;
            ASSERT_EQ(got.plan.kind(), ConformanceKind::ImplicitStructural) << where;
            ASSERT_EQ(got.plan.fields().size(), want.fields.size()) << where;
            for (std::size_t i = 0; i < want.fields.size(); ++i) {
              const FieldMapping& g = got.plan.fields()[i];
              const FieldMapping& w = want.fields[i];
              EXPECT_EQ(g.target_field, w.target_field) << where;
              EXPECT_EQ(g.source_field, w.source_field) << where;
              EXPECT_EQ(g.target_type, w.target_type) << where;
              EXPECT_EQ(g.source_type, w.source_type) << where;
            }
            ASSERT_EQ(got.plan.methods().size(), want.methods.size()) << where;
            for (std::size_t i = 0; i < want.methods.size(); ++i) {
              const MethodMapping& g = got.plan.methods()[i];
              const MethodMapping& w = want.methods[i];
              EXPECT_EQ(g.target_name, w.target_name) << where;
              EXPECT_EQ(g.source_name, w.source_name) << where;
              EXPECT_EQ(g.arity, w.arity) << where;
              EXPECT_EQ(g.arg_permutation, w.arg_permutation) << where;
              EXPECT_EQ(g.target_return_type, w.target_return_type) << where;
              EXPECT_EQ(g.source_return_type, w.source_return_type) << where;
              EXPECT_EQ(g.candidate_count, w.candidate_count) << where;
            }
          }
        }
      }
    }
  }
  // The generator must reach the interesting cases, not only rejections.
  EXPECT_EQ(compared, kSeeds * 54);
  EXPECT_GT(conformant, compared / 20);
  std::cout << "[          ] " << compared << " checks, " << conformant << " conformant, "
            << ambiguous << " with an ambiguous member\n";
  EXPECT_GT(ambiguous, compared / 40);
}

// --- reflexivity property over the whole fixture universe ---------------------

class ReflexivityProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(ReflexivityProperty, EveryTypeConformsToItself) {
  Domain domain;
  domain.load_assembly(fixtures::team_a_people());
  domain.load_assembly(fixtures::team_b_people());
  domain.load_assembly(fixtures::planner_meetings());
  domain.load_assembly(fixtures::agenda_meetings());
  domain.load_assembly(fixtures::bank_accounts());
  domain.load_assembly(fixtures::lists_a());
  domain.load_assembly(fixtures::tagged_a());
  ConformanceChecker checker{domain.registry()};
  const reflect::TypeDescription* d = domain.registry().find(GetParam());
  ASSERT_NE(d, nullptr);
  const CheckResult r = checker.check(*d, *d);
  EXPECT_TRUE(r.conformant);
  EXPECT_EQ(r.plan.kind(), ConformanceKind::Identity);
}

INSTANTIATE_TEST_SUITE_P(AllFixtureTypes, ReflexivityProperty,
                         ::testing::Values("teamA.Person", "teamA.Address",
                                           "teamA.INamed", "teamB.Person",
                                           "teamB.Address", "planner.Meeting",
                                           "agenda.Meeting", "bank.Account",
                                           "listsA.Node", "taggedA.Point", "int32",
                                           "string", "object"));

}  // namespace
}  // namespace pti::conform
