// Unit and property tests for the util substrate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/base64.hpp"
#include "util/byte_buffer.hpp"
#include "util/dense_id_map.hpp"
#include "util/guid.hpp"
#include "util/hash.hpp"
#include "util/levenshtein.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"
#include "util/string_util.hpp"

namespace pti::util {
namespace {

// --- string_util -------------------------------------------------------------

TEST(StringUtil, ToLower) {
  EXPECT_EQ(to_lower("AbC123xYz"), "abc123xyz");
  EXPECT_EQ(to_lower(""), "");
}

TEST(StringUtil, IEquals) {
  EXPECT_TRUE(iequals("Person", "person"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("Person", "Persons"));
  EXPECT_FALSE(iequals("Person", "Persom"));
}

TEST(StringUtil, ILessIsStrictWeakOrder) {
  EXPECT_TRUE(iless("abc", "abd"));
  EXPECT_FALSE(iless("ABD", "abc"));
  EXPECT_FALSE(iless("abc", "ABC"));  // equal
  EXPECT_TRUE(iless("ab", "abc"));    // prefix
}

TEST(StringUtil, StartsEndsWith) {
  EXPECT_TRUE(starts_with("net://peer/assembly", "net://"));
  EXPECT_FALSE(starts_with("net:/x", "net://"));
  EXPECT_TRUE(ends_with("foo.xml", ".xml"));
  EXPECT_FALSE(ends_with("xml", ".xml"));
}

TEST(StringUtil, SplitPreservesEmptySegments) {
  EXPECT_EQ(split("a.b..c", '.'), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", '.'), (std::vector<std::string>{""}));
  EXPECT_EQ(join({"a", "b", "c"}, "::"), "a::b::c");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  x \t\n"), "x");
  EXPECT_EQ(trim("\r\n"), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(StringUtil, WildcardMatch) {
  EXPECT_TRUE(wildcard_match("Person*", "PersonRecord"));
  EXPECT_TRUE(wildcard_match("*name*", "getPersonName"));
  EXPECT_TRUE(wildcard_match("P?rson", "Person"));
  EXPECT_TRUE(wildcard_match("*", ""));
  EXPECT_FALSE(wildcard_match("Person", "Persons"));
  EXPECT_FALSE(wildcard_match("a*b", "ac"));
}

TEST(StringUtil, IContains) {
  EXPECT_TRUE(icontains("getPersonName", "PERSON"));
  EXPECT_TRUE(icontains("abc", ""));
  EXPECT_FALSE(icontains("ab", "abc"));
  EXPECT_FALSE(icontains("getname", "person"));
}

/// The folded tokens IdentifierTokens yields for `identifier`.
std::vector<std::string> identifier_tokens(std::string_view identifier) {
  std::vector<std::string> out;
  IdentifierTokens tokens(identifier);
  for (std::string_view t = tokens.next(); !t.empty(); t = tokens.next()) {
    out.push_back(to_lower(t));
  }
  return out;
}

TEST(StringUtil, IdentifierTokens) {
  EXPECT_EQ(identifier_tokens("getPersonName"),
            (std::vector<std::string>{"get", "person", "name"}));
  EXPECT_EQ(identifier_tokens("set_name"), (std::vector<std::string>{"set", "name"}));
  EXPECT_EQ(identifier_tokens("XMLParser"), (std::vector<std::string>{"xml", "parser"}));
  EXPECT_EQ(identifier_tokens("f0"), (std::vector<std::string>{"f", "0"}));
  EXPECT_EQ(identifier_tokens(""), (std::vector<std::string>{}));
}

TEST(StringUtil, IdentifierTokensAreViewsOfTheIdentifier) {
  const std::string_view id = "getURL2Fetch-now";
  IdentifierTokens tokens(id);
  std::vector<std::string_view> views;
  for (std::string_view t = tokens.next(); !t.empty(); t = tokens.next()) views.push_back(t);
  EXPECT_EQ(views, (std::vector<std::string_view>{"get", "URL", "2", "Fetch", "now"}));
  for (std::string_view v : views) {
    EXPECT_GE(v.data(), id.data());
    EXPECT_LE(v.data() + v.size(), id.data() + id.size());
  }
  EXPECT_TRUE(tokens.next().empty());
  EXPECT_EQ(identifier_tokens("_-_ "), (std::vector<std::string>{}));
  EXPECT_EQ(identifier_tokens("AB-c"), (std::vector<std::string>{"a", "b", "c"}));
}

// --- levenshtein ----------------------------------------------------------

TEST(Levenshtein, KnownDistances) {
  EXPECT_EQ(levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(levenshtein("", "abc"), 3u);
  EXPECT_EQ(levenshtein("abc", ""), 3u);
  EXPECT_EQ(levenshtein("person", "PERSON"), 0u);  // case-insensitive default
  EXPECT_EQ(levenshtein("person", "PERSON", /*case_insensitive=*/false), 6u);
  EXPECT_EQ(levenshtein("flaw", "lawn"), 2u);
}

TEST(Levenshtein, WithinThreshold) {
  EXPECT_TRUE(levenshtein_within("Person", "person", 0));
  EXPECT_FALSE(levenshtein_within("Person", "Persons", 0));
  EXPECT_TRUE(levenshtein_within("Person", "Persons", 1));
  EXPECT_TRUE(levenshtein_within("kitten", "sitting", 3));
  EXPECT_FALSE(levenshtein_within("kitten", "sitting", 2));
  EXPECT_FALSE(levenshtein_within("a", "abcdefg", 3));
}

/// Property suite over generated word pairs: metric axioms + threshold
/// consistency.
class LevenshteinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LevenshteinProperty, MetricAxiomsAndBandedConsistency) {
  Rng rng(GetParam());
  const auto random_word = [&rng] {
    const std::size_t len = rng.next_below(12);
    std::string w;
    for (std::size_t i = 0; i < len; ++i) {
      w.push_back(static_cast<char>('a' + rng.next_below(4)));  // small alphabet
    }
    return w;
  };
  for (int iter = 0; iter < 50; ++iter) {
    const std::string a = random_word();
    const std::string b = random_word();
    const std::string c = random_word();
    const std::size_t dab = levenshtein(a, b);
    const std::size_t dba = levenshtein(b, a);
    const std::size_t dac = levenshtein(a, c);
    const std::size_t dcb = levenshtein(c, b);
    EXPECT_EQ(dab, dba) << a << " / " << b;                      // symmetry
    EXPECT_EQ(levenshtein(a, a), 0u);                            // identity
    EXPECT_LE(dab, dac + dcb) << a << "," << b << "," << c;      // triangle
    const std::size_t size_gap = a.size() > b.size() ? a.size() - b.size()
                                                     : b.size() - a.size();
    EXPECT_GE(dab, size_gap);                                    // lower bound
    EXPECT_LE(dab, std::max(a.size(), b.size()));                // upper bound
    // Banded early-exit variant agrees with the exact distance.
    for (std::size_t k = 0; k <= 4; ++k) {
      EXPECT_EQ(levenshtein_within(a, b, k), dab <= k)
          << a << " / " << b << " k=" << k << " d=" << dab;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevenshteinProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- guid -------------------------------------------------------------------

TEST(Guid, FromNameIsDeterministicAndCaseInsensitive) {
  const Guid a = Guid::from_name("teamA.Person");
  const Guid b = Guid::from_name("teama.person");
  const Guid c = Guid::from_name("teamB.Person");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_FALSE(a.is_nil());
}

TEST(Guid, RoundTripsThroughString) {
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    const Guid g = Guid::random(rng);
    const std::string text = g.to_string();
    EXPECT_EQ(text.size(), 36u);
    const auto parsed = Guid::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(*parsed, g);
  }
}

TEST(Guid, ParseRejectsMalformedInput) {
  EXPECT_FALSE(Guid::parse("").has_value());
  EXPECT_FALSE(Guid::parse("1234").has_value());
  EXPECT_FALSE(Guid::parse("zzzzzzzz-zzzz-zzzz-zzzz-zzzzzzzzzzzz").has_value());
  EXPECT_FALSE(Guid::parse("12345678-1234-1234-1234-12345678901").has_value());
  EXPECT_FALSE(Guid::parse("12345678x1234-1234-1234-123456789012").has_value());
}

TEST(Guid, NilBehaviour) {
  EXPECT_TRUE(Guid{}.is_nil());
  EXPECT_EQ(Guid{}.to_string(), "00000000-0000-0000-0000-000000000000");
}

// --- base64 --------------------------------------------------------------

TEST(Base64, KnownVectors) {
  const auto enc = [](std::string_view s) {
    return base64_encode(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  };
  EXPECT_EQ(enc(""), "");
  EXPECT_EQ(enc("f"), "Zg==");
  EXPECT_EQ(enc("fo"), "Zm8=");
  EXPECT_EQ(enc("foo"), "Zm9v");
  EXPECT_EQ(enc("foobar"), "Zm9vYmFy");
}

TEST(Base64, RejectsMalformed) {
  EXPECT_FALSE(base64_decode("Zg=").has_value());    // bad length
  EXPECT_FALSE(base64_decode("Z===").has_value());   // too much padding
  EXPECT_FALSE(base64_decode("Zg=A").has_value());   // data after padding
  EXPECT_FALSE(base64_decode("Zg!@").has_value());   // bad alphabet
}

class Base64Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Base64Property, RoundTripsRandomBlobs) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<std::uint8_t> blob(rng.next_below(200));
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng.next_below(256));
    const auto decoded = base64_decode(base64_encode(blob));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, blob);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Base64Property, ::testing::Values(11, 22, 33, 44));

// --- byte buffer -----------------------------------------------------------

TEST(ByteBuffer, FixedWidthRoundTrip) {
  ByteWriter w;
  w.write_u8(0xAB);
  w.write_u16(0xBEEF);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFULL);
  w.write_f64(-1234.5e-7);
  w.write_bool(true);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u16(), 0xBEEF);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(r.read_f64(), -1234.5e-7);
  EXPECT_TRUE(r.read_bool());
  EXPECT_TRUE(r.at_end());
}

TEST(ByteBuffer, VarintBoundaries) {
  ByteWriter w;
  const std::vector<std::uint64_t> values = {0,    1,    127,        128,
                                             16383, 16384, 0xFFFFFFFF, ~0ULL};
  for (auto v : values) w.write_varint(v);
  ByteReader r(w.bytes());
  for (auto v : values) EXPECT_EQ(r.read_varint(), v);
  EXPECT_TRUE(r.at_end());
}

TEST(ByteBuffer, SignedVarintZigZag) {
  ByteWriter w;
  const std::vector<std::int64_t> values = {0, -1, 1, -64, 63, -9999999,
                                            INT64_MIN, INT64_MAX};
  for (auto v : values) w.write_signed_varint(v);
  ByteReader r(w.bytes());
  for (auto v : values) EXPECT_EQ(r.read_signed_varint(), v);
}

TEST(ByteBuffer, SmallSignedValuesAreCompact) {
  ByteWriter w;
  w.write_signed_varint(-3);
  EXPECT_EQ(w.size(), 1u);
}

TEST(ByteBuffer, StringsAndBytes) {
  ByteWriter w;
  w.write_string("hello \xE2\x9C\x93 world");
  w.write_bytes(std::vector<std::uint8_t>{1, 2, 3});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_string(), "hello \xE2\x9C\x93 world");
  EXPECT_EQ(r.read_bytes(), (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(ByteBuffer, TruncationThrows) {
  ByteWriter w;
  w.write_u32(42);
  ByteReader r(w.bytes());
  (void)r.read_u16();
  EXPECT_THROW((void)r.read_u32(), ByteBufferError);
}

TEST(ByteBuffer, MalformedVarintThrows) {
  const std::vector<std::uint8_t> endless(11, 0x80);
  ByteReader r(endless);
  EXPECT_THROW((void)r.read_varint(), ByteBufferError);
}

// --- hash / rng / clock ------------------------------------------------------

TEST(Hash, Fnv1aIsStable) {
  EXPECT_EQ(fnv1a64(""), kFnvOffset64);
  EXPECT_EQ(fnv1a64("a"), fnv1a64("a"));
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(Rng, DeterministicAndBounded) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  Rng c(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(c.next_below(7), 7u);
    const double d = c.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(DenseIdMap, NumbersKeysInFirstInsertOrderAcrossGrowthAndClear) {
  DenseIdMap<std::uint64_t> map;
  EXPECT_EQ(map.find(7), DenseIdMap<std::uint64_t>::kNone);
  // Keys that collide in the low bits, the extremes, and enough of them to
  // double the table several times.
  std::vector<std::uint64_t> keys = {0, ~std::uint64_t{0}, 0xFFFFFFFFull};
  for (std::uint64_t k = 1; k <= 300; ++k) keys.push_back(k << 32);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(map.intern(keys[i]), i);
    EXPECT_EQ(map.intern(keys[i]), i);  // idempotent
  }
  EXPECT_EQ(map.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(map.find(keys[i]), i);
  EXPECT_EQ(map.find(12345), DenseIdMap<std::uint64_t>::kNone);

  map.clear();
  EXPECT_EQ(map.size(), 0u);
  for (const std::uint64_t key : keys) {
    EXPECT_EQ(map.find(key), DenseIdMap<std::uint64_t>::kNone);
  }
  // Numbering restarts from 0 in the new first-insert order.
  EXPECT_EQ(map.intern(keys[5]), 0u);
  EXPECT_EQ(map.intern(keys[0]), 1u);
  EXPECT_EQ(map.find(keys[5]), 0u);
}

TEST(SimClock, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now_ns(), 0u);
  clock.advance_ns(10);
  clock.advance_to_ns(5);  // no going back
  EXPECT_EQ(clock.now_ns(), 10u);
  clock.advance_to_ns(25);
  EXPECT_EQ(clock.now_ns(), 25u);
}

}  // namespace
}  // namespace pti::util
