// String helpers shared across the PTI library.
//
// The conformance rules of the paper (Section 4.2) compare type and member
// names case-insensitively, so case-folding primitives live here and are
// used consistently by the registry, the conformance checker and the XML
// type-description format.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace pti::util {

/// ASCII lower-casing (type names in the model are ASCII identifiers).
[[nodiscard]] constexpr char to_lower(char c) noexcept {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}
[[nodiscard]] std::string to_lower(std::string_view s);

/// Case-insensitive equality, the comparison used for name conformance.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

/// Case-insensitive less-than, suitable as a map comparator.
[[nodiscard]] bool iless(std::string_view a, std::string_view b) noexcept;

/// Transparent case-insensitive comparator for ordered containers.
struct ICaseLess {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return iless(a, b);
  }
};

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;
[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix) noexcept;

/// Splits on a single character; empty segments are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Joins with a separator string.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Glob-style match with `*` (any run) and `?` (any one char),
/// case-insensitive. Used by the optional wildcard extension to name
/// conformance that the paper mentions ("wildcards could be allowed").
[[nodiscard]] bool wildcard_match(std::string_view pattern, std::string_view text) noexcept;

/// Case-insensitive substring test.
[[nodiscard]] bool icontains(std::string_view haystack, std::string_view needle) noexcept;

/// Splits an identifier into word tokens on camelCase humps, underscores,
/// dashes, spaces and digit boundaries, yielding each token as a view of
/// the identifier (original case; the member-name rule compares tokens
/// case-insensitively):
///   "getPersonName" -> "get", "Person", "Name"
///   "set_name"      -> "set", "name"
///   "XMLParser"     -> "XML", "Parser"
/// A target member name conforms to a source member name when one's token
/// set includes the other's — the reconstruction of the paper's lenient
/// method-name matching that makes `getName` interoperate with
/// `getPersonName`. Allocation-free.
class IdentifierTokens {
 public:
  explicit IdentifierTokens(std::string_view identifier) noexcept : s_(identifier) {}

  /// The next token, or an empty view once exhausted (tokens are never
  /// empty).
  [[nodiscard]] std::string_view next() noexcept;

 private:
  [[nodiscard]] bool starts_token(std::size_t i) const noexcept;

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace pti::util
