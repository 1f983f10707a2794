#include "util/string_util.hpp"

#include <algorithm>

namespace pti::util {

std::string to_lower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out.push_back(to_lower(c));
  return out;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (to_lower(a[i]) != to_lower(b[i])) return false;
  }
  return true;
}

bool iless(std::string_view a, std::string_view b) noexcept {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const char ca = to_lower(a[i]);
    const char cb = to_lower(b[i]);
    if (ca != cb) return ca < cb;
  }
  return a.size() < b.size();
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view trim(std::string_view s) noexcept {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v';
  };
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

bool icontains(std::string_view haystack, std::string_view needle) noexcept {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    bool match = true;
    for (std::size_t k = 0; k < needle.size(); ++k) {
      if (to_lower(haystack[i + k]) != to_lower(needle[k])) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

namespace {

bool is_token_separator(char c) noexcept { return c == '_' || c == '-' || c == ' '; }
bool is_upper(char c) noexcept { return c >= 'A' && c <= 'Z'; }
bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

}  // namespace

bool IdentifierTokens::starts_token(std::size_t i) const noexcept {
  // s_[i - 1] belongs to the token being scanned.
  const char c = s_[i];
  const char prev = s_[i - 1];
  if (is_upper(c)) {
    // New hump: an upper-case letter starts a token, except inside an
    // acronym run ("XMLParser" -> "XML", "Parser").
    const bool prev_lower = !is_upper(prev) && !is_digit(prev);
    const bool next_lower = i + 1 < s_.size() && !is_upper(s_[i + 1]) &&
                            !is_digit(s_[i + 1]) && s_[i + 1] != '_';
    return prev_lower || next_lower;
  }
  if (is_digit(c)) return !is_digit(prev);
  return is_digit(prev);
}

std::string_view IdentifierTokens::next() noexcept {
  while (pos_ < s_.size() && is_token_separator(s_[pos_])) ++pos_;
  const std::size_t begin = pos_;
  if (pos_ < s_.size()) ++pos_;
  while (pos_ < s_.size() && !is_token_separator(s_[pos_]) && !starts_token(pos_)) ++pos_;
  return s_.substr(begin, pos_ - begin);
}

bool wildcard_match(std::string_view pattern, std::string_view text) noexcept {
  // Iterative two-pointer algorithm with backtracking on the last `*`.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || to_lower(pattern[p]) == to_lower(text[t]))) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace pti::util
