#include "util/strings.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace demuxabr {

std::vector<std::string> split(std::string_view text, char delimiter) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delimiter) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      std::string_view line = text.substr(start, i - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (i == text.size() && line.empty() && start == text.size() && !out.empty()) break;
      out.emplace_back(line);
      start = i + 1;
    }
  }
  // A trailing newline should not add a phantom empty line.
  if (!text.empty() && text.back() == '\n' && !out.empty() && out.back().empty()) out.pop_back();
  return out;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::optional<std::int64_t> parse_int(std::string_view text) {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  return static_cast<std::int64_t>(v);
}

std::optional<double> parse_double(std::string_view text) {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

std::string join(const std::vector<std::string>& pieces, std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) out += separator;
    out += pieces[i];
  }
  return out;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::pair<std::string, std::string>> parse_attribute_list(std::string_view text) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    // key
    std::size_t key_start = i;
    while (i < n && text[i] != '=') ++i;
    if (i >= n) break;
    std::string key(trim(text.substr(key_start, i - key_start)));
    ++i;  // skip '='
    std::string value;
    if (i < n && text[i] == '"') {
      ++i;
      const std::size_t value_start = i;
      while (i < n && text[i] != '"') ++i;
      value.assign(text.substr(value_start, i - value_start));
      if (i < n) ++i;  // closing quote
      // skip to next comma
      while (i < n && text[i] != ',') ++i;
    } else {
      const std::size_t value_start = i;
      while (i < n && text[i] != ',') ++i;
      value.assign(trim(text.substr(value_start, i - value_start)));
    }
    if (i < n && text[i] == ',') ++i;
    out.emplace_back(std::move(key), std::move(value));
  }
  return out;
}

std::string quote_attribute(std::string_view value) {
  std::string quoted;
  quoted.reserve(value.size() + 2);
  quoted += '"';
  quoted += value;
  quoted += '"';
  return quoted;
}

}  // namespace demuxabr
