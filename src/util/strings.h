// Small string helpers shared by the manifest parsers and CSV tooling.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace demuxabr {

/// Split on a single-character delimiter. Keeps empty fields.
std::vector<std::string> split(std::string_view text, char delimiter);

/// Split into lines, accepting "\n" and "\r\n" endings. Keeps empty lines.
std::vector<std::string> split_lines(std::string_view text);

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);

/// Parse helpers returning nullopt on any syntax error / trailing garbage.
std::optional<std::int64_t> parse_int(std::string_view text);
std::optional<double> parse_double(std::string_view text);

/// Join pieces with a separator.
std::string join(const std::vector<std::string>& pieces, std::string_view separator);

/// printf-style formatting into std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Parse an HLS attribute list: KEY=VALUE,KEY="quoted,value",...
/// Returns pairs in file order. Quoted values have quotes removed.
std::vector<std::pair<std::string, std::string>> parse_attribute_list(std::string_view text);

/// Serialize one attribute value, quoting when HLS requires it.
std::string quote_attribute(std::string_view value);

}  // namespace demuxabr
