// CSV writing (experiment logs, bench series dumps) and a tolerant reader
// (bandwidth traces from file).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace demuxabr {

/// Accumulates rows and renders/saves RFC-4180-ish CSV (quotes fields that
/// need it). Column count is fixed by the header.
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  /// Begin a new row. Must complete exactly header-size cells before the next.
  CsvWriter& cell(const std::string& value);
  CsvWriter& cell(double value);
  CsvWriter& cell(std::int64_t value);
  CsvWriter& end_row();

  [[nodiscard]] std::string to_string() const;
  Status save(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> pending_;
};

/// Parsed CSV document: header + data rows (all cells as strings).
struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// Parse CSV text. Handles quoted cells and both line endings.
Result<CsvDocument> parse_csv(const std::string& text);

/// Read a whole file into a string.
Result<std::string> read_file(const std::string& path);

/// Write a string to a file (truncate).
Status write_file(const std::string& path, const std::string& content);

}  // namespace demuxabr
