// CSV data export for the benchmark harness.
//
// Every bench prints human-readable rows; plotting pipelines want machine-
// readable series. Given a data directory (bench_suite --data-dir), benches
// additionally write one CSV per figure into it.
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace quicer::core {

/// Minimal CSV writer: header row + value rows, RFC 4180 quoting for
/// fields containing separators/quotes.
class CsvWriter {
 public:
  /// Opens `<directory>/<name>.csv` for writing; fails silently into a
  /// detached state if the directory is not writable (benches must never
  /// crash over optional output).
  CsvWriter(const std::string& directory, const std::string& name,
            const std::vector<std::string>& header);

  /// True if the file is open and rows will be persisted.
  bool active() const { return out_.is_open(); }

  /// Writes one row; numbers are formatted with full precision.
  void Row(const std::vector<double>& values);

  /// Writes one row of preformatted fields.
  void TextRow(const std::vector<std::string>& fields);

  /// Number of data rows written so far.
  std::size_t rows() const { return rows_; }

  static std::string Escape(const std::string& field);

 private:
  std::ofstream out_;
  std::size_t rows_ = 0;
};

}  // namespace quicer::core
