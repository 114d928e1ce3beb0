#include "core/csv.h"

#include <cstdio>

namespace quicer::core {

std::string CsvWriter::Escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(const std::string& directory, const std::string& name,
                     const std::vector<std::string>& header) {
  if (directory.empty()) return;
  out_.open(directory + "/" + name + ".csv");
  if (!out_.is_open()) return;
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << Escape(header[i]);
  }
  out_ << '\n';
}

void CsvWriter::Row(const std::vector<double>& values) {
  if (!out_.is_open()) return;
  char buf[48];
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out_ << ',';
    std::snprintf(buf, sizeof(buf), "%.6g", values[i]);
    out_ << buf;
  }
  out_ << '\n';
  ++rows_;
}

void CsvWriter::TextRow(const std::vector<std::string>& fields) {
  if (!out_.is_open()) return;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << Escape(fields[i]);
  }
  out_ << '\n';
  ++rows_;
}

}  // namespace quicer::core
