#include "scenario/metrics.h"

#include <algorithm>

namespace erasmus::scenario {

std::string Value::to_plain() const {
  switch (kind_) {
    case Kind::kU64: return std::to_string(u64_);
    case Kind::kI64: return std::to_string(i64_);
    case Kind::kF64: return format_double(f64_);
    case Kind::kStr: return str_;
    case Kind::kBool: return u64_ ? "true" : "false";
  }
  return {};
}

std::string Value::to_json() const {
  if (kind_ == Kind::kStr) return json_quote(str_);
  return to_plain();
}

// --- CsvSink -----------------------------------------------------------------

namespace {

// RFC 4180 quoting, applied only when needed so the common all-scalar
// output stays byte-identical to the unquoted form.
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char c : cell) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

void CsvSink::begin_run(std::string_view scenario) {
  out_ << "# scenario=" << scenario << "\n";
}

void CsvSink::note(std::string_view key, Value value) {
  out_ << "# note " << key << "=" << csv_escape(value.to_plain()) << "\n";
}

void CsvSink::row(std::string_view table, const Row& r) {
  if (std::find(tables_seen_.begin(), tables_seen_.end(), table) ==
      tables_seen_.end()) {
    tables_seen_.emplace_back(table);
    out_ << "table";
    for (const auto& [col, value] : r) {
      (void)value;
      out_ << "," << col;
    }
    out_ << "\n";
  }
  out_ << table;
  for (const auto& [col, value] : r) {
    (void)col;
    out_ << "," << csv_escape(value.to_plain());
  }
  out_ << "\n";
}

void CsvSink::end_run() { out_.flush(); }

// --- JsonSink ----------------------------------------------------------------

void JsonSink::begin_run(std::string_view scenario) {
  scenario_ = std::string(scenario);
}

void JsonSink::note(std::string_view key, Value value) {
  notes_.emplace_back(std::string(key), std::move(value));
}

void JsonSink::row(std::string_view table, const Row& r) {
  for (auto& [name, rows] : tables_) {
    if (name == table) {
      rows.push_back(r);
      return;
    }
  }
  tables_.emplace_back(std::string(table), std::vector<Row>{r});
}

void JsonSink::end_run() {
  out_ << "{\n  \"scenario\": \"" << json_escape(scenario_) << "\",\n";
  out_ << "  \"notes\": {";
  for (size_t i = 0; i < notes_.size(); ++i) {
    out_ << (i ? ",\n    " : "\n    ");
    out_ << "\"" << json_escape(notes_[i].first)
         << "\": " << notes_[i].second.to_json();
  }
  out_ << (notes_.empty() ? "}" : "\n  }") << ",\n";
  out_ << "  \"tables\": {";
  for (size_t t = 0; t < tables_.size(); ++t) {
    out_ << (t ? ",\n    " : "\n    ");
    out_ << "\"" << json_escape(tables_[t].first) << "\": [";
    const auto& rows = tables_[t].second;
    for (size_t i = 0; i < rows.size(); ++i) {
      out_ << (i ? ",\n      " : "\n      ") << "{";
      for (size_t c = 0; c < rows[i].size(); ++c) {
        out_ << (c ? ", " : "") << "\"" << json_escape(rows[i][c].first)
             << "\": " << rows[i][c].second.to_json();
      }
      out_ << "}";
    }
    out_ << (rows.empty() ? "]" : "\n    ]");
  }
  out_ << (tables_.empty() ? "}" : "\n  }") << "\n}\n";
  out_.flush();
}

}  // namespace erasmus::scenario
