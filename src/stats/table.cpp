#include "stats/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string_view>

#include "common/check.hpp"

namespace vcsteer::stats {

Table& Table::set_columns(std::vector<std::string> names) {
  VCSTEER_CHECK_MSG(rows_.empty(), "set_columns after rows were added");
  columns_ = std::move(names);
  return *this;
}

Table& Table::row() {
  VCSTEER_CHECK_MSG(!columns_.empty(), "set_columns before row()");
  VCSTEER_CHECK_MSG(rows_.empty() || rows_.back().size() == columns_.size(),
                    "previous row incomplete");
  rows_.emplace_back();
  return *this;
}

Table& Table::add(std::string value) {
  VCSTEER_CHECK_MSG(!rows_.empty(), "add() before row()");
  VCSTEER_CHECK_MSG(rows_.back().size() < columns_.size(), "row overflow");
  rows_.back().push_back(Cell{std::move(value), std::monostate{}});
  return *this;
}

Table& Table::add(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  add(std::string(buf));
  rows_.back().back().value = value;
  return *this;
}

Table& Table::add(std::uint64_t value) {
  add(std::to_string(value));
  rows_.back().back().value = value;
  return *this;
}

Table& Table::add(std::int64_t value) {
  add(std::to_string(value));
  rows_.back().back().value = value;
  return *this;
}

const std::string& Table::cell(std::size_t row, std::size_t col) const {
  VCSTEER_CHECK(row < rows_.size() && col < rows_[row].size());
  return rows_[row][col].text;
}

std::string Table::to_text() const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].text.size());
    }
  }
  std::ostringstream os;
  os << "== " << title_ << " ==\n";
  auto emit_cell = [&](std::size_t c, const std::string& v) {
    os << (c == 0 ? "" : "  ");
    os << v << std::string(widths[c] - v.size(), ' ');
  };
  for (std::size_t c = 0; c < columns_.size(); ++c) emit_cell(c, columns_[c]);
  os << '\n';
  std::size_t total = columns_.empty() ? 0 : 2 * (columns_.size() - 1);
  for (const std::size_t w : widths) total += w;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      emit_cell(c, c < row.size() ? row[c].text : "");
    }
    os << '\n';
  }
  return os.str();
}

std::string Table::to_markdown() const {
  std::ostringstream os;
  os << "### " << title_ << "\n\n|";
  for (const auto& c : columns_) os << ' ' << c << " |";
  os << "\n|";
  for (std::size_t c = 0; c < columns_.size(); ++c) os << "---|";
  os << '\n';
  for (const auto& row : rows_) {
    os << '|';
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      os << ' ' << (c < row.size() ? row[c].text : "") << " |";
    }
    os << '\n';
  }
  return os.str();
}

namespace {

/// RFC 4180: cells containing the separator, quotes or line breaks are
/// quoted, with embedded quotes doubled.
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
  std::string out;
  out.reserve(cell.size() + 2);
  out.push_back('"');
  for (const char ch : cell) {
    if (ch == '"') out.push_back('"');
    out.push_back(ch);
  }
  out.push_back('"');
  return out;
}

}  // namespace

std::string Table::to_csv() const {
  std::ostringstream os;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c) os << ',';
    os << csv_escape(columns_[c]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c) os << ',';
      if (c < row.size()) os << csv_escape(row[c].text);
    }
    os << '\n';
  }
  return os.str();
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string Table::to_json() const {
  std::string out = "{\"title\":";
  out += json_quote(title_);
  out += ",\"columns\":[";
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c) out.push_back(',');
    out += json_quote(columns_[c]);
  }
  out += "],\"rows\":[";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (r) out.push_back(',');
    out.push_back('[');
    for (std::size_t c = 0; c < rows_[r].size(); ++c) {
      if (c) out.push_back(',');
      const Cell& cell = rows_[r][c];
      if (const double* d = std::get_if<double>(&cell.value)) {
        if (std::isfinite(*d)) {
          char buf[64];
          std::snprintf(buf, sizeof(buf), "%.17g", *d);
          out += buf;
        } else {
          out += "null";  // JSON has no NaN/Inf.
        }
      } else if (const auto* u = std::get_if<std::uint64_t>(&cell.value)) {
        out += std::to_string(*u);
      } else if (const auto* i = std::get_if<std::int64_t>(&cell.value)) {
        out += std::to_string(*i);
      } else {
        out += json_quote(cell.text);
      }
    }
    out.push_back(']');
  }
  out += "]}";
  return out;
}

void Table::print(std::ostream& os) const { os << to_text(); }

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double total = 0.0;
  for (const double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

double slowdown_pct(double base_ipc, double ipc) {
  VCSTEER_CHECK(ipc > 0.0);
  return (base_ipc / ipc - 1.0) * 100.0;
}

double speedup_pct(double ipc, double other_ipc) {
  VCSTEER_CHECK(other_ipc > 0.0);
  return (ipc / other_ipc - 1.0) * 100.0;
}

}  // namespace vcsteer::stats
