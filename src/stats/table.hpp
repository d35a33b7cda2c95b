// Result tables.
//
// Every bench emits its figure/table as a Table: named columns, one row per
// trace/configuration, rendered as aligned text (for the console), markdown
// or CSV (for post-processing). Numeric cells keep full precision
// internally and format on output.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace vcsteer::stats {

class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  Table& set_columns(std::vector<std::string> names);

  /// Starts a new row; subsequent add() calls fill it left to right.
  Table& row();
  Table& add(std::string value);
  Table& add(double value, int precision = 2);
  Table& add(std::uint64_t value);
  Table& add(std::int64_t value);

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_cols() const { return columns_.size(); }
  const std::string& title() const { return title_; }

  /// Cell accessors for tests (row/col bounds-checked).
  const std::string& cell(std::size_t row, std::size_t col) const;

  std::string to_text() const;      ///< aligned, boxed console rendering.
  std::string to_markdown() const;
  std::string to_csv() const;
  /// {"title":..., "columns":[...], "rows":[[...]]}. Numeric cells are
  /// emitted as JSON numbers at full double precision (%.17g), not as the
  /// rounded strings the text renderers show; non-finite values become null.
  std::string to_json() const;

  /// Convenience: to_text() to the stream.
  void print(std::ostream& os) const;

 private:
  /// A cell keeps the raw value next to the display string so text/CSV
  /// render exactly as before while JSON keeps full precision. The
  /// monostate alternative marks string cells (the text *is* the value).
  struct Cell {
    std::string text;
    std::variant<std::monostate, double, std::uint64_t, std::int64_t> value;
  };

  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
};

/// JSON string literal (quoted, with quotes/backslash/control escaping).
/// Shared by Table::to_json and the exec-layer JSON emitters.
std::string json_quote(std::string_view s);

/// Arithmetic mean; 0 for empty input.
double mean(const std::vector<double>& xs);

/// Slowdown of `ipc` relative to `base_ipc`, in percent (positive = slower),
/// the paper's Figure 5/7 y-axis.
double slowdown_pct(double base_ipc, double ipc);

/// Speedup of `ipc` over `other_ipc`, in percent (positive = faster), the
/// paper's Figure 6 x-axis.
double speedup_pct(double ipc, double other_ipc);

}  // namespace vcsteer::stats
