// Tests for result tables and the slowdown/speedup arithmetic used by
// every figure bench.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>

#include "stats/table.hpp"

namespace vcsteer::stats {
namespace {

TEST(Table, CellAccessAndCounts) {
  Table t("demo");
  t.set_columns({"a", "b"});
  t.row().add("x").add(1.5, 1);
  t.row().add("y").add(std::uint64_t{7});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_cols(), 2u);
  EXPECT_EQ(t.cell(0, 0), "x");
  EXPECT_EQ(t.cell(0, 1), "1.5");
  EXPECT_EQ(t.cell(1, 1), "7");
}

TEST(Table, DoublePrecisionFormatting) {
  Table t("fmt");
  t.set_columns({"v"});
  t.row().add(3.14159, 3);
  EXPECT_EQ(t.cell(0, 0), "3.142");
  t.row().add(-0.5, 2);
  EXPECT_EQ(t.cell(1, 0), "-0.50");
}

TEST(Table, TextRenderingAligned) {
  Table t("title here");
  t.set_columns({"name", "v"});
  t.row().add("longername").add("1");
  const std::string text = t.to_text();
  EXPECT_NE(text.find("title here"), std::string::npos);
  EXPECT_NE(text.find("longername"), std::string::npos);
  EXPECT_NE(text.find("name"), std::string::npos);
}

TEST(Table, MarkdownHasHeaderSeparator) {
  Table t("md");
  t.set_columns({"a", "b"});
  t.row().add("1").add("2");
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| a | b |"), std::string::npos);
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
  EXPECT_NE(md.find("| 1 | 2 |"), std::string::npos);
}

TEST(Table, CsvRoundTrip) {
  Table t("csv");
  t.set_columns({"a", "b", "c"});
  t.row().add("x").add("y").add("z");
  EXPECT_EQ(t.to_csv(), "a,b,c\nx,y,z\n");
}

TEST(Table, CsvQuotesSpecialCells) {
  // RFC 4180: commas, quotes and line breaks force a quoted cell with
  // embedded quotes doubled; plain cells stay unquoted.
  Table t("csv");
  t.set_columns({"plain", "with,comma"});
  t.row().add("a,b").add("say \"hi\"");
  t.row().add("two\nlines").add("cr\rhere");
  EXPECT_EQ(t.to_csv(),
            "plain,\"with,comma\"\n"
            "\"a,b\",\"say \"\"hi\"\"\"\n"
            "\"two\nlines\",\"cr\rhere\"\n");
}

TEST(Table, JsonKeepsFullPrecision) {
  Table t("json");
  t.set_columns({"name", "v", "n", "d"});
  // Displayed at 2 digits, exported at full precision.
  t.row()
      .add("pi")
      .add(3.14159265358979312, 2)
      .add(std::uint64_t{7})
      .add(std::int64_t{-3});
  EXPECT_EQ(t.cell(0, 1), "3.14");
  const std::string json = t.to_json();
  EXPECT_EQ(json,
            "{\"title\":\"json\",\"columns\":[\"name\",\"v\",\"n\",\"d\"],"
            "\"rows\":[[\"pi\",3.1415926535897931,7,-3]]}");
}

TEST(Table, JsonRoundTripsExactDoubles) {
  Table t("rt");
  t.set_columns({"v"});
  const double value = 1.0 / 3.0;
  t.row().add(value, 2);
  const std::string json = t.to_json();
  // The %.17g rendering parses back to the identical double.
  const std::size_t start = json.find("[[") + 2;
  const double parsed = std::strtod(json.c_str() + start, nullptr);
  EXPECT_EQ(parsed, value);
}

TEST(Table, JsonEscapesStrings) {
  Table t("quote \" backslash \\ newline \n");
  t.set_columns({"c"});
  t.row().add("a\"b\\c\td");
  const std::string json = t.to_json();
  EXPECT_NE(json.find("quote \\\" backslash \\\\ newline \\n"),
            std::string::npos);
  EXPECT_NE(json.find("a\\\"b\\\\c\\td"), std::string::npos);
}

TEST(Table, JsonNonFiniteBecomesNull) {
  Table t("nan");
  t.set_columns({"v", "w"});
  t.row()
      .add(std::numeric_limits<double>::quiet_NaN(), 2)
      .add(std::numeric_limits<double>::infinity(), 2);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("[null,null]"), std::string::npos);
}

TEST(JsonQuote, EscapesControlCharacters) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(Table, RowOverflowAborts) {
  Table t("overflow");
  t.set_columns({"only"});
  t.row().add("1");
  EXPECT_DEATH(t.add("2"), "overflow");
}

TEST(Table, AddBeforeRowAborts) {
  Table t("norow");
  t.set_columns({"a"});
  EXPECT_DEATH(t.add("1"), "row");
}

TEST(Means, ArithmeticMean) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({2.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({-5.0, 5.0}), 0.0);
}

TEST(SlowdownSpeedup, MatchPaperConventions) {
  // Baseline IPC 2.0, measured IPC 1.6 -> 25% slowdown.
  EXPECT_NEAR(slowdown_pct(2.0, 1.6), 25.0, 1e-9);
  EXPECT_NEAR(slowdown_pct(2.0, 2.0), 0.0, 1e-9);
  // Faster than baseline -> negative slowdown.
  EXPECT_LT(slowdown_pct(2.0, 2.5), 0.0);
  // Speedup of 1.1 over 1.0 -> +10%.
  EXPECT_NEAR(speedup_pct(1.1, 1.0), 10.0, 1e-6);
  EXPECT_LT(speedup_pct(0.9, 1.0), 0.0);
}

TEST(SlowdownSpeedup, InverseRelationship) {
  const double base = 1.7, other = 1.3;
  const double slow = slowdown_pct(base, other);
  const double speed = speedup_pct(other, base);
  // slowdown(base->x) and speedup(x vs base) are reciprocal measures.
  EXPECT_NEAR((1.0 + slow / 100.0) * (1.0 + speed / 100.0), 1.0, 1e-9);
}

}  // namespace
}  // namespace vcsteer::stats
