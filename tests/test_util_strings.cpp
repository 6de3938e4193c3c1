#include "util/strings.h"

#include <gtest/gtest.h>

namespace demuxabr {
namespace {

TEST(Split, BasicFields) {
  const auto out = split("a,b,c", ',');
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "a");
  EXPECT_EQ(out[1], "b");
  EXPECT_EQ(out[2], "c");
}

TEST(Split, KeepsEmptyFields) {
  const auto out = split("a,,c,", ',');
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[1], "");
  EXPECT_EQ(out[3], "");
}

TEST(Split, EmptyInputYieldsOneEmptyField) {
  const auto out = split("", ',');
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "");
}

TEST(SplitLines, UnixEndings) {
  const auto out = split_lines("one\ntwo\nthree\n");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], "three");
}

TEST(SplitLines, WindowsEndings) {
  const auto out = split_lines("one\r\ntwo\r\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "one");
  EXPECT_EQ(out[1], "two");
}

TEST(SplitLines, NoTrailingNewline) {
  const auto out = split_lines("one\ntwo");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1], "two");
}

TEST(SplitLines, PreservesInteriorEmptyLines) {
  const auto out = split_lines("a\n\nb\n");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1], "");
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StartsEndsWith, Basics) {
  EXPECT_TRUE(starts_with("#EXTM3U", "#EXT"));
  EXPECT_FALSE(starts_with("#EX", "#EXT"));
}

TEST(ParseInt, ValidValues) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("-7").value(), -7);
  EXPECT_EQ(parse_int("  13 ").value(), 13);
  EXPECT_EQ(parse_int("0").value(), 0);
}

TEST(ParseInt, RejectsGarbage) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("12x").has_value());
  EXPECT_FALSE(parse_int("x12").has_value());
  EXPECT_FALSE(parse_int("1.5").has_value());
}

TEST(ParseDouble, ValidValues) {
  EXPECT_DOUBLE_EQ(parse_double("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(parse_double("-1e3").value(), -1000.0);
  EXPECT_DOUBLE_EQ(parse_double(" 7 ").value(), 7.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("3.5s").has_value());
  EXPECT_FALSE(parse_double("PT5S").has_value());
}

TEST(Join, WithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({"solo"}, ","), "solo");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Format, PrintfStyle) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 1.005), "1.00");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(ParseAttributeList, UnquotedAndQuoted) {
  const auto attrs = parse_attribute_list(
      R"(BANDWIDTH=253000,CODECS="avc1.4d401f,mp4a.40.2",RESOLUTION=256x144)");
  ASSERT_EQ(attrs.size(), 3u);
  EXPECT_EQ(attrs[0].first, "BANDWIDTH");
  EXPECT_EQ(attrs[0].second, "253000");
  EXPECT_EQ(attrs[1].first, "CODECS");
  EXPECT_EQ(attrs[1].second, "avc1.4d401f,mp4a.40.2");  // comma inside quotes kept
  EXPECT_EQ(attrs[2].second, "256x144");
}

TEST(ParseAttributeList, QuotedValueWithTrailingAttributes) {
  const auto attrs = parse_attribute_list(R"(URI="audio/A1.m3u8",DEFAULT=YES)");
  ASSERT_EQ(attrs.size(), 2u);
  EXPECT_EQ(attrs[0].second, "audio/A1.m3u8");
  EXPECT_EQ(attrs[1].second, "YES");
}

TEST(ParseAttributeList, EmptyString) {
  EXPECT_TRUE(parse_attribute_list("").empty());
}

TEST(QuoteAttribute, WrapsInQuotes) {
  EXPECT_EQ(quote_attribute("abc"), "\"abc\"");
}

}  // namespace
}  // namespace demuxabr
