#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace demuxabr {
namespace {

TEST(CsvWriter, HeaderAndRows) {
  CsvWriter writer({"t", "kbps"});
  writer.cell(0.0).cell(500.0).end_row();
  writer.cell(std::int64_t{1}).cell("800").end_row();
  const std::string text = writer.to_string();
  EXPECT_EQ(text, "t,kbps\n0,500\n1,800\n");
}

TEST(CsvWriter, QuotesCellsWithCommasAndQuotes) {
  CsvWriter writer({"a"});
  writer.cell("x,y").end_row();
  writer.cell("say \"hi\"").end_row();
  EXPECT_EQ(writer.to_string(), "a\n\"x,y\"\n\"say \"\"hi\"\"\"\n");
}

TEST(CsvWriter, TrimsTrailingZerosOnDoubles) {
  CsvWriter writer({"v"});
  writer.cell(1.5).end_row();
  writer.cell(2.0).end_row();
  EXPECT_EQ(writer.to_string(), "v\n1.5\n2\n");
}

TEST(ParseCsv, RoundTripsWriterOutput) {
  CsvWriter writer({"name", "value"});
  writer.cell("plain").cell(1.0).end_row();
  writer.cell("with,comma").cell(2.0).end_row();
  writer.cell("with \"quote\"").cell(3.0).end_row();
  const auto doc = parse_csv(writer.to_string());
  ASSERT_TRUE(doc.ok()) << doc.error();
  ASSERT_EQ(doc->rows.size(), 3u);
  EXPECT_EQ(doc->rows[1][0], "with,comma");
  EXPECT_EQ(doc->rows[2][0], "with \"quote\"");
}

TEST(ParseCsv, HandlesCrLf) {
  const auto doc = parse_csv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0][1], "2");
}

TEST(ParseCsv, RejectsRaggedRows) {
  const auto doc = parse_csv("a,b\n1,2,3\n");
  EXPECT_FALSE(doc.ok());
}

TEST(ParseCsv, RejectsUnterminatedQuote) {
  const auto doc = parse_csv("a\n\"oops\n");
  EXPECT_FALSE(doc.ok());
}

TEST(ParseCsv, RejectsEmptyInput) {
  EXPECT_FALSE(parse_csv("").ok());
}

TEST(ParseCsv, MissingTrailingNewlineStillParses) {
  const auto doc = parse_csv("a,b\n1,2");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
}

TEST(FileIo, WriteThenReadBack) {
  const std::string path = ::testing::TempDir() + "/demuxabr_csv_test.txt";
  ASSERT_TRUE(write_file(path, "hello\nworld\n").ok());
  const auto content = read_file(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello\nworld\n");
  std::remove(path.c_str());
}

TEST(FileIo, ReadMissingFileFails) {
  const auto content = read_file("/nonexistent/definitely/missing.csv");
  EXPECT_FALSE(content.ok());
  EXPECT_NE(content.error().find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace demuxabr
