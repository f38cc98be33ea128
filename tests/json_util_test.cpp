// The one JSON module: the hand-rolled reader underneath the spec DSL and
// the campaign journal (exact int64 / uint64 vs double tokens, escape
// decoding, line/col error positions, duplicate-key rejection), builder
// chaining, dump -> parse round-trips, and the compact JsonWriter.
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "util/json.hpp"

namespace nonmask {
namespace {

using util::JsonParseError;
using util::JsonValue;
using util::JsonWriter;
using util::dump_json;
using util::jarr;
using util::jbool;
using util::jint;
using util::jnull;
using util::jobj;
using util::json_quote;
using util::jstr;
using util::parse_json;

TEST(JsonUtilTest, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").bool_value);
  EXPECT_FALSE(parse_json("false").bool_value);
  EXPECT_EQ(parse_json("42").int_value, 42);
  EXPECT_EQ(parse_json("-7").int_value, -7);
  EXPECT_EQ(parse_json("\"hi\"").string_value, "hi");
}

TEST(JsonUtilTest, IntegralTokensStayExactInt64) {
  const JsonValue v = parse_json("9007199254740993");
  ASSERT_TRUE(v.is_int());
  EXPECT_EQ(v.int_value, 9007199254740993LL);  // would lose precision as double
  EXPECT_TRUE(parse_json("1.5").type == JsonValue::Type::kDouble);
  EXPECT_TRUE(parse_json("1e3").type == JsonValue::Type::kDouble);
  EXPECT_DOUBLE_EQ(parse_json("1e3").as_double(), 1000.0);
}

TEST(JsonUtilTest, IntegralTokensAboveInt64StayExactUint64) {
  std::uint64_t out = 0;
  const JsonValue big = parse_json("18446744073709551615");
  ASSERT_EQ(big.type, JsonValue::Type::kUint);
  ASSERT_TRUE(big.as_u64(&out));
  EXPECT_EQ(out, std::numeric_limits<std::uint64_t>::max());
  ASSERT_TRUE(parse_json("9223372036854775807").is_int());
  ASSERT_TRUE(parse_json("42").as_u64(&out));
  EXPECT_EQ(out, 42u);
  EXPECT_FALSE(parse_json("-1").as_u64(&out));
  EXPECT_FALSE(parse_json("1.0").as_u64(&out));
  // Past 2^64 - 1, and below INT64_MIN, there is no exact form.
  EXPECT_THROW(parse_json("18446744073709551616"), JsonParseError);
  EXPECT_THROW(parse_json("-9223372036854775809"), JsonParseError);
  EXPECT_EQ(dump_json(big), "18446744073709551615\n");
}

TEST(JsonUtilTest, DecodesEscapes) {
  const JsonValue v = parse_json(R"("a\n\t\"\\\u0041\u00e9")");
  EXPECT_EQ(v.string_value, "a\n\t\"\\A\xc3\xa9");
}

TEST(JsonUtilTest, DecodesSurrogatePairs) {
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  const JsonValue v = parse_json(R"("\ud83d\ude00")");
  EXPECT_EQ(v.string_value, "\xf0\x9f\x98\x80");
}

TEST(JsonUtilTest, ArraysAndObjectsPreserveOrder) {
  const JsonValue v = parse_json(R"({"b": [1, 2, 3], "a": {"x": true}})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.object.size(), 2u);
  EXPECT_EQ(v.object[0].first, "b");  // document order, not sorted
  EXPECT_EQ(v.object[1].first, "a");
  ASSERT_EQ(v.object[0].second.array.size(), 3u);
  EXPECT_EQ(v.object[0].second.array[2].int_value, 3);
  const JsonValue* x = v.object[1].second.find("x");
  ASSERT_NE(x, nullptr);
  EXPECT_TRUE(x->bool_value);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonUtilTest, ValuesCarryLineAndColumn) {
  const JsonValue v = parse_json("{\n  \"a\": 1,\n  \"b\": [true]\n}");
  EXPECT_EQ(v.line, 1);
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->line, 2);
  const JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->line, 3);
  ASSERT_EQ(b->array.size(), 1u);
  EXPECT_EQ(b->array[0].line, 3);
}

TEST(JsonUtilTest, RejectsDuplicateKeys) {
  try {
    parse_json(R"({"job": 1, "job": 2})");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
}

TEST(JsonUtilTest, RejectsTrailingGarbageAndBadTokens) {
  EXPECT_THROW(parse_json("1 2"), JsonParseError);
  EXPECT_THROW(parse_json("{"), JsonParseError);
  EXPECT_THROW(parse_json("[1,]"), JsonParseError);
  EXPECT_THROW(parse_json("{\"a\" 1}"), JsonParseError);
  EXPECT_THROW(parse_json("nul"), JsonParseError);
  EXPECT_THROW(parse_json(""), JsonParseError);
  EXPECT_THROW(parse_json("\"unterminated"), JsonParseError);
}

TEST(JsonUtilTest, ErrorsReportPosition) {
  try {
    parse_json("{\n  \"a\": @\n}");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_GT(e.col(), 1);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(JsonUtilTest, BuildersChainAndDump) {
  JsonValue doc = jobj();
  doc.add("name", jstr("demo"))
      .add("n", jint(4))
      .add("flag", jbool(true))
      .add("none", jnull())
      .add("xs", jarr().push(jint(1)).push(jint(2)));
  const std::string text = dump_json(doc);
  EXPECT_EQ(text.back(), '\n');
  const JsonValue back = parse_json(text);
  EXPECT_EQ(back.find("name")->string_value, "demo");
  EXPECT_EQ(back.find("n")->int_value, 4);
  EXPECT_TRUE(back.find("flag")->bool_value);
  EXPECT_TRUE(back.find("none")->is_null());
  EXPECT_EQ(back.find("xs")->array.size(), 2u);
  // Dump is deterministic: same document, same bytes.
  EXPECT_EQ(text, dump_json(parse_json(text)));
}

TEST(JsonUtilTest, QuoteEscapesControlCharacters) {
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(json_quote(std::string(1, '\x01')), "\"\\u0001\"");
  EXPECT_EQ(json_quote("\b\f"), "\"\\b\\f\"");
}

TEST(JsonUtilTest, WriterEscapesAndNests) {
  std::string out;
  JsonWriter w(&out);
  w.begin_object();
  w.key("s");
  w.value(std::string_view("a\"b\\c\n"));
  w.key("n");
  w.value(std::uint64_t{42});
  w.key("list");
  w.begin_array();
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_EQ(out, "{\"s\":\"a\\\"b\\\\c\\n\",\"n\":42,\"list\":[true,null]}");
}

// JsonWriter and dump_json render strings and doubles through the same
// routines: every control character, and non-finite doubles as null.
TEST(JsonUtilTest, WriterAndDumpShareEscapesAndDoubles) {
  std::string text;
  for (int c = 1; c < 0x20; ++c) text.push_back(static_cast<char>(c));
  text += "\"\\/";
  std::string written;
  JsonWriter w(&written);
  w.value(text);
  EXPECT_EQ(written, json_quote(text));
  EXPECT_EQ(dump_json(jstr(text)), json_quote(text) + "\n");
  EXPECT_EQ(parse_json(written).string_value, text);

  JsonValue tenth;
  tenth.type = JsonValue::Type::kDouble;
  tenth.double_value = 0.1;
  std::string dumped = dump_json(tenth);
  dumped.pop_back();  // trailing newline
  std::string doubles;
  JsonWriter dw(&doubles);
  dw.begin_array();
  dw.value(0.1);
  dw.value(std::numeric_limits<double>::infinity());
  dw.end_array();
  EXPECT_EQ(doubles, "[" + dumped + ",null]");
  EXPECT_EQ(parse_json(doubles).array[0].double_value, 0.1);
}

}  // namespace
}  // namespace nonmask
