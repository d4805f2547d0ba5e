// The hand-rolled JSON reader underneath the spec DSL: exact int64 vs
// double tokens, escape decoding, line/col error positions, duplicate-key
// rejection, builder chaining, and dump -> parse round-trips; plus the
// streaming writer.
#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "util/json.hpp"

namespace nonmask {
namespace {

using util::JsonParseError;
using util::JsonValue;
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

// Nesting is bounded: exactly kMaxJsonDepth levels parse, one more is a
// JsonParseError, and a 400 KB run of '[' (which used to overflow the
// parser's stack) fails the same way instead of crashing.
TEST(JsonUtilTest, RejectsNestingPastTheDepthLimit) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_EQ(parse_json(nested(util::kMaxJsonDepth)).type,
            JsonValue::Type::kArray);
  try {
    parse_json(nested(util::kMaxJsonDepth + 1));
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse_json(std::string(200'000, '[')), JsonParseError);
  EXPECT_THROW(parse_json(std::string(200'000, '{')), JsonParseError);
  std::string objects;
  for (int i = 0; i < 100'000; ++i) objects += "{\"a\":";
  EXPECT_THROW(parse_json(objects), JsonParseError);
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
}

// The streaming writer quotes through json_quote, so \b and \f take their
// short escapes like every other writer in the library.
TEST(JsonUtilTest, WriterEscapesAndNests) {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  w.key("s");
  w.value(std::string_view("a\"b\\c\n\b"));
  w.key("n");
  w.value(std::uint64_t{42});
  w.key("list");
  w.begin_array();
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_EQ(out,
            "{\"s\":\"a\\\"b\\\\c\\n\\b\",\"n\":42,\"list\":[true,null]}");
}

}  // namespace
}  // namespace nonmask
