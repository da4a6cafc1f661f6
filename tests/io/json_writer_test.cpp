#include "io/json_writer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace cdbp {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(jsonEscape("hello world"), "hello world");
  EXPECT_EQ(jsonEscape(""), "");
}

TEST(JsonEscape, EscapesQuotesAndBackslash) {
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, EscapesControlCharacters) {
  EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(jsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonEscape, PassesUtf8BytesThrough) {
  // Multi-byte UTF-8 payload needs no escaping (bytes >= 0x80).
  EXPECT_EQ(jsonEscape("µ=16"), "µ=16");
}

TEST(JsonDouble, IntegralValuesKeepTypeMarker) {
  EXPECT_EQ(jsonDouble(1.0), "1.0");
  EXPECT_EQ(jsonDouble(0.0), "0.0");
  EXPECT_EQ(jsonDouble(-3.0), "-3.0");
}

TEST(JsonDouble, NonFiniteIsNull) {
  EXPECT_EQ(jsonDouble(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(jsonDouble(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(jsonDouble(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonDouble, RoundTripsExactly) {
  for (double v : {0.1, 1.0 / 3.0, 1e-300, 6.02214076e23, -2.5}) {
    std::string s = jsonDouble(v);
    EXPECT_DOUBLE_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
}

TEST(JsonDouble, AppendMatchesAndKeepsPrefix) {
  const double values[] = {0.0,   -0.0,  1.0,    -3.0,   0.1,
                           1e22,  5e-324, 123456789.0, 1.0 / 3,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()};
  std::string appended = "[";
  std::string joined = "[";
  for (double v : values) {
    appendJsonDouble(appended, v);
    appended += ',';
    joined += jsonDouble(v) + ',';
  }
  EXPECT_EQ(appended, joined);
  EXPECT_EQ(appended,
            "[0.0,-0.0,1.0,-3.0,0.1,1e+22,5e-324,123456789.0,"
            "0.3333333333333333,null,null,");
}

TEST(JsonWriter, GoldenNestedDocument) {
  std::ostringstream os;
  JsonWriter w(os, 2);
  w.beginObject();
  w.key("name").value("bench");
  w.key("count").value(std::int64_t{3});
  w.key("ok").value(true);
  w.key("none").nullValue();
  w.key("xs").beginArray().value(1.5).value(2.0).endArray();
  w.key("inner").beginObject().key("k").value("v").endObject();
  w.endObject();
  w.done();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"name\": \"bench\",\n"
            "  \"count\": 3,\n"
            "  \"ok\": true,\n"
            "  \"none\": null,\n"
            "  \"xs\": [\n"
            "    1.5,\n"
            "    2.0\n"
            "  ],\n"
            "  \"inner\": {\n"
            "    \"k\": \"v\"\n"
            "  }\n"
            "}");
}

TEST(JsonWriter, CompactMode) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.beginArray().value(1.0).value("a").beginObject().endObject().endArray();
  w.done();
  EXPECT_EQ(os.str(), "[1.0,\"a\",{}]");
}

TEST(JsonWriter, EmptyContainers) {
  std::ostringstream os;
  JsonWriter w(os, 2);
  w.beginObject();
  w.key("a").beginArray().endArray();
  w.key("o").beginObject().endObject();
  w.endObject();
  w.done();
  EXPECT_EQ(os.str(), "{\n  \"a\": [],\n  \"o\": {}\n}");
}

TEST(JsonWriter, ThrowsOnValueWhereKeyRequired) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject();
  EXPECT_THROW(w.value("orphan"), std::logic_error);
}

TEST(JsonWriter, ThrowsOnKeyInsideArray) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginArray();
  EXPECT_THROW(w.key("k"), std::logic_error);
}

TEST(JsonWriter, ThrowsOnMismatchedEnd) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject();
  EXPECT_THROW(w.endArray(), std::logic_error);
}

TEST(JsonWriter, ThrowsOnSecondTopLevelValue) {
  std::ostringstream os;
  JsonWriter w(os);
  w.value(1.0);
  EXPECT_THROW(w.value(2.0), std::logic_error);
}

TEST(JsonWriter, DoneThrowsOnIncompleteDocument) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject();
  EXPECT_THROW(w.done(), std::logic_error);
}

TEST(JsonWriter, EscapesKeysAndStringValues) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.beginObject().key("a\"b").value("c\nd").endObject();
  w.done();
  EXPECT_EQ(os.str(), "{\"a\\\"b\":\"c\\nd\"}");
}

}  // namespace
}  // namespace cdbp
