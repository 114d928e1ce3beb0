// Edge cases of the minimal JSON parser behind the sweep partial-result
// files: escapes, nesting limits, truncated input, duplicate keys — and a
// partial-file round trip that includes budget-skipped points, the shape a
// clipped distributed run hands to the merge phase.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>

#include "core/json.h"
#include "core/sweep.h"
#include "core/sweep_partial.h"

namespace quicer::core {
namespace {

std::optional<JsonValue> Parse(const std::string& text, std::string* error = nullptr) {
  return JsonValue::Parse(text, error);
}

TEST(JsonParser, StringEscapes) {
  const std::optional<JsonValue> parsed =
      Parse(R"({"s": "quote:\" back:\\ slash:\/ nl:\n tab:\t cr:\r bs:\b ff:\f"})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->GetString("s"),
            "quote:\" back:\\ slash:/ nl:\n tab:\t cr:\r bs:\b ff:\f");

  // \uXXXX is deliberately unsupported (machine-written documents never
  // emit it); the parser must reject it rather than mangle it.
  std::string error;
  EXPECT_FALSE(Parse("{\"s\": \"\\u0041\"}", &error).has_value());
  EXPECT_NE(error.find("unsupported escape"), std::string::npos);
  EXPECT_FALSE(Parse("\"\\x41\"").has_value());

  // A backslash at end-of-input is an unterminated string, not a crash.
  EXPECT_FALSE(Parse("\"abc\\").has_value());
}

TEST(JsonParser, WriterEscapesRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te";
  const std::optional<JsonValue> parsed = Parse("\"" + JsonEscape(nasty) + "\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->AsString(), nasty);
}

TEST(JsonParser, DeeplyNestedValuesAreBoundedNotFatal) {
  auto nested = [](int depth) {
    std::string doc(depth, '[');
    doc += "1";
    doc += std::string(depth, ']');
    return doc;
  };
  // Comfortably within the depth bound.
  std::optional<JsonValue> ok = Parse(nested(60));
  ASSERT_TRUE(ok.has_value());
  const JsonValue* cursor = &*ok;
  for (int i = 0; i < 60; ++i) {
    ASSERT_EQ(cursor->Items().size(), 1u);
    cursor = &cursor->Items()[0];
  }
  EXPECT_EQ(cursor->AsNumber(), 1.0);

  // Past the bound: a clean error, not a stack overflow.
  std::string error;
  EXPECT_FALSE(Parse(nested(100), &error).has_value());
  EXPECT_NE(error.find("too deep"), std::string::npos);

  // Mixed object/array nesting counts too.
  std::string mixed;
  for (int i = 0; i < 50; ++i) mixed += "{\"k\": [";
  mixed += "null";
  for (int i = 0; i < 50; ++i) mixed += "]}";
  EXPECT_FALSE(Parse(mixed).has_value());
}

TEST(JsonParser, TruncatedInputFailsCleanly) {
  for (const char* doc : {"", "{", "[", "{\"a\"", "{\"a\":", "{\"a\": 1", "{\"a\": 1,",
                          "[1, 2", "[1,", "\"abc", "tru", "fals", "nul", "-", "{\"a\": }",
                          "[1 2]", "{\"a\" 1}", "{,}", "[,]"}) {
    std::string error;
    EXPECT_FALSE(Parse(doc, &error).has_value()) << "'" << doc << "'";
    EXPECT_FALSE(error.empty()) << "'" << doc << "'";
  }
}

TEST(JsonParser, DuplicateKeysKeepDocumentOrderAndGetReturnsTheFirst) {
  const std::optional<JsonValue> parsed = Parse(R"({"a": 1, "b": 2, "a": 3})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Members().size(), 3u);
  EXPECT_EQ(parsed->GetNumber("a"), 1.0);
  EXPECT_EQ(parsed->Members()[2].second.AsNumber(), 3.0);
}

TEST(JsonParser, NumbersAndLiterals) {
  const std::optional<JsonValue> parsed =
      Parse(R"([0, -0.5, 3e2, 2.5e-3, 1e15, true, false, null])");
  ASSERT_TRUE(parsed.has_value());
  const auto& items = parsed->Items();
  ASSERT_EQ(items.size(), 8u);
  EXPECT_EQ(items[0].AsNumber(), 0.0);
  EXPECT_EQ(items[1].AsNumber(), -0.5);
  EXPECT_EQ(items[2].AsNumber(), 300.0);
  EXPECT_EQ(items[3].AsNumber(), 0.0025);
  EXPECT_EQ(items[4].AsNumber(), 1e15);
  EXPECT_TRUE(items[5].AsBool());
  EXPECT_FALSE(items[6].AsBool(true));
  EXPECT_TRUE(items[7].is_null());

  // Type-mismatch accessors fall back instead of failing.
  EXPECT_EQ(items[5].AsNumber(-1.0), -1.0);
  EXPECT_EQ(items[0].AsString(), "");
  EXPECT_TRUE(items[0].Items().empty());
  EXPECT_EQ(items[0].Get("missing"), nullptr);

  // Extremes that still fit a double parse exactly, subnormals included.
  const std::optional<JsonValue> extremes =
      Parse("[-0, 1.7976931348623157e308, 4.9406564584124654e-324, 1E5, 1e+2]");
  ASSERT_TRUE(extremes.has_value());
  EXPECT_TRUE(std::signbit(extremes->Items()[0].AsNumber()));
  EXPECT_EQ(extremes->Items()[1].AsNumber(), std::numeric_limits<double>::max());
  EXPECT_EQ(extremes->Items()[2].AsNumber(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(extremes->Items()[3].AsNumber(), 1e5);
  EXPECT_EQ(extremes->Items()[4].AsNumber(), 100.0);

  // Out of range is an error, not inf or 0, and the error names the value.
  std::string error;
  EXPECT_FALSE(Parse(R"({"a": [1, 1e999]})", &error).has_value());
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  EXPECT_NE(error.find("$.a[1]"), std::string::npos) << error;
  EXPECT_FALSE(Parse(R"({"points": [{"trace": [0, -1e-400]}]})", &error).has_value());
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  EXPECT_NE(error.find("$.points[0].trace[1]"), std::string::npos) << error;

  // Outside JSON's number grammar: hex, inf/nan spellings, leading zeros,
  // bare or doubled fraction dots, empty exponents.
  for (const char* doc : {"0x10", "[0x10]", "-inf", "[-inf]", "-nan", "inf", "nan", "-",
                          "01", "-01", "1.", "-.5", ".5", "1.5.3", "1e", "1e+", "+1", "--1"}) {
    error.clear();
    EXPECT_FALSE(Parse(doc, &error).has_value()) << "'" << doc << "'";
    EXPECT_FALSE(error.empty()) << "'" << doc << "'";
  }

  // The parser reads only the view it is given, not up to a NUL.
  const std::optional<JsonValue> prefix = JsonValue::Parse(std::string_view("123", 2));
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(prefix->AsNumber(), 12.0);
}

/// The number writer as it was built on snprintf/strtod: the reference the
/// to_chars codec must match byte for byte.
std::string ReferenceJsonNumber(double v) {
  if (std::isnan(v)) return "null";
  char buffer[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, v);
    if (std::strtod(buffer, nullptr) == v) break;
  }
  return buffer;
}

double FromBits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// JsonNumber writes exactly what the snprintf("%.*g") loop wrote, over
// seeded doubles of every shape the exports carry and the corners of %g.
TEST(JsonNumber, MatchesSnprintfReferenceByteForByte) {
  std::mt19937_64 rng(20241104);
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  auto check = [&](double v) {
    ++checked;
    const std::string got = JsonNumber(v);
    const std::string want = ReferenceJsonNumber(v);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "JsonNumber(" << want << ") wrote " << got;
    }
    std::string appended = "x";
    AppendJsonNumber(appended, v);
    if (appended != "x" + want && ++mismatches <= 10) {
      ADD_FAILURE() << "AppendJsonNumber(" << want << ") wrote " << appended;
    }
  };

  for (double v : {0.0, -0.0, std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::max(), std::numeric_limits<double>::lowest(),
                   std::numeric_limits<double>::min(),
                   std::numeric_limits<double>::denorm_min()}) {
    check(v);
  }

  // Random bit patterns: every exponent, subnormals and both signs.
  for (int i = 0; i < 300000; ++i) check(FromBits(rng()));
  for (int i = 0; i < 50000; ++i) check(FromBits(rng() & 0x800FFFFFFFFFFFFFull));

  // Decimals with 1-17 significant digits, as hand-written or rounded
  // values look.
  std::uniform_int_distribution<int> digits_dist(1, 17);
  std::uniform_int_distribution<int> exponent_dist(-30, 30);
  for (int i = 0; i < 250000; ++i) {
    const int digits = digits_dist(rng);
    std::uint64_t mantissa = rng() % 100000000000000000ull;  // < 10^17
    for (int d = 17; d > digits; --d) mantissa /= 10;
    const std::string text =
        std::to_string(mantissa) + "e" + std::to_string(exponent_dist(rng) - digits);
    check(std::strtod(text.c_str(), nullptr));
  }

  // Integers up to 2^53, where every one is exact.
  for (int i = 0; i < 200000; ++i) {
    check(static_cast<double>(rng() % ((std::uint64_t{1} << 53) + 1)));
  }

  // Around every %g fixed/exponent switch from 1e-5 to 1e17: the powers of
  // ten, their ulp neighbours, and the values that round up to them at 15,
  // 16 or 17 digits.
  for (int k = -5; k <= 17; ++k) {
    const double power = std::strtod(("1e" + std::to_string(k)).c_str(), nullptr);
    double up = power;
    double down = power;
    for (int n = 0; n < 4000; ++n) {
      check(up);
      check(down);
      up = std::nextafter(up, std::numeric_limits<double>::infinity());
      down = std::nextafter(down, 0.0);
    }
    for (int digits = 14; digits <= 18; ++digits) {
      const std::string nines = "0." + std::string(digits, '9') + "e" + std::to_string(k);
      double v = std::strtod(nines.c_str(), nullptr);
      for (int n = 0; n < 200; ++n) {
        check(v);
        check(-v);
        v = std::nextafter(v, 0.0);
      }
    }
  }

  EXPECT_GE(checked, 1000000u);
  EXPECT_EQ(mismatches, 0u);
}

/// A tiny synthetic spec for the partial-file round trip.
SweepSpec BudgetSpec() {
  SweepSpec spec;
  spec.name = "json_budget_test";
  spec.axes.extras = {{"k", {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}}}};
  spec.repetitions = 3;
  spec.metrics = {{"v", MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  spec.runner = [](const SweepRunContext& ctx) {
    return std::vector<double>{static_cast<double>(ctx.point.Extra("k")->value) * 10.0 +
                               ctx.repetition};
  };
  return spec;
}

// A budget-clipped run's partial file lists its skipped points and round
// trips through disk with every flag intact; re-running exactly those
// points merges back to the full result.
TEST(JsonParser, PartialFileRoundTripIncludesBudgetSkippedPoints) {
  SweepSpec clipped_spec = BudgetSpec();
  clipped_spec.deadline = std::chrono::steady_clock::time_point::min();  // already past
  const SweepResult clipped = RunSweep(clipped_spec);
  const std::vector<std::size_t> skipped = clipped.BudgetSkippedPoints();
  ASSERT_EQ(skipped.size(), 4u);

  const std::string dir = testing::TempDir();
  ASSERT_TRUE(WriteSweepData(clipped, dir));
  const std::string path = dir + "/" + SweepPartialFileName(clipped);

  std::string error;
  const std::optional<SweepResult> reread = ReadSweepPartialFile(path, &error);
  std::remove(path.c_str());
  ASSERT_TRUE(reread.has_value()) << error;
  EXPECT_EQ(reread->name, clipped.name);
  EXPECT_EQ(reread->BudgetSkippedPoints(), skipped);
  for (const PointSummary& summary : reread->points) {
    EXPECT_TRUE(summary.budget_skipped);
    EXPECT_FALSE(summary.executed);
  }

  SweepSpec rerun_spec = BudgetSpec();
  rerun_spec.shard.points = skipped;
  std::optional<SweepResult> rerun =
      ParseSweepPartialJson(SweepPartialJson(RunSweep(rerun_spec)), &error);
  ASSERT_TRUE(rerun.has_value()) << error;
  const std::optional<SweepResult> merged = MergeSweepResults({*reread, *rerun}, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(SweepResultJson(*merged), SweepResultJson(RunSweep(BudgetSpec())));
}

TEST(JsonParser, PartialDocumentRejectsWrongShapes) {
  std::string error;
  EXPECT_FALSE(ParseSweepPartialJson("{}", &error).has_value());
  EXPECT_NE(error.find("format"), std::string::npos);
  EXPECT_FALSE(ParseSweepPartialJson("[1, 2]", &error).has_value());
  EXPECT_FALSE(
      ParseSweepPartialJson(R"({"format": "quicer-sweep-partial-v1"})", &error).has_value());
  EXPECT_NE(error.find("points"), std::string::npos);
}

}  // namespace
}  // namespace quicer::core
