// Edge cases of the minimal JSON parser behind the sweep partial-result
// files: escapes, nesting limits, truncated input, duplicate keys — and the
// partial-file round trip a sharded run hands to the merge phase, with its
// strictly read header fields.
#include <gtest/gtest.h>

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
#include <tuple>
#include <vector>

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

  // Overflow reads as ±inf, the writer's spelling of infinity.
  const std::optional<JsonValue> overflows =
      Parse("[1e999, -1e999, 1e309, 0.5e400, 1000e306, -0.001e312]");
  ASSERT_TRUE(overflows.has_value());
  for (std::size_t i = 0; i < overflows->Items().size(); ++i) {
    const double v = overflows->Items()[i].AsNumber();
    EXPECT_TRUE(std::isinf(v)) << i;
    EXPECT_EQ(std::signbit(v), i == 1 || i == 5) << i;
  }

  // Underflow is an error, not 0, and the error names the value.
  std::string error;
  for (const char* doc : {R"({"a": [1, 1e-999]})", R"({"a": [1, 1000e-1000]})",
                          R"({"a": [1, 0.0001e-321]})"}) {
    error.clear();
    EXPECT_FALSE(Parse(doc, &error).has_value()) << doc;
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
    EXPECT_NE(error.find("$.a[1]"), std::string::npos) << error;
  }
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

// Whitespace is RFC 8259's four characters only: \v and \f (which
// std::isspace accepts) are rejected, and the error names the value.
TEST(JsonParser, WhitespaceIsOnlySpaceTabLfCr) {
  const std::optional<JsonValue> spaced = Parse(" \t\r\n{ \"a\" :\t[ 1 ,\r\n2 ] }\n ");
  ASSERT_TRUE(spaced.has_value());
  EXPECT_EQ(spaced->Get("a")->Items().size(), 2u);

  std::string error;
  EXPECT_FALSE(Parse("[1,\v2]", &error).has_value());
  EXPECT_NE(error.find("at $[1]"), std::string::npos) << error;
  EXPECT_FALSE(Parse("{\"a\":\f1}", &error).has_value());
  EXPECT_NE(error.find("at $.a"), std::string::npos) << error;
  EXPECT_FALSE(Parse("{\"a\": [0, {\"b\": \v1}]}", &error).has_value());
  EXPECT_NE(error.find("at $.a[1].b"), std::string::npos) << error;
  EXPECT_FALSE(Parse("\f[]", &error).has_value());
  EXPECT_NE(error.find("at $ "), std::string::npos) << error;
  EXPECT_FALSE(Parse("[]\v", &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

// Integer literals of up to 15 digits are read by exact accumulation; longer
// ones, fractions and exponents by from_chars. Both agree with strtod.
TEST(JsonParser, IntegerLiteralsReadExactly) {
  std::mt19937_64 rng(7);
  std::string doc = "[-0, 0, 999999999999999, -999999999999999, 1000000000000000, "
                    "9007199254740993, 123456789012345678901234567890";
  for (int i = 0; i < 2000; ++i) {
    const int digits = 1 + static_cast<int>(rng() % 19);
    std::string literal = std::to_string(1 + rng() % 9);
    while (static_cast<int>(literal.size()) < digits) literal += std::to_string(rng() % 10);
    doc += (rng() % 2 == 0 ? ", -" : ", ") + literal;
  }
  doc += "]";
  const std::optional<JsonValue> parsed = Parse(doc);
  ASSERT_TRUE(parsed.has_value());
  std::istringstream literals(doc.substr(1, doc.size() - 2));
  std::string literal;
  std::size_t i = 0;
  while (std::getline(literals, literal, ',')) {
    const double want = std::strtod(literal.c_str(), nullptr);
    const double got = parsed->Items()[i++].AsNumber(1.0);
    EXPECT_EQ(got, want) << literal;
    EXPECT_EQ(std::signbit(got), std::signbit(want)) << literal;
  }
  EXPECT_EQ(i, parsed->Items().size());
}

/// The number writer as it was built on snprintf/strtod: the reference the
/// to_chars codec must match byte for byte. The one departure is ±inf, which
/// %g writes as inf and the writer as ±1e999 so that it parses back.
std::string ReferenceJsonNumber(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
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

// Next to a power of two the ulp below v is half the ulp above, so v rounded
// to 16 digits can fail to read back while another 16-digit form does:
// the writer's one case that needs more than the shortest digits. Every
// normal power of two and its nearest neighbours, both signs.
TEST(JsonNumber, PowersOfTwoMatchSnprintfReference) {
  std::size_t mismatches = 0;
  for (int k = -1022; k <= 1023; ++k) {
    const double power = std::ldexp(1.0, k);
    double up = power;
    double down = power;
    for (int n = 0; n < 3; ++n) {
      for (double v : {up, down, -up, -down}) {
        if (JsonNumber(v) != ReferenceJsonNumber(v) && ++mismatches <= 10) {
          ADD_FAILURE() << "JsonNumber(" << ReferenceJsonNumber(v) << ") wrote " << JsonNumber(v);
        }
      }
      up = std::nextafter(up, std::numeric_limits<double>::infinity());
      down = std::nextafter(down, 0.0);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// A tiny synthetic spec for the partial-file round trip.
SweepSpec TinySpec() {
  SweepSpec spec;
  spec.name = "json_partial_test";
  spec.axes.extras = {{"k", {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}}}};
  spec.repetitions = 3;
  spec.metrics = {{"v", MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  spec.runner = [](const SweepRunContext& ctx) {
    return std::vector<double>{static_cast<double>(ctx.point.Extra("k")->value) * 10.0 +
                               ctx.repetition};
  };
  return spec;
}

// A sharded run's partial files round trip through disk with every
// executed flag intact, and the shards merge back to the full result.
TEST(JsonParser, PartialFileRoundTripKeepsExecutedFlags) {
  const std::string dir = testing::TempDir();
  std::vector<SweepResult> partials;
  for (std::size_t index = 0; index < 2; ++index) {
    SweepSpec spec = TinySpec();
    spec.shard = {index, 2};
    const SweepResult executed = RunSweep(spec);
    ASSERT_TRUE(WriteSweepData(executed, dir));
    const std::string path = dir + "/" + SweepPartialFileName(executed);
    EXPECT_EQ(path, dir + "/json_partial_test_sweep.shard" + std::to_string(index) + "of2.json");

    std::string error;
    std::optional<SweepResult> reread = ReadSweepPartialFile(path, &error);
    std::remove(path.c_str());
    ASSERT_TRUE(reread.has_value()) << error;
    EXPECT_EQ(reread->name, executed.name);
    EXPECT_EQ(reread->spec_hash, executed.spec_hash);
    ASSERT_EQ(reread->points.size(), 4u);
    for (const PointSummary& summary : reread->points) {
      EXPECT_EQ(summary.executed, summary.point.index % 2 == index) << summary.point.index;
    }
    EXPECT_EQ(SweepPartialJson(*reread), SweepPartialJson(executed));
    partials.push_back(std::move(*reread));
  }
  std::string error;
  const std::optional<SweepResult> merged = MergeSweepResults(partials, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(SweepResultJson(*merged), SweepResultJson(RunSweep(TinySpec())));
}

// An infinite sample, and the infinite m2 of an overflowed accumulator,
// write as ±1e999, parse back as ±inf and merge to the unsharded result.
TEST(JsonParser, PartialDocumentsWithInfinityParseAndMerge) {
  const double inf = std::numeric_limits<double>::infinity();
  SweepSpec sample_spec = TinySpec();
  sample_spec.runner = [inf](const SweepRunContext& ctx) {
    return std::vector<double>{ctx.repetition == 1 ? -inf : 1.0};
  };
  SweepSpec m2_spec = TinySpec();
  m2_spec.reservoir_capacity = 2;
  m2_spec.runner = [](const SweepRunContext& ctx) {
    return std::vector<double>{ctx.repetition % 2 == 0 ? 1e300 : -1e300};
  };
  for (const SweepSpec& spec : {sample_spec, m2_spec}) {
    std::vector<SweepResult> partials;
    for (std::size_t index = 0; index < 2; ++index) {
      SweepSpec shard_spec = spec;
      shard_spec.shard.index = index;
      shard_spec.shard.count = 2;
      const std::string doc = SweepPartialJson(RunSweep(shard_spec));
      EXPECT_NE(doc.find("1e999"), std::string::npos) << doc;
      std::string error;
      std::optional<SweepResult> partial = ParseSweepPartialJson(doc, &error);
      ASSERT_TRUE(partial.has_value()) << error;
      EXPECT_EQ(SweepPartialJson(*partial), doc);
      partials.push_back(std::move(*partial));
    }
    std::string error;
    const std::optional<SweepResult> merged = MergeSweepResults(partials, &error);
    ASSERT_TRUE(merged.has_value()) << error;
    EXPECT_EQ(SweepResultJson(*merged), SweepResultJson(RunSweep(spec)));
  }
}

// An infinite sample in an overflowed reservoir leaves NaN moments, which
// the writer spells null; they must read back as NaN, or the document does
// not rewrite to the same bytes and the series does not survive a shard and
// merge.
TEST(JsonParser, OverflowedMomentsOfAnInfiniteSampleRoundTrip) {
  SweepSpec spec = TinySpec();  // 3 repetitions
  spec.reservoir_capacity = 2;
  spec.runner = [](const SweepRunContext& ctx) {
    return std::vector<double>{ctx.repetition == 1 ? std::numeric_limits<double>::infinity()
                                                   : 1.0};
  };
  const std::string doc = SweepPartialJson(RunSweep(spec));
  EXPECT_NE(doc.find("\"mean\": null, \"m2\": null"), std::string::npos) << doc;
  std::string error;
  const std::optional<SweepResult> parsed = ParseSweepPartialJson(doc, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(SweepPartialJson(*parsed), doc);

  std::vector<SweepResult> partials;
  for (std::size_t index = 0; index < 2; ++index) {
    SweepSpec shard_spec = spec;
    shard_spec.shard.index = index;
    shard_spec.shard.count = 2;
    std::optional<SweepResult> partial =
        ParseSweepPartialJson(SweepPartialJson(RunSweep(shard_spec)), &error);
    ASSERT_TRUE(partial.has_value()) << error;
    partials.push_back(std::move(*partial));
  }
  const std::optional<SweepResult> merged = MergeSweepResults(partials, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(SweepResultJson(*merged), SweepResultJson(RunSweep(spec)));
}

TEST(JsonParser, PartialDocumentRejectsWrongShapes) {
  std::string error;
  EXPECT_FALSE(ParseSweepPartialJson("{}", &error).has_value());
  EXPECT_NE(error.find("format"), std::string::npos);
  EXPECT_FALSE(ParseSweepPartialJson("[1, 2]", &error).has_value());
  EXPECT_FALSE(
      ParseSweepPartialJson(R"({"format": "quicer-sweep-partial-v1"})", &error).has_value());
  EXPECT_NE(error.find("points"), std::string::npos);

  // Integer fields must be whole numbers in their type's range (a cast
  // from anything else is undefined or does not survive a rewrite), and a
  // summary lists no more samples than its reservoir holds. The header's
  // uint64 strings are read whole: a hash that read as 0, or a seed that
  // read as its leading digits, would let partials of different grids or
  // seed schedules merge.
  const std::string doc = SweepPartialJson(RunSweep(TinySpec()));
  ASSERT_TRUE(ParseSweepPartialJson(doc, &error).has_value()) << error;
  const auto edited = [&](const std::string& from, const std::string& to) {
    std::string text = doc;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? text : text.replace(at, from.size(), to);
  };
  for (const auto& [from, to, path] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {"\"aborted\": 0", "\"aborted\": -1", "$.points[0].metrics[0].aborted"},
           {"\"repetitions\": 3", "\"repetitions\": 2.5", "$.repetitions"},
           {"\"points_total\": 4", "\"points_total\": 1e300", "$.points_total"},
           {"\"value\": 1}", "\"value\": 9.3e18}", "$.points[0].extras[0].value"},
           {"\"cert_bytes\": ", "\"cert_bytes\": true, \"y\": ", "$.points[0].cert_bytes"},
           {"\"reservoir_capacity\": ", "\"reservoir_capacity\": 2, \"x\": ",
            "$.points[0].metrics[0].samples"},
           {"\"spec_hash\": \"", "\"spec_hash\": \"not-a-hash-zzzzz\", \"x\": \"", "$.spec_hash"},
           {"\"spec_hash\": \"", "\"spec_hash\": \"0\", \"x\": \"", "$.spec_hash"},
           {"\"spec_hash\"", "\"old_spec_hash\"", "$.spec_hash"},
           {"\"seed_stride\": \"", "\"seed_stride\": \"7x19\", \"x\": \"", "$.seed_stride"},
           {"\"seed_base\": \"", "\"seed_base\": \"18446744073709551616\", \"x\": \"",
            "$.seed_base"}}) {
    error.clear();
    EXPECT_FALSE(ParseSweepPartialJson(edited(from, to), &error).has_value()) << to;
    EXPECT_NE(error.find(path), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace quicer::core
