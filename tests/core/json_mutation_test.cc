// Seeded mutation smoke over the JSON parser and the sweep partial-document
// codec. A generated partial document takes byte flips, inserts, deletes
// and number swaps; no mutant may crash (the sanitizer CI job runs this test too),
// every rejection names the failing value's path, and every mutant the codec
// accepts reaches a fixed point when written again and re-read. A few
// thousand mutants of a few-KB document keep it well under two seconds.
#include <gtest/gtest.h>

#include <optional>
#include <iterator>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/json.h"
#include "core/sweep.h"
#include "core/sweep_partial.h"

namespace quicer::core {
namespace {

constexpr std::uint64_t kSeed = 20261019;
constexpr int kMutants = 4000;

/// One shard of a small scan-shaped sweep: a trace of 16-17-digit delays and
/// summaries of 0/1 samples and of delays, one of which (point 0's 0/1
/// samples) overflows its reservoir into the histogram form; filtered
/// repetitions return no values.
std::string SeedDocument() {
  SweepSpec spec;
  spec.name = "json_mutation_seed";
  spec.axes.extras = {{"cdn", {{"cloudflare", 1}, {"google", 2}}},
                      {"day", {{"0", 0}, {"1", 1}, {"2", 2}}}};
  spec.repetitions = 24;
  spec.reservoir_capacity = 8;
  spec.shard.index = 0;
  spec.shard.count = 2;
  spec.shard.rep_begin = 2;
  spec.shard.rep_end = 20;
  spec.metrics = {{"ack_sh_delay_ms", MetricMode::kTrace, /*exclude_negative=*/false, nullptr},
                  {"iack", MetricMode::kSummary, /*exclude_negative=*/false, nullptr},
                  {"ttfb_ms", MetricMode::kSummary, /*exclude_negative=*/true, nullptr}};
  spec.runner = [](const SweepRunContext& ctx) -> std::vector<double> {
    const std::int64_t cdn = ctx.point.Extra("cdn")->value;
    if ((ctx.repetition + cdn) % 3 == 0) return {};
    const double delay = (ctx.repetition + 1) / 3.0 + static_cast<double>(cdn) * 0.1;
    const bool sampled = ctx.point.index == 0 || ctx.repetition % 3 == 1;
    return {delay, sampled ? ctx.repetition % 2 : NoSample(),
            ctx.repetition == 7 ? -1.0 : ctx.repetition < 12 ? delay * 7.0 : NoSample()};
  };
  return SweepPartialJson(RunSweep(spec, 1));
}

bool InNumber(char c) {
  return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E';
}

std::string Mutate(std::string doc, std::mt19937_64& rng) {
  // Mostly bytes that JSON gives meaning to, some arbitrary ones.
  constexpr std::string_view kBytes = "0123456789-+.eE{}[],:\" \t\n\r\v\fatrunl\\";
  // Well-formed numbers that no integer field may hold.
  constexpr std::string_view kNumbers[] = {"-1", "0.5", "1e300", "-0", "2147483648",
                                           "18446744073709551616", "9007199254740993",
                                           "-9223372036854775809", "1e-300"};
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = rng() % (doc.size() + 1);
    const char byte = rng() % 4 == 0 ? static_cast<char>(rng() % 256) : kBytes[rng() % kBytes.size()];
    switch (rng() % 4) {
      case 0:
        if (at < doc.size()) doc[at] = byte;
        break;
      case 1: doc.insert(at, 1, byte); break;
      case 2: doc.erase(at, 1 + rng() % 8); break;
      default: {
        // Replace the next number at or after `at` with another one.
        std::size_t begin = at;
        while (begin < doc.size() && !(doc[begin] >= '0' && doc[begin] <= '9')) ++begin;
        while (begin > 0 && InNumber(doc[begin - 1])) --begin;
        std::size_t end = begin;
        while (end < doc.size() && InNumber(doc[end])) ++end;
        doc.replace(begin, end - begin, kNumbers[rng() % std::size(kNumbers)]);
        break;
      }
    }
  }
  return doc;
}

TEST(JsonMutation, RejectionsNamePathsAndAcceptedPartialsReachAFixedPoint) {
  const std::string seed = SeedDocument();
  std::string error;
  ASSERT_TRUE(ParseSweepPartialJson(seed, &error).has_value()) << error;

  std::mt19937_64 rng(kSeed);
  int rejected = 0;
  int accepted = 0;
  int failures = 0;
  const auto fail = [&](const std::string& what, const std::string& doc) {
    if (++failures > 5) return;
    // Show where the mutant first departs from the seed document.
    std::size_t at = 0;
    while (at < doc.size() && at < seed.size() && doc[at] == seed[at]) ++at;
    const std::size_t from = at < 60 ? 0 : at - 60;
    ADD_FAILURE() << what << "\n--- mutant from offset " << from << " ---\n"
                  << doc.substr(from, 160);
  };
  for (int i = 0; i < kMutants; ++i) {
    const std::string doc = Mutate(seed, rng);
    if (!JsonValue::Parse(doc, &error).has_value()) {
      ++rejected;
      if (error.find(" at $") == std::string::npos) fail("rejection names no path: " + error, doc);
      std::string partial_error;
      if (ParseSweepPartialJson(doc, &partial_error).has_value() ||
          partial_error.find(error) == std::string::npos) {
        fail("the partial codec does not report '" + error + "': " + partial_error, doc);
      }
      continue;
    }
    const std::optional<SweepResult> first = ParseSweepPartialJson(doc, &error);
    if (!first.has_value()) continue;  // well-formed JSON, not a partial document
    ++accepted;
    const std::string written = SweepPartialJson(*first);
    const std::optional<SweepResult> second = ParseSweepPartialJson(written, &error);
    if (!second.has_value()) {
      fail("a rewritten partial does not parse: " + error, doc);
    } else if (SweepPartialJson(*second) != written) {
      fail("no fixed point after one rewrite", doc);
    }
  }
  EXPECT_EQ(failures, 0);
  EXPECT_GT(rejected, kMutants / 4);
  EXPECT_GT(accepted, kMutants / 10);
}

}  // namespace
}  // namespace quicer::core
