#include "netem/codec.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "core/json.h"
#include "sim/time.h"

namespace quicer::netem {
namespace {

std::optional<LinkModel> Parse(const std::string& text, std::string* error_out = nullptr) {
  std::string error;
  const std::optional<core::JsonValue> json = core::JsonValue::Parse(text, &error);
  EXPECT_TRUE(json.has_value()) << error;
  if (!json.has_value()) return std::nullopt;
  LinkModel model;
  if (!ParseLinkModel(*json, model, error)) {
    if (error_out != nullptr) *error_out = error;
    return std::nullopt;
  }
  return model;
}

/// parse(text) succeeds and re-serializes to `canonical`; a second
/// parse(write(x)) pass reproduces the same bytes (codec stability — the
/// spec content-hash depends on it).
void ExpectCanonical(const std::string& text, const std::string& canonical) {
  const std::optional<LinkModel> model = Parse(text);
  ASSERT_TRUE(model.has_value()) << text;
  EXPECT_EQ(LinkModelJson(*model), canonical) << text;
  const std::optional<LinkModel> again = Parse(canonical);
  ASSERT_TRUE(again.has_value()) << canonical;
  EXPECT_EQ(*again, *model);
  EXPECT_EQ(LinkModelJson(*again), canonical);
}

TEST(LinkModelCodec, DefaultIsEmptyObject) {
  EXPECT_EQ(LinkModelJson(LinkModel{}), "{}");
  ExpectCanonical("{}", "{}");
}

TEST(LinkModelCodec, BernoulliRoundTrips) {
  ExpectCanonical(R"({"loss": {"up": {"bernoulli": {"rate": 0.01}}}})",
                  R"({"loss": {"up": {"bernoulli": {"rate": 0.01}}}})");
}

TEST(LinkModelCodec, GilbertOmitsClassicStateLossRates) {
  const std::string canonical = R"({"loss": {"down": {"gilbert": {"p": 0.05, "r": 0.25}}}})";
  ExpectCanonical(canonical, canonical);
  const std::optional<LinkModel> model = Parse(canonical);
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(model->loss[kDown].kind, LossModel::Kind::kGilbertElliott);
  EXPECT_EQ(model->loss[kDown].loss_good, 0.0);
  EXPECT_EQ(model->loss[kDown].loss_bad, 1.0);
  EXPECT_TRUE(model->loss[kUp].IsDefault());
  // Non-classic state loss rates are preserved.
  ExpectCanonical(
      R"({"loss": {"down": {"gilbert": {"p": 0.05, "r": 0.25, "loss_good": 0.01, "loss_bad": 0.9}}}})",
      R"({"loss": {"down": {"gilbert": {"p": 0.05, "r": 0.25, "loss_good": 0.01, "loss_bad": 0.9}}}})");
  // A chain that never leaves the good state still drops through loss_good.
  ExpectCanonical(R"({"loss": {"up": {"gilbert": {"p": 0, "r": 0.5, "loss_good": 0.02}}}})",
                  R"({"loss": {"up": {"gilbert": {"p": 0, "r": 0.5, "loss_good": 0.02}}}})");
}

TEST(LinkModelCodec, BothExpandsToUpAndDown) {
  const std::optional<LinkModel> model =
      Parse(R"({"loss": {"both": {"gilbert": {"p": 0.1, "r": 0.4}}}})");
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(model->loss[kUp], model->loss[kDown]);
  EXPECT_EQ(model->loss[kUp].kind, LossModel::Kind::kGilbertElliott);
  // The writer always expands.
  EXPECT_EQ(LinkModelJson(*model),
            R"({"loss": {"up": {"gilbert": {"p": 0.1, "r": 0.4}}, "down": {"gilbert": {"p": 0.1, "r": 0.4}}}})");
}

TEST(LinkModelCodec, BothExcludesPerDirectionKeys) {
  std::string error;
  EXPECT_FALSE(Parse(R"({"loss": {"both": {"bernoulli": {"rate": 0.1}},
                                  "up": {"bernoulli": {"rate": 0.2}}}})",
                     &error)
                   .has_value());
  EXPECT_NE(error.find("both"), std::string::npos) << error;
}

TEST(LinkModelCodec, QueueRoundTrips) {
  ExpectCanonical(R"({"queue": {"down": {"depth_pkts": 12}}})",
                  R"({"queue": {"down": {"depth_pkts": 12}}})");
  // "aqm": "taildrop" spells out the only discipline; the writer omits it.
  ExpectCanonical(
      R"({"queue": {"both": {"depth_pkts": 4, "depth_bytes": 65536, "aqm": "taildrop"}}})",
      R"({"queue": {"up": {"depth_pkts": 4, "depth_bytes": 65536}, )"
      R"("down": {"depth_pkts": 4, "depth_bytes": 65536}}})");
  // {} selects the unbounded tail-drop FIFO (still distinct from the
  // default transmitter clock).
  const std::optional<LinkModel> model = Parse(R"({"queue": {"up": {}}})");
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(model->queue[kUp].kind, QueueModel::Kind::kFifo);
  EXPECT_EQ(model->queue[kUp].depth_pkts, 0u);
  EXPECT_TRUE(model->queue[kDown].IsDefault());
}

TEST(LinkModelCodec, PathRoundTripsWithMicrosecondPrecision) {
  const std::string canonical =
      R"({"path": {"up_bps": 2000000, "down_bps": 10000000, "up_delay_ms": 30, "down_delay_ms": 9.5, "down_jitter_ms": 0.25}})";
  ExpectCanonical(canonical, canonical);
  const std::optional<LinkModel> model = Parse(canonical);
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(model->path[kUp].bandwidth_bps, std::optional<double>(2e6));
  EXPECT_EQ(model->path[kUp].one_way_delay, std::optional<sim::Duration>(sim::Millis(30)));
  EXPECT_EQ(model->path[kDown].one_way_delay,
            std::optional<sim::Duration>(sim::Duration(9500)));
  EXPECT_EQ(model->path[kDown].jitter, std::optional<sim::Duration>(sim::Duration(250)));
  EXPECT_FALSE(model->path[kUp].jitter.has_value());
}

TEST(LinkModelCodec, FullModelRoundTrips) {
  ExpectCanonical(
      R"({"loss": {"both": {"bernoulli": {"rate": 0.02}}},
          "queue": {"down": {"depth_pkts": 8}},
          "path": {"up_bps": 1000000, "down_delay_ms": 40}})",
      R"({"loss": {"up": {"bernoulli": {"rate": 0.02}}, "down": {"bernoulli": {"rate": 0.02}}}, )"
      R"("queue": {"down": {"depth_pkts": 8}}, )"
      R"("path": {"up_bps": 1000000, "down_delay_ms": 40}})");
}

TEST(LinkModelCodec, RejectsInvalidDocuments) {
  struct Case {
    const char* text;
    const char* needle;  // expected substring of the error
  };
  const Case cases[] = {
      {R"(["not", "an", "object"])", "object"},
      {R"({"unknown": 1})", "unknown"},
      {R"({"loss": {"sideways": {}}})", "sideways"},
      {R"({"loss": {"up": {}}})", "loss.up"},
      {R"({"loss": {"up": {"bernoulli": {"rate": 1.5}}}})", "rate"},
      {R"({"loss": {"up": {"bernoulli": {"rate": -0.1}}}})", "rate"},
      {R"({"loss": {"up": {"bernoulli": {}}}})", "rate"},
      {R"({"loss": {"up": {"gilbert": {"p": 0.1}}}})", "r"},
      {R"({"loss": {"up": {"gilbert": {"p": 2, "r": 0.5}}}})", "p"},
      {R"({"loss": {"up": {"gilbert": {"p": 0.1, "r": 0.5, "bogus": 1}}}})", "bogus"},
      // Models that can never drop would silently relabel the link.
      {R"({"loss": {"up": {"bernoulli": {"rate": 0}}}})", "loss.up.bernoulli.rate"},
      {R"({"loss": {"down": {"gilbert": {"p": 0, "r": 0.5}}}})", "loss.down.gilbert"},
      {R"({"loss": {"both": {"gilbert": {"p": 0.1, "r": 0.5, "loss_bad": 0}}}})",
       "loss.both.gilbert"},
      {R"({"queue": {"up": {"depth_pkts": -1}}})", "depth_pkts"},
      {R"({"queue": {"up": {"depth_pkts": 1.5}}})", "depth_pkts"},
      {R"({"queue": {"up": {"aqm": "red"}}})", "aqm"},
      {R"({"queue": {"up": {"aqm": "codel"}}})", "queue.up.aqm"},
      {R"({"path": {"up_bps": 0}})", "up_bps"},
      {R"({"path": {"up_bps": -5}})", "up_bps"},
      {R"({"path": {"sideways_ms": 1}})", "sideways_ms"},
      {R"({"path": {"up_delay_ms": -1}})", "up_delay_ms"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_FALSE(Parse(c.text, &error).has_value()) << c.text;
    EXPECT_NE(error.find(c.needle), std::string::npos)
        << c.text << " -> \"" << error << "\"";
  }
}

}  // namespace
}  // namespace quicer::netem
