// Sweep runners backed by the scan layer (QScanner prober, Cloudflare
// study), so the measurement-study benches (Fig 8/10/14, Table 1, Fig 9/15)
// declare axes — vantage, CDN, day, hour — exactly like testbed benches and
// run on the shared sweep engine: global scheduling, streaming aggregation,
// trace-mode CDFs and time series, CSV/JSON export.
//
// Conventions: scan dimensions ride on the generic SweepExtraAxis mechanism
// under the canonical axis names "vantage", "cdn" and "day" (the axis
// factories below). The runners below read a point's extras once per point,
// into the point's memo (core::PointMemo), not once per repetition; absent
// axes fall back to São Paulo / day 0, the paper's main vantage.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/sweep.h"
#include "scan/population.h"
#include "scan/prober.h"
#include "scan/study.h"

namespace quicer::scan {

/// Extra axis "vantage" over the given vantage points.
core::SweepExtraAxis VantageAxis(const std::vector<Vantage>& vantages);

/// Extra axis "cdn" over the given CDNs.
core::SweepExtraAxis CdnAxis(const std::vector<Cdn>& cdns);

/// Extra axis "day" over days 0 .. days-1.
core::SweepExtraAxis DayAxis(int days);

/// The point's vantage ("vantage" extra), or `fallback`.
Vantage PointVantage(const core::SweepPoint& point, Vantage fallback = Vantage::kSaoPaulo);

/// The point's CDN ("cdn" extra), or nullopt when the axis is absent.
std::optional<Cdn> PointCdn(const core::SweepPoint& point);

/// The point's day ("day" extra), or 0.
std::uint64_t PointDay(const core::SweepPoint& point);

/// The CDN a point admits: only domains hosted by it are probed, every
/// other repetition skips the probe and leaves its slots "no sample" for
/// every metric, which is what keeps a CDN axis as cheap as the legacy
/// single-pass loops. nullopt (or a null filter) admits every domain.
/// Called once per point, so inside a block a filtered repetition costs one
/// CDN compare: no call, no write, no allocation.
using ProbeFilter = std::function<std::optional<Cdn>(const core::SweepPoint&)>;

/// Filter: the point's "cdn" extra (every domain when the axis is absent).
ProbeFilter MatchPointCdn();

/// Extracts one metric value from one probe. Return core::NoSample() to
/// skip the repetition for this metric.
using ProbeMetricFn =
    std::function<double(const core::SweepPoint&, const Domain&, const ProbeResult&)>;

/// Block runner: repetition r probes population->domains()[r] from the
/// point's vantage/day extras and writes the per-metric extractors' values
/// (aligned with the spec's MetricSpec set) straight into the block's slots.
/// The admitted CDN, vantage and day are resolved once per point, and read
/// once per block. Use repetitions == population->size(); the trace of a
/// metric then follows population rank order, exactly like the legacy
/// per-domain loops. Repetitions past the population probe nothing. Adds
/// the block's probes and filtered repetitions to the scan.probe_runner.*
/// telemetry counters. Its one-repetition operator() runs the same body on
/// one rank and returns an empty vector for a rank it does not probe.
core::SweepRunner ProbeRunner(std::shared_ptr<const TrancoPopulation> population,
                              std::uint64_t prober_seed, ProbeFilter filter,
                              std::vector<ProbeMetricFn> metrics);

/// One Cloudflare study, run once per point and shared by its repetitions.
struct StudyOutcome {
  std::vector<HourlyPoint> points;
  StudySummary summary;
};

/// Extracts one metric value from the point's study outcome. For time-series
/// sweeps the repetition index is the study hour
/// (outcome.points[ctx.repetition]); for per-vantage summary sweeps use one
/// repetition and read outcome.summary.
using StudyMetricFn =
    std::function<double(const StudyOutcome&, const core::SweepRunContext&)>;

/// Runner: lazily runs RunCloudflareStudy(make_config(point)) once per point
/// (in the point's memo; concurrent repetitions of the point share the
/// outcome) and applies the per-metric extractors. make_config may depend
/// only on the point.
core::SweepRunner StudyRunner(
    std::function<CloudflareStudyConfig(const core::SweepPoint&)> make_config,
    std::vector<StudyMetricFn> metrics);

}  // namespace quicer::scan
