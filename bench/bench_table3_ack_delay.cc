// Table 3 — Delay reported in the ACK Delay field of the first Initial- and
// Handshake-space acknowledgment, per server implementation (QUIC Interop
// Runner population).
//
// Paper takeaway (Appendix D): six implementations report 0 ms, msquic sends
// no Initial/Handshake ACKs at all, and s2n-quic reports more than the RTT —
// all of which disqualify ACK Delay as a substitute for instant ACK.
//
// Sweep mapping: the server implementation is an extra axis and a profile
// runner reads the two reported delays (kTrace, one repetition; NaN = the
// implementation sends no ACK in that space, rendered as "-").
#include <cstdio>

#include "bench_common.h"
#include "clients/server_profiles.h"
#include "core/report.h"
#include "registry.h"

QUICER_BENCH("table3", "Table 3: first ACK Delay per server implementation") {
  using namespace quicer;
  core::PrintTitle("Table 3: first ACK Delay per server implementation");

  core::SweepSpec spec;
  spec.name = "table3";
  core::SweepExtraAxis servers;
  servers.name = "server";
  for (clients::ServerImpl impl : clients::kAllServers) {
    servers.values.push_back({std::string(clients::GetServerAckDelayProfile(impl).name),
                              static_cast<std::int64_t>(impl)});
  }
  spec.axes.extras = {servers};
  spec.repetitions = 1;
  auto trace = [](const char* name) {
    return core::MetricSpec{name, core::MetricMode::kTrace, /*exclude_negative=*/false,
                            nullptr};
  };
  spec.metrics = {trace("initial_ack_delay_ms"), trace("handshake_ack_delay_ms")};
  spec.runner = [](const core::SweepRunContext& run) {
    const auto impl = static_cast<clients::ServerImpl>(run.point.Extra("server")->value);
    const auto& profile = clients::GetServerAckDelayProfile(impl);
    auto delay = [](const std::optional<sim::Duration>& d) {
      return d.has_value() ? sim::ToMillis(*d) : core::NoSample();
    };
    return std::vector<double>{delay(profile.initial_ack_delay),
                               delay(profile.handshake_ack_delay)};
  };
  bench::TuneObserver(spec, ctx);
  const core::SweepResult result = core::RunSweep(spec);
  if (bench::PartialExported(result)) return 0;

  std::printf("%12s  %16s  %18s\n", "server", "Initial [ms]", "Handshake [ms]");
  int zero_count = 0;
  int no_hs_ack = 0;
  for (const core::PointSummary& summary : result.points) {
    const auto& initial_trace = summary.Metric("initial_ack_delay_ms")->trace;
    const auto& handshake_trace = summary.Metric("handshake_ack_delay_ms")->trace;
    char initial[32] = "-";
    char handshake[32] = "-";
    if (!initial_trace.empty()) {
      std::snprintf(initial, sizeof(initial), "%.1f", initial_trace.front());
      if (initial_trace.front() == 0) ++zero_count;
    }
    if (!handshake_trace.empty()) {
      std::snprintf(handshake, sizeof(handshake), "%.1f", handshake_trace.front());
    } else {
      ++no_hs_ack;
    }
    std::printf("%12s  %16s  %18s\n", summary.point.Extra("server")->label.c_str(), initial,
                handshake);
  }
  std::printf("\n%d implementations report 0 ms in the first Initial ACK (paper: 6);\n"
              "%d send no Handshake-space acknowledgment (paper: 11+); msquic sends no\n"
              "Initial/Handshake ACKs at all; s2n-quic's reported delay exceeds the RTT.\n",
              zero_count, no_hs_ack);
  core::MaybeWriteSweepData(result);
  return 0;
}
