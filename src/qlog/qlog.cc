#include "qlog/qlog.h"

#include <utility>

namespace quicer::qlog {

void Trace::RecordMetrics(const MetricsUpdate& update) {
  MetricsUpdate stored = update;
  stored.rtt_var_logged = config_.logs_rttvar;
  if (!config_.logs_rttvar) stored.rtt_var = 0;

  if (config_.metrics_exposure < 1.0 && !rng_.Bernoulli(config_.metrics_exposure)) {
    ++suppressed_;
    return;
  }
  if (metrics_.capacity() == 0) metrics_.reserve(16);
  // The paper removes consecutive duplicates when counting exposed updates.
  if (!metrics_.empty()) {
    const MetricsUpdate& last = metrics_.back();
    if (last.smoothed_rtt == stored.smoothed_rtt && last.rtt_var == stored.rtt_var &&
        last.latest_rtt == stored.latest_rtt) {
      return;
    }
  }
  metrics_.push_back(stored);
}

void Trace::RecordNote(sim::Time time, std::string_view category, std::string_view detail) {
  // Reuse a retired slot when one exists: string::assign into retained
  // capacity keeps repeated runs allocation-free in steady state.
  if (notes_used_ < notes_.size()) {
    NoteEvent& note = notes_[notes_used_];
    note.time = time;
    note.category.assign(category);
    note.detail.assign(detail);
  } else {
    notes_.push_back(NoteEvent{time, std::string(category), std::string(detail)});
  }
  ++notes_used_;
}

void Trace::Reset(TraceConfig config, sim::Rng rng) {
  config_ = config;
  rng_ = rng;
  metrics_.clear();
  packets_.clear();
  events_.clear();
  notes_used_ = 0;  // slots stay allocated; RecordNote overwrites them
  packets_with_new_acks_ = 0;
  suppressed_ = 0;
}

std::optional<MetricsUpdate> Trace::FirstMetrics() const {
  if (metrics_.empty()) return std::nullopt;
  return metrics_.front();
}

}  // namespace quicer::qlog
