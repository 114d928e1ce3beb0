#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer* g_tracer = nullptr;

std::int32_t Tracer::Open(const char* name) {
  const auto index = static_cast<std::int32_t>(records_.size());
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  records_.push_back({name, NowNs(), 0, parent, run_});
  open_.push_back(index);
  return index;
}

void Tracer::Close(std::int32_t index) {
  records_[static_cast<std::size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

void Tracer::AddAggregate(const char* name, std::int64_t duration_ns) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  const std::int64_t start =
      parent < 0 ? NowNs() : records_[static_cast<std::size_t>(parent)].start_ns;
  records_.push_back({name, start, start + duration_ns, parent, run_});
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
  }
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    Totals& t = totals[r.name];
    t.total_ns += r.end_ns - r.start_ns;
    t.self_ns += r.end_ns - r.start_ns - child_ns[i];
  }
  return totals;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "name,run,parent,start_ns,end_ns\n");
  for (const Record& r : records_) {
    std::fprintf(out, "%s,%u,%d,%lld,%lld\n", r.name, r.run, r.parent,
                 static_cast<long long>(r.start_ns), static_cast<long long>(r.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
