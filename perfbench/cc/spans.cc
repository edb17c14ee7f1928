#include "spans.h"

#include <cstdio>

namespace perfbench {

int64_t SpanRecorder::Begin(const char* name) {
  const int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back(Span{name, open_.empty() ? -1 : open_.back(), NowNs(), -1});
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int64_t id) {
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> SpanRecorder::TotalSeconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0) out[s.name] += (s.end_ns - s.start_ns) * 1e-9;
  }
  return out;
}

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && s.parent >= 0) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns >= 0) {
      out[s.name] += (s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
  }
  return out;
}

std::map<std::string, int64_t> SpanRecorder::Counts() const {
  std::map<std::string, int64_t> out;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0) ++out[s.name];
  }
  return out;
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,name,start_ns,end_ns\n");
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%lld,%s,%lld,%lld\n", i,
                 static_cast<long long>(s.parent), s.name,
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns < 0 ? -1 : s.end_ns - t0));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
