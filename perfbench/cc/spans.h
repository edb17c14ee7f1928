#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/**
 * In-memory host-time span log for the traced run. Spans are opened
 * and closed around the benchmark's own calls into the simulator (a
 * setup call, one RunUntil slice, one graph phase, one I/O submission)
 * and nest strictly, so the parent of a span is the innermost span open
 * when it began. Nothing here touches simulated time or randomness.
 */
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    int64_t parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
  };

  /** Opens a span under the innermost open one; returns its id. */
  int64_t Begin(const char* name);
  /** Closes span `id`, which must be the innermost open span. */
  void End(int64_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /** Host seconds summed over closed spans, by span name. */
  std::map<std::string, double> TotalSeconds() const;
  /**
   * Host self seconds by span name: each span's duration minus the
   * part of it its child spans cover.
   */
  std::map<std::string, double> SelfSeconds() const;
  /** Closed spans by name. */
  std::map<std::string, int64_t> Counts() const;

  /** Writes "id,parent,name,start_ns,end_ns" rows; false on I/O error. */
  bool WriteCsv(const std::string& path) const;

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/** RAII span; a null recorder (the untraced run) records nothing. */
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
