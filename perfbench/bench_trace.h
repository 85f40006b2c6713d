// In-memory span recorder for the traced benchmark run. Spans are
// recorded by the benchmark around each call into a library layer, kept
// in memory, and written out once at exit. Timestamps share the library's
// own trace clock (obs::TraceNowMicros), so the program's spans
// (train/epoch, train/eval) line up with the benchmark's.
#ifndef SDEA_PERFBENCH_BENCH_TRACE_H_
#define SDEA_PERFBENCH_BENCH_TRACE_H_

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "obs/trace.h"

namespace perfbench {

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  static int64_t NowUs() { return sdea::obs::TraceNowMicros(); }

  /// Records a finished span; returns its id (-1 when disabled).
  int64_t Record(std::string name, int64_t start_us, int64_t end_us,
                 int64_t parent, int64_t request = -1) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord s;
    s.id = static_cast<int64_t>(spans_.size());
    s.parent = parent;
    s.name = std::move(name);
    s.start_us = start_us;
    s.end_us = end_us;
    s.request = request;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  /// Reserves an id for a span that is still open, so its children can
  /// name it as their parent before it ends.
  int64_t Open(const std::string& name, int64_t parent, int64_t request) {
    return Record(name, NowUs(), -1, parent, request);
  }
  void Close(int64_t id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_us = NowUs();
  }

  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Sum of the durations of every span named `name`, in seconds.
  double TotalSeconds(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t us = 0;
    for (const SpanRecord& s : spans_) {
      if (s.name == name && s.end_us >= s.start_us) us += s.end_us - s.start_us;
    }
    return static_cast<double>(us) * 1e-6;
  }

  /// Writes every span as chrome://tracing JSON ("X" events; parent and
  /// request ids in args). Returns false when the file cannot be written.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%lld,\"dur\":%lld,\"args\":{\"id\":%lld,"
                   "\"parent\":%lld,\"request\":%lld}}%s\n",
                   s.name.c_str(), static_cast<long long>(s.start_us),
                   static_cast<long long>(s.end_us - s.start_us),
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span on the calling thread: nests under the innermost Span open on
/// the same thread.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int64_t request = -1)
      : tracer_(tracer) {
    if (!tracer_->enabled()) return;
    id_ = tracer_->Open(name, Current(), request);
    Stack().push_back(id_);
  }
  ~Span() {
    if (id_ < 0) return;
    tracer_->Close(id_);
    Stack().pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Innermost open span on this thread, -1 when none.
  static int64_t Current() {
    return Stack().empty() ? -1 : Stack().back();
  }

 private:
  static std::vector<int64_t>& Stack() {
    thread_local std::vector<int64_t> stack;
    return stack;
  }
  Tracer* tracer_;
  int64_t id_ = -1;
};

}  // namespace perfbench

#endif  // SDEA_PERFBENCH_BENCH_TRACE_H_
