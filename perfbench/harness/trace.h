// In-memory span recorder of the traced run. Spans are recorded by the
// harness around its calls into each layer (name, start, end, parent,
// request id) and written out once the run ends; sink deliveries are
// folded into one aggregate span per query (count + total time) instead of
// one span per solution.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0;  // harness clock seconds
  double end = 0;
  int64_t parent = -1;   // index into the trace, -1 for a root span
  uint64_t request = 0;  // spans of one request share this id
  uint64_t count = 1;    // >1 for an aggregate span (e.g. sink deliveries)
};

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its index (-1 when disabled).
  int64_t Add(Span span) {
    if (!enabled_) return -1;
    spans_.push_back(std::move(span));
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Sets a recorded span's end time (spans whose children are recorded
  /// before the parent ends are added first with end = start).
  void End(int64_t index, double end) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end = end;
  }

  /// Self time per span name: each span's duration minus the durations of
  /// its direct children (children never overlap one another).
  std::map<std::string, double> SelfSeconds() const {
    std::vector<double> child_total(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_total[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] += spans_[i].end - spans_[i].start - child_total[i];
    }
    return self;
  }

  /// Writes `header` (one JSON object, e.g. the machine stamp) and then
  /// one JSON object per span. Returns false on an I/O error.
  bool Write(const std::string& path, const std::string& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "%s\n", header.c_str());
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                   "\"parent\":%lld,\"request\":%llu,\"count\":%llu}\n",
                   s.name.c_str(), s.start, s.end,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.count));
    }
    return std::fclose(f) == 0;
  }

  size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
