// Span log of the traced run: every span the driver opens around a call into
// a layer is kept in memory (name, start, end, parent span, op id) and
// written out once, when the run ends. Nothing is dropped: the vector grows.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    uint32_t name = 0;
    int64_t parent = -1;  ///< index of the enclosing span; -1 at an op root
    uint64_t op = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  /// Count, summed duration and summed self time of the spans of one name.
  /// Self time is a span's duration minus the time its child spans cover.
  struct Totals {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };

  explicit SpanLog(std::vector<std::string> names) : names_(std::move(names)) {
    spans_.reserve(1 << 16);
  }

  size_t Begin(uint32_t name, uint64_t op, uint64_t now_ns) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    span.op = op;
    span.start_ns = now_ns;
    spans_.push_back(span);
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void End(size_t index, uint64_t now_ns) {
    spans_[index].end_ns = now_ns;
    open_.pop_back();
  }

  const std::string& name(uint32_t id) const { return names_[id]; }
  size_t size() const { return spans_.size(); }

  std::vector<Totals> TotalsByName() const {
    std::vector<uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::vector<Totals> totals(names_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      uint64_t dur = s.end_ns - s.start_ns;
      Totals& t = totals[s.name];
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
    }
    return totals;
  }

  /// One tab-separated line per span: index, parent, op, name, start, end.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "span\tparent\top\tname\tstart_ns\tend_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%lld\t%llu\t%s\t%llu\t%llu\n", i,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op),
                   names_[s.name].c_str(),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
