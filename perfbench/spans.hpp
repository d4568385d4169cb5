// Timing and the traced mode: a Span times one call into a layer; when the
// tracer is on it also keeps {name, start, end, parent} in memory, written
// out as JSON when the run ends. Spans are opened on the main thread only;
// reader threads report one span each after they are joined.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t calls = 1;  ///< Calls the span covers (>1 for timed loops).
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(now_ns()) {}
  bool enabled() const { return enabled_; }

  int open(const char* name, std::int64_t start) {
    if (!enabled_) return -1;
    records_.push_back({name, start - origin_, 0, stack_.empty() ? -1 : stack_.back(), 1});
    stack_.push_back(static_cast<int>(records_.size()) - 1);
    return stack_.back();
  }
  void close(int id, std::int64_t end, std::uint64_t calls) {
    if (id < 0) return;
    records_[id].end_ns = end - origin_;
    records_[id].calls = calls;
    stack_.pop_back();
  }
  /// A span measured elsewhere (a joined thread), under the open span.
  void add(const char* name, std::int64_t start, std::int64_t end,
           std::uint64_t calls) {
    if (!enabled_) return;
    records_.push_back({name, start - origin_, end - origin_,
                        stack_.empty() ? -1 : stack_.back(), calls});
  }

  /// Sum of the durations of every span called `name`, in seconds.
  double total_s(const std::string& name) const {
    double s = 0;
    for (const SpanRecord& r : records_) {
      if (r.name == name) s += (r.end_ns - r.start_ns) * 1e-9;
    }
    return s;
  }

  /// Writes the spans plus two pre-rendered JSON objects of metrics.
  bool write_json(const std::string& path, const std::string& end_to_end,
                  const std::string& per_layer) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"clock\": \"steady_clock ns since process start\",\n");
    std::fprintf(f, " \"end_to_end\": %s,\n \"per_layer\": %s,\n",
                 end_to_end.c_str(), per_layer.c_str());
    std::fprintf(f, " \"spans\": [\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const SpanRecord& r = records_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d, \"calls\": %llu}%s\n",
                   i, r.name.c_str(), static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns), r.parent,
                   static_cast<unsigned long long>(r.calls),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, " ]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::int64_t origin_;
  std::vector<SpanRecord> records_;
  std::vector<int> stack_;
};

/// Times the enclosing scope (or until stop()).
class Span {
 public:
  Span(Tracer& t, const char* name)
      : t_(t), start_(now_ns()), id_(t.open(name, start_)) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop(std::uint64_t calls = 1) {
    if (end_ == 0) {
      end_ = now_ns();
      t_.close(id_, end_, calls);
    }
    return (end_ - start_) * 1e-9;
  }

 private:
  Tracer& t_;
  std::int64_t start_;
  std::int64_t end_ = 0;
  int id_;
};

/// The q-quantile (0..1) of `v` by nearest rank; `v` is reordered.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::size_t k = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (k >= v.size()) k = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

}  // namespace perfbench
