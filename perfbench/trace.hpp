// Span recorder and the order-statistics helpers the benchmark reduces
// its samples with.
//
// Spans are recorded from the benchmark's own files, around the public
// calls it makes into each layer (no program source is instrumented).
// One Tracer per simulated rank: spans are keyed by name and nesting,
// never by thread id. A disabled Tracer records nothing, so the
// untraced runs pay only an inlined branch per scope.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the middle pair for even sizes).
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]), the definition
/// serve::Scheduler uses for its latency percentiles.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(v.begin(), v.end());
  auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  idx = idx > 0 ? idx - 1 : 0;
  return v[std::min(idx, v.size() - 1)];
}

struct Span {
  std::string name;
  int parent = -1;  ///< index of the enclosing span, -1 at the root
  double start = 0.0;
  double end = 0.0;  ///< seconds since the tracer's epoch
  double seconds() const { return end - start; }
};

/// Duration of spans[i] minus the part of its interval its direct
/// children cover (overlapping children count once).
inline double self_seconds(const std::vector<Span>& spans, std::size_t i) {
  std::vector<std::pair<double, double>> kids;
  for (const Span& s : spans)
    if (s.parent == static_cast<int>(i))
      kids.emplace_back(std::max(s.start, spans[i].start),
                        std::min(s.end, spans[i].end));
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double reach = spans[i].start;
  for (const auto& [lo, hi] : kids) {
    const double from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return spans[i].seconds() - covered;
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Closes its span on destruction; open scopes nest.
  class Scope {
   public:
    Scope(Tracer& t, std::string name) : t_(t), index_(t.open(std::move(name))) {}
    ~Scope() { t_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int index_;
  };

  Scope scope(std::string name) { return Scope(*this, std::move(name)); }

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    open_ = -1;
  }

  /// Summed duration of every span called `name`.
  double total(const std::string& name) const {
    double t = 0.0;
    for (const Span& s : spans_)
      if (s.name == name) t += s.seconds();
    return t;
  }

  /// Summed self time of every span called `name`.
  double self_total(const std::string& name) const {
    double t = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].name == name) t += self_seconds(spans_, i);
    return t;
  }

 private:
  using clock = std::chrono::steady_clock;

  double now() const {
    return std::chrono::duration<double>(clock::now() - epoch_).count();
  }
  int open(std::string name) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), open_, now(), 0.0});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void close(int index) {
    if (index < 0) return;
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end = now();
    open_ = s.parent;
  }

  bool enabled_;
  clock::time_point epoch_ = clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perfbench
