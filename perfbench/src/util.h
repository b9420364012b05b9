// Small shared pieces of the benchmark: clock, seeded generator, sample
// statistics, metric records and the in-memory span log.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Seconds on the steady clock (the clock every benchmark span uses).
double NowSeconds();
uint64_t NowNs();

// Runs a fixed loop of the benchmark's own (integer arithmetic, a hash table
// of random keys and its sort, an ordered map of strings) and returns its
// wall time. No program code runs in it, so its time follows only the speed
// of the host, which the bounded time metrics are scaled by (see DESIGN.md).
double CalibrationLoopSeconds();

// SplitMix64. The benchmark carries its own generator so that its inputs do
// not change when the program's generator does.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, bound); bound must be positive.
  uint64_t Below(uint64_t bound);
  // Uniform in [0, 1).
  double Unit();

 private:
  uint64_t state_;
};

template <typename T>
void Shuffle(std::vector<T>& items, SplitMix& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(i)]);
  }
}

// Nearest-rank percentile of `samples` (0 < percentile <= 100); 0 when empty.
double Percentile(std::vector<double> samples, double percentile);
double Median(const std::vector<double>& samples);
// Geometric mean of positive samples; 0 when empty.
double GeoMean(const std::vector<double>& samples);

// A tail percentile with the number of samples it rests on.
struct Tail {
  double percentile = 0;  // 0 when fewer than 20 samples: no tail qualifies
  double value = 0;
  size_t n = 0;
  size_t beyond = 0;  // samples strictly above the percentile's rank
};

// The tail at a fixed percentile.
Tail TailAt(const std::vector<double>& samples, double percentile);
// The highest of p50, p75, p90, p95, p99, p99.5 and p99.9 with at least
// `min_beyond` samples beyond it. The printed latency lines of daemon_mix
// follow it; each bounded `tail_ms` is taken at a fixed percentile instead
// (see DESIGN.md), so that its population does not change with run length.
Tail TailRule(const std::vector<double>& samples, size_t min_beyond = 10);

// One reported number: value, unit and how many samples it summarises.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t n = 1;
};

// Shortest decimal form that reads back as the same double.
std::string FormatNumber(double value);

// Spans the benchmark records around the calls it makes into the program.
// Kept in memory and written out once, when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    uint64_t group = 0;  // experiment or request id shared by its spans
    int parent = -1;     // index of the enclosing span, -1 at the root
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  int Begin(const std::string& name, uint64_t group, int parent);
  void End(int index);
  // A span whose interval was measured elsewhere (the pass manager's own
  // per-pass timings).
  int Add(const std::string& name, uint64_t group, int parent, uint64_t start_ns,
          uint64_t end_ns);

  // Appends another log's spans, keeping their parent links.
  void Append(const SpanLog& other);

  const std::vector<Span>& spans() const { return spans_; }
  // Per span name: the summed duration minus the part of each span's
  // interval that its children cover.
  std::map<std::string, double> SelfSeconds() const;
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Opens a span on construction and closes it on destruction; does nothing
// when the log is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, uint64_t group, int parent)
      : log_(log), index_(log != nullptr ? log->Begin(name, group, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench
