#include "util.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>

namespace perfbench {

double NowSeconds() { return static_cast<double>(NowNs()) * 1e-9; }

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t SplitMix::Below(uint64_t bound) { return Next() % bound; }

double SplitMix::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

// Where the calibration loop leaves its result, so that no part of it is
// optimised away.
volatile uint64_t calibration_sink = 0;

double CalibrationLoopSeconds() {
  const double t0 = NowSeconds();
  SplitMix rng(1);
  uint64_t sink = 0;
  for (uint64_t i = 0; i < 5000000; ++i) {
    sink = sink * 6364136223846793005ull + (i ^ (sink >> 29));
  }
  std::unordered_map<uint64_t, uint64_t> table;
  for (uint64_t i = 0; i < 30000; ++i) {
    table[rng.Next() >> 44] += i;
  }
  std::vector<uint64_t> values;
  values.reserve(table.size());
  for (const auto& entry : table) {
    values.push_back(entry.first ^ entry.second);
  }
  std::sort(values.begin(), values.end());
  std::map<std::string, uint64_t> tree;
  for (uint64_t i = 0; i < 10000; ++i) {
    tree[std::to_string(rng.Next() >> 40)] += i;
    if (i % 3 == 0) {
      tree.erase(tree.begin());
    }
  }
  calibration_sink = sink + values[values.size() / 2] + tree.size();
  return NowSeconds() - t0;
}

namespace {

// The percentiles a tail is reported at, lowest first.
const double kTailLadder[] = {50, 75, 90, 95, 99, 99.5, 99.9};

// 1-based nearest rank of `percentile` among n samples.
size_t RankOf(size_t n, double percentile) {
  const double exact = percentile / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::min(std::max<size_t>(rank, 1), n);
}

}  // namespace

double Percentile(std::vector<double> samples, double percentile) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  return samples[RankOf(samples.size(), percentile) - 1];
}

double Median(const std::vector<double>& samples) { return Percentile(samples, 50); }

double GeoMean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0;
  }
  double log_sum = 0;
  for (double v : samples) {
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

Tail TailAt(const std::vector<double>& samples, double percentile) {
  Tail tail;
  tail.n = samples.size();
  if (samples.empty()) {
    return tail;
  }
  tail.percentile = percentile;
  tail.value = Percentile(samples, percentile);
  tail.beyond = samples.size() - RankOf(samples.size(), percentile);
  return tail;
}

Tail TailRule(const std::vector<double>& samples, size_t min_beyond) {
  Tail best;
  best.n = samples.size();
  for (double p : kTailLadder) {
    Tail candidate = TailAt(samples, p);
    if (!samples.empty() && candidate.beyond >= min_beyond) {
      best = candidate;
    }
  }
  return best;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) {
    return "0";
  }
  return std::string(buf, end);
}

int SpanLog::Begin(const std::string& name, uint64_t group, int parent) {
  return Add(name, group, parent, NowNs(), 0);
}

void SpanLog::End(int index) { spans_[static_cast<size_t>(index)].end_ns = NowNs(); }

int SpanLog::Add(const std::string& name, uint64_t group, int parent, uint64_t start_ns,
                 uint64_t end_ns) {
  spans_.push_back(Span{name, group, parent, start_ns, end_ns});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::Append(const SpanLog& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) {
      span.parent += offset;
    }
    spans_.push_back(std::move(span));
  }
}

std::map<std::string, double> SpanLog::SelfSeconds() const {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].push_back({span.start_ns, span.end_ns});
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    uint64_t covered = 0;
    uint64_t reach = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    const uint64_t total = span.end_ns > span.start_ns ? span.end_ns - span.start_ns : 0;
    self[span.name] += static_cast<double>(total - std::min(total, covered)) * 1e-9;
  }
  return self;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"group\":%llu,\"parent\":%d,"
                 "\"start_ns\":%llu,\"end_ns\":%llu}%s\n",
                 i, s.name.c_str(), static_cast<unsigned long long>(s.group), s.parent,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
