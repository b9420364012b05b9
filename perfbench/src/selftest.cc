// Self-tests of the benchmark's own logic: the percentile rule, the seeded
// generators and the span arithmetic. Run with `python3 perfbench/run.py
// --selftest`; exits non-zero on the first failed expectation.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "plans.h"
#include "util.h"

using namespace perfbench;

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

std::vector<double> Ramp(size_t n) {
  std::vector<double> samples;
  for (size_t i = 1; i <= n; ++i) {
    samples.push_back(static_cast<double>(i));
  }
  return samples;
}

void TestPercentileRule() {
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Percentile(Ramp(100), 90) == 90);
  EXPECT(Percentile({}, 50) == 0);

  // 102 samples: p90 leaves exactly 10 beyond it, p95 only 5.
  Tail t = TailRule(Ramp(102));
  EXPECT(t.percentile == 90);
  EXPECT(t.beyond == 10);
  EXPECT(t.n == 102);
  EXPECT(t.value == 92);

  t = TailRule(Ramp(1000));
  EXPECT(t.percentile == 99);
  EXPECT(t.beyond == 10);
  EXPECT(t.n == 1000);

  t = TailRule(Ramp(20));
  EXPECT(t.percentile == 50);
  EXPECT(t.beyond == 10);

  // Fewer than 20 samples: no percentile has ten beyond it.
  t = TailRule(Ramp(19));
  EXPECT(t.percentile == 0);
  EXPECT(t.n == 19);

  t = TailAt(Ramp(50), 75);
  EXPECT(t.value == 38);
  EXPECT(t.beyond == 12);
  EXPECT(t.n == 50);
}

std::vector<std::string> Figure4Labels(uint64_t seed) {
  std::vector<std::string> labels;
  for (const Figure4Experiment& e : Figure4Plan(seed)) {
    labels.push_back(e.Label());
  }
  return labels;
}

std::vector<std::string> ParallelLabels(uint64_t seed) {
  std::vector<std::string> labels;
  for (const ParallelExperiment& e : PathsParallelPlan(seed)) {
    labels.push_back(e.Label());
  }
  return labels;
}

std::vector<std::string> Sorted(std::vector<std::string> labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

void TestPlans() {
  const auto a = Figure4Labels(1);
  EXPECT(a.size() == 2 * overify::CoreutilsSuite().size());
  EXPECT(a == Figure4Labels(1));
  EXPECT(a != Figure4Labels(2));
  EXPECT(Sorted(a) == Sorted(Figure4Labels(2)));
  EXPECT(std::set<std::string>(a.begin(), a.end()).size() == a.size());

  const auto p = ParallelLabels(1);
  EXPECT(p.size() == 5);
  EXPECT(p == ParallelLabels(1));
  EXPECT(p != ParallelLabels(2));
  EXPECT(Sorted(p) == Sorted(ParallelLabels(2)));

  EXPECT(DaemonKeys().size() == 102);
}

void TestDaemonCycles() {
  const size_t keys = DaemonKeys().size();
  const auto a = DaemonCycles(1, keys, 4);
  const auto b = DaemonCycles(1, keys, 4);
  const auto c = DaemonCycles(2, keys, 4);
  auto same = [](const std::vector<DaemonCycle>& x, const std::vector<DaemonCycle>& y) {
    return x.size() == y.size() &&
           std::equal(x.begin(), x.end(), y.begin(), [](const DaemonCycle& l, const DaemonCycle& r) {
             return l.miss_order == r.miss_order && l.hit_order == r.hit_order &&
                    l.rerun_order == r.rerun_order;
           });
  };
  EXPECT(a.size() == 4);
  EXPECT(same(a, b));
  EXPECT(!same(a, c));
  EXPECT(a[0].miss_order != c[0].miss_order);

  // Every pass of every cycle visits each key exactly once, whatever the seed.
  std::vector<size_t> all_keys(keys);
  for (size_t i = 0; i < keys; ++i) {
    all_keys[i] = i;
  }
  auto sorted = [](std::vector<size_t> order) {
    std::sort(order.begin(), order.end());
    return order;
  };
  for (const auto* cycles : {&a, &c}) {
    for (const DaemonCycle& cycle : *cycles) {
      EXPECT(sorted(cycle.miss_order) == all_keys);
      EXPECT(sorted(cycle.hit_order) == all_keys);
      EXPECT(sorted(cycle.rerun_order) == all_keys);
    }
  }
}

void TestSpans() {
  SpanLog log;
  const int root = log.Add("request", 1, -1, 0, 100);
  log.Add("call", 1, root, 10, 30);
  log.Add("call", 1, root, 20, 50);
  SpanLog other;
  const int save = other.Add("save", 2, -1, 200, 260);
  other.Add("call", 2, save, 210, 250);
  log.Append(other);
  EXPECT(log.spans()[4].parent == 3);
  const auto self = log.SelfSeconds();
  EXPECT(std::abs(self.at("request") - 60e-9) < 1e-15);
  EXPECT(std::abs(self.at("save") - 20e-9) < 1e-15);
  EXPECT(std::abs(self.at("call") - 90e-9) < 1e-15);
}

void TestFormat() {
  EXPECT(FormatNumber(1.2034) == "1.2034");
  EXPECT(FormatNumber(114) == "114");
  EXPECT(std::strtod(FormatNumber(0.1 + 0.2).c_str(), nullptr) == 0.1 + 0.2);
}

}  // namespace

int main() {
  TestPercentileRule();
  TestPlans();
  TestDaemonCycles();
  TestSpans();
  TestFormat();
  if (failures == 0) {
    std::printf("selftest: all expectations hold\n");
  }
  return failures == 0 ? 0 : 1;
}
