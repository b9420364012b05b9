#include "plans.h"

#include <algorithm>

#include "util.h"

namespace perfbench {

using overify::FindWorkload;
using overify::OptLevel;
using overify::Workload;

const OptLevel kFigure4Levels[3] = {OptLevel::kO0, OptLevel::kO3, OptLevel::kOverify};

namespace {

// Distinct streams per generator from one --seed.
constexpr uint64_t kFigure4Salt = 0xF16A4ull;
constexpr uint64_t kParallelSalt = 0x9A7A11E1ull;
constexpr uint64_t kDaemonSalt = 0xDAE307ull;

}  // namespace

std::string Figure4Experiment::Label() const {
  return workload->name + "/" + std::to_string(bytes);
}

std::vector<Figure4Experiment> Figure4Plan(uint64_t seed) {
  const auto& suite = overify::CoreutilsSuite();
  std::vector<Figure4Experiment> plan;
  for (const Workload& workload : suite) {
    plan.push_back({&workload, 3});
    plan.push_back({&workload, workload.default_sym_bytes + 2});
  }
  SplitMix rng(seed ^ kFigure4Salt);
  Shuffle(plan, rng);
  return plan;
}

std::string ParallelExperiment::Label() const {
  return workload->name + "/" + std::to_string(bytes) + "@" + overify::OptLevelName(level);
}

std::vector<ParallelExperiment> PathsParallelPlan(uint64_t seed) {
  std::vector<ParallelExperiment> plan = {
      {FindWorkload("count_mode"), 7, OptLevel::kO0},
      {FindWorkload("tolower_filter"), 8, OptLevel::kO0},
      {FindWorkload("expand_stops"), 8, OptLevel::kO0},
      {FindWorkload("caesar"), 9, OptLevel::kO3},
      {FindWorkload("wc_any"), 8, OptLevel::kO3},
  };
  SplitMix rng(seed ^ kParallelSalt);
  Shuffle(plan, rng);
  return plan;
}

std::string DaemonKey::Label() const { return workload->name + "@" + overify::OptLevelName(level); }

std::vector<DaemonKey> DaemonKeys() {
  static const char* const kSlow[] = {"expr_add", "factor",    "printf_d",
                                      "seq",      "seq_range", "word_freq"};
  std::vector<DaemonKey> keys;
  for (const Workload& workload : overify::CoreutilsSuite()) {
    if (std::find(std::begin(kSlow), std::end(kSlow), workload.name) != std::end(kSlow)) {
      continue;
    }
    keys.push_back({&workload, OptLevel::kO3});
    keys.push_back({&workload, OptLevel::kOverify});
  }
  return keys;
}

std::vector<DaemonCycle> DaemonCycles(uint64_t seed, size_t num_keys, size_t count) {
  SplitMix rng(seed ^ kDaemonSalt);
  auto shuffled = [&] {
    std::vector<size_t> order(num_keys);
    for (size_t i = 0; i < num_keys; ++i) {
      order[i] = i;
    }
    Shuffle(order, rng);
    return order;
  };
  std::vector<DaemonCycle> cycles(count);
  for (DaemonCycle& cycle : cycles) {
    cycle.miss_order = shuffled();
    cycle.hit_order = shuffled();
    cycle.rerun_order = shuffled();
  }
  return cycles;
}

}  // namespace perfbench
