// The benchmark's seeded inputs: experiment orders and the daemon request
// stream. Each is a pure function of the seed; the program under test only
// ever sees the generated inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/passes/pipeline.h"
#include "src/workloads/workloads.h"

namespace perfbench {

// The three levels Figure 4 compares, in the order each experiment runs them.
extern const overify::OptLevel kFigure4Levels[3];

struct Figure4Experiment {
  const overify::Workload* workload = nullptr;
  unsigned bytes = 0;
  std::string Label() const;
};

// bench/bench_figure4.cc's experiment list (every workload at 3 bytes and at
// its default width + 2), in a seeded order.
std::vector<Figure4Experiment> Figure4Plan(uint64_t seed);

struct ParallelExperiment {
  const overify::Workload* workload = nullptr;
  unsigned bytes = 0;
  overify::OptLevel level = overify::OptLevel::kO0;
  std::string Label() const;
};

// The five path-explosion experiments that run to completion, in a seeded
// order.
std::vector<ParallelExperiment> PathsParallelPlan(uint64_t seed);

// One daemon request key: a suite workload at its default width and level.
struct DaemonKey {
  const overify::Workload* workload = nullptr;
  overify::OptLevel level = overify::OptLevel::kO3;
  std::string Label() const;
};

// Every suite workload at -O3 and -OVERIFY, except the six whose
// verification alone takes more than half a second.
std::vector<DaemonKey> DaemonKeys();

// One cycle of the daemon usage the repository itself exercises
// (ci/daemon_smoke.sh). On a daemon started over an empty store: a pass over
// every key, each request a miss that verifies and writes the store, then a
// second pass over every key, answered from the run cache. Then a SaveStore,
// a restart over the saved store, and a force_run pass over every key, which
// executes again with the solver seeded from the persisted entries. Each pass
// visits the keys in its own seeded order.
struct DaemonCycle {
  std::vector<size_t> miss_order;   // indices into DaemonKeys()
  std::vector<size_t> hit_order;
  std::vector<size_t> rerun_order;
};

// `count` cycles over `num_keys` keys.
std::vector<DaemonCycle> DaemonCycles(uint64_t seed, size_t num_keys, size_t count);

}  // namespace perfbench
