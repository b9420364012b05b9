// Per-layer accounting of a traced run and the run report every workload
// fills.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "compile_path.h"
#include "src/symex/executor.h"
#include "util.h"

namespace perfbench {

// Every per-layer metric with its unit, in BENCHMARK.json's order. A traced
// run reports all of them; a layer the workload bypasses reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames();

// What a traced run adds up, layer by layer.
struct LayerTotals {
  // Engine, solver and scheduler: the merged registry of the traced Analyze
  // calls, and their summed wall time and worker count.
  overify::MetricsShard engine;
  double analyze_wall_s = 0;
  unsigned workers = 0;

  // Frontend and passes.
  double frontend_s = 0;
  double passes_s = 0;
  uint64_t frontend_instructions = 0;
  uint64_t ir_instructions = 0;
  std::map<std::string, double> pass_s;
  std::map<std::string, int64_t> pass_stats;

  // Persistent cache, from the daemon's replies.
  uint64_t persist_seeded = 0;
  uint64_t persist_hits = 0;
  uint64_t persist_validations = 0;
  uint64_t persist_rejects = 0;
  uint64_t rerun_core_queries = 0;  // core queries of reruns (the rate's other part)
  uint64_t rerun_persist_hits = 0;
  std::vector<double> save_ms;
  std::vector<double> rerun_ms;
  uint64_t store_bytes = 0;

  // Daemon, from its Stats reply and the client side.
  uint64_t daemon_requests = 0;
  uint64_t daemon_run_hits = 0;
  uint64_t daemon_run_misses = 0;
  std::vector<double> connect_ms;
  std::vector<double> hit_compile_share;

  // Concrete interpreter time spent in output checks.
  double check_s = 0;

  // Traced result over untraced result of the workload's time per
  // operation, minus one.
  double trace_overhead_frac = 0;
  std::map<std::string, double> self_s;

  void AddCompile(const LayeredCompile& compile);
  void AddRun(const overify::SymexResult& result, double wall_s);
};

std::vector<Metric> LayerMetrics(const LayerTotals& totals);

// The outcome of one benchmark run.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log
  std::vector<Metric> end_to_end;     // filled by the workload, then by main
  std::vector<Metric> named;          // the workload's own headline metrics
  std::vector<Metric> measured;       // the time metrics of end_to_end before calibration
  LayerTotals layers;

  // Counts one checked operation; a false `ok` counts it as failed.
  void Check(bool ok, const std::string& what);
};

}  // namespace perfbench
