#include "layers.h"

namespace perfbench {

using overify::Counter;
using overify::Hist;

namespace {

// The passes the pipelines can schedule, by PassManager name.
const char* const kPassNames[] = {"annotate",  "checks",     "cse",         "dce",
                                  "globaldce", "ifconvert",  "inline",      "instcombine",
                                  "jumpthread", "licm",      "mem2reg",     "simplifycfg",
                                  "sroa",      "unroll",     "unswitch"};

// Pass statistics reported as applied counts.
const char* const kPassStats[] = {"ifconvert.branches_converted", "unroll.loops_unrolled",
                                  "unswitch.loops_unswitched",    "inline.functions_inlined",
                                  "checks.inserted",              "annotate.values_annotated"};

// Benchmark span names whose self time is reported.
const char* const kSpanNames[] = {"experiment", "compile", "frontend", "passes",
                                  "pass",       "analyze", "check",    "request",
                                  "connect",    "call",    "save"};

double Seconds(const overify::MetricsShard& shard, Hist hist) {
  return static_cast<double>(shard.hist(hist).sum_ns()) * 1e-9;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = [] {
    std::vector<std::pair<std::string, std::string>> names = {
        {"frontend.s", "s"}, {"frontend.ir_instructions", "count"}, {"passes.s", "s"}};
    for (const char* pass : kPassNames) {
      names.push_back({std::string("passes.") + pass + ".s", "s"});
    }
    names.push_back({"ir.instructions", "count"});
    for (const char* stat : kPassStats) {
      names.push_back({stat, "count"});
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        // symex engine
        {"engine.path_run_s", "s"},
        {"engine.interp_s", "s"},
        {"engine.instructions", "count"},
        {"engine.forks", "count"},
        {"engine.annotation_hits", "count"},
        {"paths.completed", "count"},
        {"paths.unknown", "count"},
        // solver core
        {"solver.core_queries", "count"},
        {"solver.core_search_s", "s"},
        {"solver.core_candidates", "count"},
        {"solver.core_conflicts", "count"},
        {"solver.core_learned", "count"},
        {"solver.core_learned_hits", "count"},
        {"solver.core_learned_hit_ratio", "ratio"},
        {"solver.core_candidates_per_query", "ratio"},
        {"solver.core_conflict_depth_p50", "count"},
        // preprocessing and in-memory cache tiers
        {"solver.queries", "count"},
        {"solver.query_s", "s"},
        {"solver.cache_hits", "count"},
        {"solver.cache_hit_rate", "ratio"},
        {"preprocess.presolve_shortcuts", "count"},
        {"preprocess.bindings", "count"},
        {"prefix.subset_hits", "count"},
        {"prefix.superset_hits", "count"},
        {"prefix.model_hits", "count"},
        {"solver.independence_drops", "count"},
        {"solver.eval_memo_hits", "count"},
        {"preprocess.s", "s"},
        {"solver.cache_lookup_s", "s"},
        {"engine.fork_decide_s", "s"},
        // scheduler
        {"sched.workers", "count"},
        {"sched.busy_s", "s"},
        {"sched.utilization", "ratio"},
        {"steal.states", "count"},
        {"steal.batches", "count"},
        {"steal.batch_s", "s"},
        // persistent cache
        {"persist.seeded", "count"},
        {"persist.hits", "count"},
        {"persist.validations", "count"},
        {"persist.rejects", "count"},
        {"persist.rate", "ratio"},
        {"cache.save_ms", "ms"},
        {"cache.store_bytes", "bytes"},
        {"cache.rerun_p50_ms", "ms"},
        {"cache.rerun_p90_ms", "ms"},
        // daemon
        {"daemon.requests", "count"},
        {"daemon.run_hits", "count"},
        {"daemon.run_misses", "count"},
        {"daemon.run_hit_rate", "ratio"},
        {"daemon.connect_ms", "ms"},
        {"daemon.hit_compile_share", "ratio"},
        // concrete interpreter in the output checks
        {"exec.check_s", "s"},
    };
    names.insert(names.end(), rest.begin(), rest.end());
    for (const char* span : kSpanNames) {
      names.push_back({std::string("self_s.") + span, "s"});
    }
    names.push_back({"trace.overhead_frac", "ratio"});
    return names;
  }();
  return kNames;
}

void LayerTotals::AddCompile(const LayeredCompile& compile) {
  frontend_s += compile.frontend_s;
  passes_s += compile.passes_s;
  frontend_instructions += compile.frontend_instructions;
  ir_instructions += compile.result.instruction_count;
  for (const auto& timing : compile.timings) {
    pass_s[timing.pass_name] += timing.seconds;
  }
  for (const auto& [name, delta] : compile.result.pass_stats) {
    pass_stats[name] += delta;
  }
}

void LayerTotals::AddRun(const overify::SymexResult& result, double wall_s) {
  engine.Merge(result.metrics);
  analyze_wall_s += wall_s * result.workers;
  workers = std::max(workers, result.workers);
}

std::vector<Metric> LayerMetrics(const LayerTotals& t) {
  const overify::MetricsShard& e = t.engine;
  auto count = [&e](Counter c) { return static_cast<double>(e.Get(c)); };
  std::map<std::string, double> values;
  values["frontend.s"] = t.frontend_s;
  values["frontend.ir_instructions"] = static_cast<double>(t.frontend_instructions);
  values["passes.s"] = t.passes_s;
  for (const auto& [pass, seconds] : t.pass_s) {
    values["passes." + pass + ".s"] = seconds;
  }
  values["ir.instructions"] = static_cast<double>(t.ir_instructions);
  for (const char* stat : kPassStats) {
    auto it = t.pass_stats.find(stat);
    values[stat] = it == t.pass_stats.end() ? 0 : static_cast<double>(it->second);
  }

  const double path_run_s = Seconds(e, Hist::kPathRunNs);
  const double query_s = Seconds(e, Hist::kSolverQueryNs);
  values["engine.path_run_s"] = path_run_s;
  values["engine.interp_s"] = path_run_s - query_s;
  values["engine.instructions"] = count(Counter::kInstructions);
  values["engine.forks"] = count(Counter::kForks);
  values["engine.annotation_hits"] = count(Counter::kAnnotationHits);
  values["paths.completed"] = count(Counter::kPathsCompleted);
  values["paths.unknown"] = count(Counter::kPathsUnknown);

  values["solver.core_queries"] = count(Counter::kSolverCoreQueries);
  values["solver.core_search_s"] = Seconds(e, Hist::kCoreSearchNs);
  values["solver.core_candidates"] = count(Counter::kSolverCoreCandidates);
  values["solver.core_conflicts"] = count(Counter::kSolverCoreConflicts);
  values["solver.core_learned"] = count(Counter::kSolverCoreLearned);
  values["solver.core_learned_hits"] = count(Counter::kSolverCoreLearnedHits);
  values["solver.core_learned_hit_ratio"] =
      Ratio(count(Counter::kSolverCoreLearnedHits), count(Counter::kSolverCoreLearned));
  values["solver.core_candidates_per_query"] =
      Ratio(count(Counter::kSolverCoreCandidates), count(Counter::kSolverCoreQueries));
  values["solver.core_conflict_depth_p50"] =
      static_cast<double>(e.hist(Hist::kCoreConflictDepth).P50());

  values["solver.queries"] = count(Counter::kSolverQueries);
  values["solver.query_s"] = query_s;
  values["solver.cache_hits"] = count(Counter::kSolverCacheHits);
  values["solver.cache_hit_rate"] =
      Ratio(count(Counter::kSolverCacheHits), count(Counter::kSolverQueries));
  values["preprocess.presolve_shortcuts"] = count(Counter::kPresolveShortcuts);
  values["preprocess.bindings"] = count(Counter::kPreprocessBindings);
  values["prefix.subset_hits"] = count(Counter::kPrefixSubsetHits);
  values["prefix.superset_hits"] = count(Counter::kPrefixSupersetHits);
  values["prefix.model_hits"] = count(Counter::kPrefixModelHits);
  values["solver.independence_drops"] = count(Counter::kSolverIndependenceDrops);
  values["solver.eval_memo_hits"] = count(Counter::kSolverEvalMemoHits);
  values["preprocess.s"] = Seconds(e, Hist::kPreprocessNs);
  values["solver.cache_lookup_s"] = Seconds(e, Hist::kCacheLookupNs);
  values["engine.fork_decide_s"] = Seconds(e, Hist::kForkDecideNs);

  values["sched.workers"] = t.workers;
  values["sched.busy_s"] = path_run_s;
  values["sched.utilization"] = Ratio(path_run_s, t.analyze_wall_s);
  values["steal.states"] = count(Counter::kSteals);
  values["steal.batches"] = count(Counter::kStealBatches);
  values["steal.batch_s"] = Seconds(e, Hist::kStealBatchNs);

  values["persist.seeded"] = static_cast<double>(t.persist_seeded);
  values["persist.hits"] = static_cast<double>(t.persist_hits);
  values["persist.validations"] = static_cast<double>(t.persist_validations);
  values["persist.rejects"] = static_cast<double>(t.persist_rejects);
  values["persist.rate"] =
      Ratio(static_cast<double>(t.rerun_persist_hits),
            static_cast<double>(t.rerun_persist_hits + t.rerun_core_queries));
  values["cache.save_ms"] = Median(t.save_ms);
  values["cache.store_bytes"] = static_cast<double>(t.store_bytes);
  values["cache.rerun_p50_ms"] = Percentile(t.rerun_ms, 50);
  values["cache.rerun_p90_ms"] = Percentile(t.rerun_ms, 90);

  values["daemon.requests"] = static_cast<double>(t.daemon_requests);
  values["daemon.run_hits"] = static_cast<double>(t.daemon_run_hits);
  values["daemon.run_misses"] = static_cast<double>(t.daemon_run_misses);
  values["daemon.run_hit_rate"] =
      Ratio(static_cast<double>(t.daemon_run_hits),
            static_cast<double>(t.daemon_run_hits + t.daemon_run_misses));
  values["daemon.connect_ms"] = Median(t.connect_ms);
  values["daemon.hit_compile_share"] = Median(t.hit_compile_share);

  values["exec.check_s"] = t.check_s;
  for (const auto& [span, seconds] : t.self_s) {
    values["self_s." + span] = seconds;
  }
  values["trace.overhead_frac"] = t.trace_overhead_frac;

  std::vector<Metric> out;
  for (const auto& [name, unit] : PerLayerMetricNames()) {
    auto it = values.find(name);
    out.push_back(Metric{name, it == values.end() ? 0.0 : it->second, unit, 1});
  }
  return out;
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 20) {
      failures.push_back(what);
    }
  }
}

}  // namespace perfbench
