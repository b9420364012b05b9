// paths_parallel: five path-explosion experiments verified to completion at
// four workers, checked against one worker.
#include <cstdio>

#include "bench.h"
#include "compile_path.h"
#include "plans.h"
#include "process.h"
#include "src/testing/diff_harness.h"

namespace perfbench {

using namespace overify;

namespace {

constexpr unsigned kWorkers = 4;
// One one-worker reference pass follows every eighth four-worker pass, so
// both sides of the printed speed-up see the same host conditions.
constexpr size_t kReferenceEvery = 8;
constexpr size_t kMinReferencePasses = 2;
// The tail reported as tail_ms: the 40 or so passes of a 15 s run leave
// about 10 beyond it.
constexpr double kTailPercentile = 75;

struct PassResult {
  double wall_s = 0;
  uint64_t paths = 0;
  uint64_t runs = 0;
  uint64_t exhausted = 0;
};

class PathsParallel : public BenchWorkload {
 public:
  bool Setup(const RunOptions& options) override {
    options_ = options;
    plan_ = PathsParallelPlan(options.seed);
    compiled_.clear();
    for (const ParallelExperiment& experiment : plan_) {
      Compiler compiler;
      compiled_.push_back(compiler.Compile(experiment.workload->source, experiment.level,
                                           experiment.workload->name));
      if (!compiled_.back().ok) {
        return false;
      }
    }
    return true;
  }

  double Measure(double seconds, SpanLog* spans, Report& report) override {
    signatures_.assign(plan_.size(), "");
    paths_.assign(plan_.size(), 0);
    if (spans != nullptr) {
      // The traced run compiles through the layers it reports, after
      // checking that this is the compile Compiler::Compile performs.
      for (size_t i = 0; i < plan_.size(); ++i) {
        const ParallelExperiment& experiment = plan_[i];
        LayeredCompile layered = CompileLayered(*experiment.workload, experiment.level, spans,
                                                next_group_++, -1);
        const std::string diff =
            CompareWithCompiler(layered, *experiment.workload, experiment.level);
        report.Check(diff.empty(), experiment.Label() + ": layered compile differs: " + diff);
        report.layers.AddCompile(layered);
        compiled_[i] = std::move(layered.result);
      }
    }

    // A traced run makes one pass of each kind, the four-worker one with the
    // engine's trace sink on; an untraced one fills the run.
    std::vector<double> parallel_walls;
    std::vector<double> reference_walls;
    PassResult parallel;
    const double start = NowSeconds();
    const size_t min_reference = spans != nullptr ? 1 : kMinReferencePasses;
    while (reference_walls.size() < min_reference ||
           (spans == nullptr && NowSeconds() - start < seconds)) {
      PassResult pass = RunPass(kWorkers, spans, report);
      parallel_walls.push_back(pass.wall_s);
      parallel.wall_s += pass.wall_s;
      parallel.paths += pass.paths;
      parallel.runs += pass.runs;
      parallel.exhausted += pass.exhausted;
      if (spans != nullptr || parallel_walls.size() % kReferenceEvery == 0) {
        reference_walls.push_back(RunPass(1, spans, report).wall_s);
      }
      Between(options_);
    }

    // Per pass, so one slow pass moves the throughput no more than the median.
    const double paths_per_s = static_cast<double>(parallel.paths) /
                               static_cast<double>(parallel_walls.size()) /
                               Median(parallel_walls);
    std::vector<double> parallel_ms;
    for (double wall : parallel_walls) {
      parallel_ms.push_back(wall * 1e3);
    }
    const double speedup = Median(reference_walls) / Median(parallel_walls);
    std::printf("paths_parallel: %zu passes at %u workers, %zu at 1 worker\n",
                parallel_walls.size(), kWorkers, reference_walls.size());
    for (size_t i = 0; i < plan_.size(); ++i) {
      std::printf("  %-26s %8llu paths\n", plan_[i].Label().c_str(),
                  static_cast<unsigned long long>(paths_[i]));
    }
    std::printf("  pass wall p50 %.1f ms at %u workers, %.1f ms at 1 worker (%.2fx)\n",
                Median(parallel_ms), kWorkers, Median(reference_walls) * 1e3, speedup);

    const size_t passes = parallel_walls.size();
    report.named.push_back(Metric{"paths_per_s", paths_per_s, "paths/s", passes});
    report.end_to_end.push_back(Metric{"ops_per_s", paths_per_s, "1/s", passes});
    report.end_to_end.push_back(Metric{"p50_ms", Median(parallel_ms), "ms", passes});
    report.end_to_end.push_back(
        Metric{"tail_ms", Percentile(parallel_ms, kTailPercentile), "ms", passes});
    report.end_to_end.push_back(
        Metric{"decided_frac", static_cast<double>(parallel.exhausted) / parallel.runs, "ratio",
               parallel.runs});
    return parallel.wall_s / static_cast<double>(parallel.paths);
  }

 private:
  // One pass over the plan at `jobs` workers. Every run must be exhausted
  // and match the first signature seen for its experiment, so four workers
  // are checked against each other and against one worker. Only four-worker
  // passes are traced; the one-worker pass is the reference.
  PassResult RunPass(unsigned jobs, SpanLog* spans, Report& report) {
    if (jobs != kWorkers) {
      spans = nullptr;
    }
    PassResult pass;
    for (size_t i = 0; i < plan_.size(); ++i) {
      const uint64_t group = next_group_++;
      ScopedSpan experiment_span(spans, "experiment", group, -1);
      SymexLimits limits;
      limits.max_seconds = 60;
      SymexOptions symex;
      symex.jobs = jobs;
      symex.strategy = SearchStrategy::kDfs;
      if (spans != nullptr) {
        symex.trace_path = options_.workdir + "/engine-trace.json";
      }
      const double t0 = NowSeconds();
      SymexResult result;
      {
        ScopedSpan analyze_span(spans, "analyze", group, experiment_span.index());
        result = Analyze(compiled_[i], "umain", plan_[i].bytes, limits, symex);
      }
      const double wall = NowSeconds() - t0;
      if (spans != nullptr) {
        RemoveTree(symex.trace_path);
        report.layers.AddRun(result, wall);
      }
      pass.wall_s += wall;
      pass.paths += result.paths_completed;
      pass.runs += 1;
      pass.exhausted += result.exhausted ? 1 : 0;

      ScopedSpan check_span(spans, "check", group, experiment_span.index());
      std::string signature;
      if (result.ok) {
        signature = difftest::SignatureOf(result, *compiled_[i].module, "umain",
                                          /*confirm_models=*/true)
                        .ToString();
      }
      const std::string what = plan_[i].Label() + " at " + std::to_string(jobs) + " worker(s): ";
      if (!result.ok || !result.exhausted) {
        report.Check(false, what + "not exhausted " + result.error);
        continue;
      }
      if (signatures_[i].empty()) {
        signatures_[i] = signature;
        paths_[i] = result.paths_completed;
      }
      report.Check(signature == signatures_[i] && result.paths_completed == paths_[i],
                   what + "signature differs from the first run");
    }
    return pass;
  }

  RunOptions options_;
  std::vector<ParallelExperiment> plan_;
  std::vector<CompileResult> compiled_;
  std::vector<std::string> signatures_;
  std::vector<uint64_t> paths_;
  uint64_t next_group_ = 1;
};

}  // namespace

std::unique_ptr<BenchWorkload> MakePathsParallel() { return std::make_unique<PathsParallel>(); }

}  // namespace perfbench
