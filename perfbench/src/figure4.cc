// figure4: the paper's Figure 4 plan, every experiment compiled and verified
// at -O0, -O3 and -OVERIFY with one worker and a wall budget.
#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "compile_path.h"
#include "plans.h"
#include "process.h"
#include "src/exec/interpreter.h"
#include "src/support/string_utils.h"
#include "src/support/table.h"

namespace perfbench {

using namespace overify;

namespace {

// The per-experiment wall budget. It sits in the widest gap between the
// experiments: on the baseline host the slowest experiment it decides needs
// about 1.2 s (factor/3 at -O3, seq/5 at -O3) and the fastest one it leaves
// undecided about 3.1 s (seq/5 at -OVERIFY). The same host runs any one of
// them up to 1.7 times slower from minute to minute, so the budget is the
// geometric middle of the gap rather than a fixed margin above the first.
constexpr double kBudgetSeconds = 1.9;
// A decided experiment whose verification takes longer than the budget
// divided by (1 + margin) is reported, because it may flip on a slower run.
constexpr double kMarginFrac = 0.2;
constexpr uint64_t kMaxPaths = 60000;
// Passes after the first re-time only the experiment-levels the first pass
// decided (an undecided one takes the budget by construction). An untraced
// run makes at least this many, and more while `--seconds` allows, so that
// each decided experiment-level's time is a median of at least three
// samples taken far apart.
constexpr int kMinRetimePasses = 2;
// The tail reported as tail_ms, over the decided experiment-levels. Above
// p85 their times are sparse and jump across gaps from run to run; p80 has
// about 64 samples beyond it.
constexpr double kTailPercentile = 80;
// The paper's headline reductions of total time by -OVERIFY.
constexpr double kPaperVsO3 = 58;
constexpr double kPaperVsO0 = 63;

// Replays each bug's example input through the concrete interpreter; true
// when every one traps. Adds the interpreter time to `check_s`.
bool BugsReplay(const SymexResult& result, Module& module, double& check_s) {
  Function* entry = module.GetFunction("umain");
  bool all_trap = entry != nullptr;
  for (const BugReport& bug : result.bugs) {
    if (entry == nullptr) {
      break;
    }
    const double t0 = NowSeconds();
    Interpreter interpreter(module);
    const InterpResult replay = interpreter.Run(entry, bug.example_input);
    check_s += NowSeconds() - t0;
    all_trap = all_trap && !replay.ok;
  }
  return all_trap;
}

// "O0", "O3", "OVERIFY": the level as metric names spell it.
const char* LevelName(int l) { return OptLevelName(kFigure4Levels[l]) + 1; }

struct Cell {
  std::vector<double> seconds;  // compile + verify, one per pass that ran it
  double verify_s = 0;          // of the first pass
  bool decided = false;         // exhausted with no unknown path in the first pass
  bool capped_on_retime = false;
  uint64_t candidates = 0;      // of the first pass
};

struct Row {
  Figure4Experiment experiment;
  Cell cells[3];
};

class Figure4 : public BenchWorkload {
 public:
  bool Setup(const RunOptions& options) override {
    options_ = options;
    plan_ = Figure4Plan(options.seed);
    return !plan_.empty();
  }

  double Measure(double seconds, SpanLog* spans, Report& report) override {
    rows_.clear();
    for (const Figure4Experiment& experiment : plan_) {
      rows_.push_back(Row{experiment, {}});
    }
    // One whole pass, since a Figure 4 total needs every experiment; then
    // re-timing passes, so each decided experiment-level's time is a median.
    // Both halves of a traced run make the first pass only.
    RunPass(/*retime=*/false, spans, report);
    int passes = 1;
    const double start = NowSeconds();
    double last_pass = 0;
    while (!options_.trace && (passes <= kMinRetimePasses ||
                               NowSeconds() - start + last_pass <= seconds)) {
      const double t0 = NowSeconds();
      RunPass(/*retime=*/true, nullptr, report);
      last_pass = NowSeconds() - t0;
      ++passes;
    }
    CheckSampleInputs(spans, report);
    return Summarize(report, passes);
  }

 private:
  void RunPass(bool retime, SpanLog* spans, Report& report) {
    for (Row& row : rows_) {
      const Workload& workload = *row.experiment.workload;
      for (int l = 0; l < 3; ++l) {
        Cell& cell = row.cells[l];
        if (retime && !cell.decided) {
          continue;
        }
        Between(options_);
        const uint64_t group = next_group_++;
        ScopedSpan experiment_span(spans, "experiment", group, -1);
        const double t0 = NowSeconds();
        CompileResult compiled;
        if (spans != nullptr) {
          LayeredCompile layered =
              CompileLayered(workload, kFigure4Levels[l], spans, group, experiment_span.index());
          report.layers.AddCompile(layered);
          compiled = std::move(layered.result);
        } else {
          Compiler compiler;
          compiled = compiler.Compile(workload.source, kFigure4Levels[l], workload.name);
        }
        const double t1 = NowSeconds();

        SymexLimits limits;
        limits.max_paths = kMaxPaths;
        limits.max_seconds = kBudgetSeconds;
        SymexOptions symex;
        symex.jobs = 1;
        symex.strategy = SearchStrategy::kDfs;
        if (spans != nullptr) {
          symex.trace_path = options_.workdir + "/engine-trace.json";
        }
        SymexResult result;
        {
          ScopedSpan analyze_span(spans, "analyze", group, experiment_span.index());
          result = Analyze(compiled, "umain", row.experiment.bytes, limits, symex);
        }
        const double t2 = NowSeconds();
        if (spans != nullptr) {
          RemoveTree(symex.trace_path);
          report.layers.AddRun(result, t2 - t1);
        }

        cell.seconds.push_back(t2 - t0);
        const bool decided = result.ok && result.exhausted && result.paths_unknown == 0;
        if (retime) {
          cell.capped_on_retime = cell.capped_on_retime || !decided;
        } else {
          cell.verify_s = t2 - t1;
          cell.decided = decided;
          cell.candidates = result.metrics.Get(Counter::kSolverCoreCandidates);
        }

        // The suite's known answer at these widths is "no bug"; a reported
        // bug must at least replay.
        const std::string what =
            row.experiment.Label() + " at -" + LevelName(l) + ": ";
        bool replayed = true;
        if (result.ok && !result.bugs.empty()) {
          ScopedSpan check_span(spans, "check", group, experiment_span.index());
          replayed = BugsReplay(result, *compiled.module, report.layers.check_s);
        }
        if (!compiled.ok || !result.ok) {
          report.Check(false, what + "compile or analyze failed " + result.error);
        } else if (result.exhausted && !result.bugs.empty()) {
          report.Check(false, what + "reported a bug on an exhausted run");
        } else {
          report.Check(replayed, what + "a reported bug does not replay");
        }
      }
    }
  }

  // The concrete result of each workload's sample input must agree across
  // the three levels.
  void CheckSampleInputs(SpanLog* spans, Report& report) {
    std::vector<const Workload*> seen;
    for (const Figure4Experiment& experiment : plan_) {
      if (std::find(seen.begin(), seen.end(), experiment.workload) != seen.end()) {
        continue;
      }
      seen.push_back(experiment.workload);
      const Workload& workload = *experiment.workload;
      const uint64_t group = next_group_++;
      ScopedSpan check_span(spans, "check", group, -1);
      InterpResult reference;
      bool agree = true;
      for (int l = 0; l < 3; ++l) {
        Compiler compiler;
        CompileResult compiled =
            compiler.Compile(workload.source, kFigure4Levels[l], workload.name);
        if (!compiled.ok) {
          agree = false;
          break;
        }
        if (spans != nullptr) {
          // The traced pass timed the layered compile; it must be this one.
          LayeredCompile layered = CompileLayered(workload, kFigure4Levels[l], nullptr, 0, -1);
          const std::string diff = CompareWithCompiler(layered, workload, kFigure4Levels[l]);
          report.Check(diff.empty(), workload.name + " at -" + LevelName(l) +
                                         ": layered compile differs: " + diff);
        }
        const double t0 = NowSeconds();
        Interpreter interpreter(*compiled.module);
        InterpResult run = interpreter.Run("umain", workload.sample_input);
        report.layers.check_s += NowSeconds() - t0;
        if (l == 0) {
          reference = run;
        } else if (run.ok != reference.ok || run.return_value != reference.return_value ||
                   run.output != reference.output) {
          agree = false;
        }
      }
      report.Check(agree, workload.name + ": sample input result differs across levels");
    }
  }

  double Summarize(Report& report, int passes) {
    double total[3] = {0, 0, 0};
    double decided[3] = {0, 0, 0};
    double decided_sum = 0;
    std::vector<double> decided_ms;
    std::vector<double> o3_over_overify;
    TextTable table({"experiment", "t(-O0) ms", "t(-O3) ms", "t(-OVERIFY) ms",
                     "decided O0/O3/OV", "core candidates O0/O3/OV"});
    std::vector<const Row*> sorted;
    for (const Row& row : rows_) {
      sorted.push_back(&row);
    }
    std::sort(sorted.begin(), sorted.end(), [](const Row* a, const Row* b) {
      return a->experiment.Label() < b->experiment.Label();
    });
    std::vector<std::string> margin_warnings;
    for (const Row* row : sorted) {
      double t[3];
      std::string flags;
      std::string candidates;
      for (int l = 0; l < 3; ++l) {
        const Cell& cell = row->cells[l];
        t[l] = Median(cell.seconds);
        total[l] += t[l];
        if (cell.decided) {
          decided[l] += 1;
          decided_sum += t[l];
          decided_ms.push_back(t[l] * 1e3);
        }
        flags += std::string(l == 0 ? "" : "/") + (cell.decided ? "Y" : "n");
        candidates += (l == 0 ? "" : "/") + std::to_string(cell.candidates);
        if (cell.decided && cell.verify_s > kBudgetSeconds / (1 + kMarginFrac)) {
          margin_warnings.push_back(row->experiment.Label() + " at -" + LevelName(l) +
                                    " decided in " + FormatNumber(cell.verify_s) + " s");
        }
        if (cell.capped_on_retime) {
          margin_warnings.push_back(row->experiment.Label() + " at -" + LevelName(l) +
                                    " decided in the first pass, capped on re-timing");
        }
      }
      o3_over_overify.push_back(t[1] / t[2]);
      table.AddRow({row->experiment.Label(), FormatDouble(t[0] * 1e3, 1),
                    FormatDouble(t[1] * 1e3, 1), FormatDouble(t[2] * 1e3, 1), flags,
                    candidates});
    }
    std::printf("figure4: %zu experiments x 3 levels, 1 pass and %d re-timing pass(es) of "
                "the decided ones (times are per-cell medians), budget %.2f s, "
                "max_paths %llu\n%s\n",
                rows_.size(), passes - 1, kBudgetSeconds,
                static_cast<unsigned long long>(kMaxPaths), table.ToString().c_str());
    for (const std::string& warning : margin_warnings) {
      std::printf("WARNING budget margin: %s (margin %.0f%% of the %.2f s budget)\n",
                  warning.c_str(), kMarginFrac * 100, kBudgetSeconds);
    }
    std::printf("headline: -OVERIFY cuts total compile+verify time by %.1f%% vs -O3 and "
                "%.1f%% vs -O0 (paper: %.0f%% and %.0f%%)\n",
                (1 - total[2] / total[1]) * 100, (1 - total[2] / total[0]) * 100, kPaperVsO3,
                kPaperVsO0);

    const size_t n = rows_.size();
    for (int l = 0; l < 3; ++l) {
      report.named.push_back(Metric{std::string("total_s.") + LevelName(l), total[l], "s", n});
    }
    for (int l = 0; l < 3; ++l) {
      report.named.push_back(
          Metric{std::string("decided.") + LevelName(l), decided[l], "count", n});
    }
    const double speedup = GeoMean(o3_over_overify);
    report.named.push_back(Metric{"speedup_geomean.O3_over_OVERIFY", speedup, "ratio", n});

    // The time metrics cover the decided experiment-levels: a capped one
    // takes the budget whatever the program does.
    const size_t cells = 3 * n;
    const size_t decided_cells = decided_ms.size();
    report.end_to_end.push_back(Metric{
        "ops_per_s", decided_sum > 0 ? static_cast<double>(decided_cells) / decided_sum : 0,
        "1/s", decided_cells});
    report.end_to_end.push_back(Metric{"p50_ms", Median(decided_ms), "ms", decided_cells});
    report.end_to_end.push_back(
        Metric{"tail_ms", Percentile(decided_ms, kTailPercentile), "ms", decided_cells});
    report.end_to_end.push_back(Metric{
        "decided_frac", (decided[0] + decided[1] + decided[2]) / cells, "ratio", cells});
    return (total[0] + total[1] + total[2]) / static_cast<double>(cells);
  }

  RunOptions options_;
  std::vector<Figure4Experiment> plan_;
  std::vector<Row> rows_;
  uint64_t next_group_ = 1;
};

}  // namespace

std::unique_ptr<BenchWorkload> MakeFigure4() { return std::make_unique<Figure4>(); }

}  // namespace perfbench
