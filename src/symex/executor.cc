#include "src/symex/executor.h"

#include "src/sched/worker_pool.h"
#include "src/support/assert.h"

namespace overify {

void SymexResult::FinalizeFromMetrics() {
  const MetricsShard& m = metrics;
  paths_completed = m.Get(Counter::kPathsCompleted);
  paths_infeasible = m.Get(Counter::kPathsInfeasible);
  paths_bug = m.Get(Counter::kPathsBug);
  paths_limit = m.Get(Counter::kPathsLimit);
  paths_unexplored = m.Get(Counter::kPathsUnexplored);
  paths_unknown = m.Get(Counter::kPathsUnknown);
  paths_unknown_budget = m.Get(Counter::kPathsUnknownBudget);
  paths_unknown_deadline = m.Get(Counter::kPathsUnknownDeadline);
  paths_unknown_injected = m.Get(Counter::kPathsUnknownInjected);
  instructions = m.Get(Counter::kInstructions);
  forks = m.Get(Counter::kForks);

  // The accounting invariants, asserted in this one place for every run
  // (docs/robustness.md): each unknown path carries exactly one cause, and
  // paths_terminated is exactly the sum of its per-cause components.
  OVERIFY_ASSERT(paths_unknown == paths_unknown_budget + paths_unknown_deadline +
                                      paths_unknown_injected,
                 "every unknown path must be attributed to exactly one cause");
  paths_terminated =
      paths_infeasible + paths_bug + paths_limit + paths_unexplored + paths_unknown;
  OVERIFY_ASSERT(paths_terminated >= paths_unknown,
                 "terminated-cause accounting must cover the unknown paths");
}

const char* StopCauseName(StopCause cause) {
  switch (cause) {
    case StopCause::kNone:
      return "none";
    case StopCause::kPaths:
      return "max_paths";
    case StopCause::kInstructions:
      return "max_instructions";
    case StopCause::kForks:
      return "max_forks";
    case StopCause::kLiveStates:
      return "max_live_states";
    case StopCause::kDeadline:
      return "max_seconds";
    case StopCause::kWorkerDeath:
      return "worker-death";
  }
  return "?";
}

const char* BugKindName(BugKind kind) {
  switch (kind) {
    case BugKind::kDivByZero:
      return "division by zero";
    case BugKind::kOutOfBounds:
      return "out-of-bounds memory access";
    case BugKind::kNullDeref:
      return "null pointer dereference";
    case BugKind::kCheckFailed:
      return "check failed";
    case BugKind::kOverflow:
      return "arithmetic overflow";
    case BugKind::kUnreachable:
      return "unreachable executed";
    case BugKind::kAbort:
      return "abort called";
    case BugKind::kEngineError:
      return "engine error";
  }
  return "?";
}

SymbolicExecutor::SymbolicExecutor(Module& module, SymexOptions options)
    : module_(module), options_(options) {}

SymbolicExecutor::~SymbolicExecutor() = default;

SymexResult SymbolicExecutor::Run(Function* entry, unsigned num_input_bytes,
                                  const SymexLimits& limits) {
  sched::WorkerPool pool(module_, options_);
  return pool.Run(entry, num_input_bytes, limits);
}

SymexResult SymbolicExecutor::Run(const std::string& entry_name, unsigned num_input_bytes,
                                  const SymexLimits& limits) {
  Function* entry = module_.GetFunction(entry_name);
  if (entry == nullptr || entry->IsDeclaration()) {
    SymexResult result;
    result.ok = false;
    result.error = "entry function '" + entry_name + "' is missing or has no body";
    return result;
  }
  return Run(entry, num_input_bytes, limits);
}

}  // namespace overify
