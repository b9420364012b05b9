// The compile split into its layers: the frontend (CompileMiniC) and the
// pass pipeline (BuildPipeline + PassManager::Run), called the way
// Compiler::Compile calls them, so the traced run can time each pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/driver/compiler.h"
#include "src/workloads/workloads.h"
#include "util.h"

namespace perfbench {

struct LayeredCompile {
  overify::CompileResult result;  // usable with overify::Analyze
  double frontend_s = 0;
  double passes_s = 0;
  size_t frontend_instructions = 0;  // module size before the passes
  std::vector<overify::PassManager::Timing> timings;
};

// Compiles `source` at `level` through the frontend and the pass manager
// directly. With a span log it records compile > {frontend, passes > pass.*}
// under `parent`; pass spans are laid end to end from the pass manager's
// own timings.
LayeredCompile CompileLayered(const overify::Workload& workload, overify::OptLevel level,
                              SpanLog* spans, uint64_t group, int parent);

// Checks that the layered compile produced the module Compiler::Compile
// produces: same instruction count and same content hash. Empty when equal,
// otherwise what differs.
std::string CompareWithCompiler(LayeredCompile& layered, const overify::Workload& workload,
                                overify::OptLevel level);

}  // namespace perfbench
