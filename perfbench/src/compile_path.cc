#include "compile_path.h"

#include "src/cache/persist.h"
#include "src/frontend/codegen.h"
#include "src/support/statistics.h"
#include "src/vlibc/vlibc.h"
#include "src/workloads/workloads.h"

namespace perfbench {

using namespace overify;

LayeredCompile CompileLayered(const Workload& workload, OptLevel level, SpanLog* spans,
                              uint64_t group, int parent) {
  LayeredCompile out;
  ScopedSpan compile_span(spans, "compile", group, parent);
  const double t0 = NowSeconds();
  const PipelineOptions options = PipelineOptions::For(level);

  std::vector<MiniCSource> sources;
  sources.push_back(MiniCSource{
      options.use_verify_libc ? VerifyLibcSource() : StandardLibcSource(), true});
  sources.push_back(MiniCSource{workload.source, false});
  DiagnosticEngine diags;
  {
    ScopedSpan span(spans, "frontend", group, compile_span.index());
    out.result.module = CompileMiniC(sources, workload.name, diags);
  }
  const double t1 = NowSeconds();
  out.frontend_s = t1 - t0;
  if (out.result.module == nullptr) {
    out.result.errors = diags.ToString();
    return out;
  }
  out.frontend_instructions = out.result.module->InstructionCount();

  out.result.annotations = std::make_unique<ProgramAnnotations>();
  const auto stats_before = StatisticsRegistry::Global().Snapshot();
  {
    ScopedSpan passes_span(spans, "passes", group, compile_span.index());
    const uint64_t start_ns = NowNs();
    PassManager pm;
    BuildPipeline(pm, options, out.result.annotations.get());
    pm.Run(*out.result.module);
    out.timings = pm.timings();
    if (spans != nullptr) {
      uint64_t at = start_ns;
      for (const PassManager::Timing& timing : out.timings) {
        const uint64_t end = at + static_cast<uint64_t>(timing.seconds * 1e9);
        spans->Add("pass", group, passes_span.index(), at, end);
        at = end;
      }
    }
  }
  out.result.pass_stats =
      SnapshotDelta(stats_before, StatisticsRegistry::Global().Snapshot());
  out.passes_s = NowSeconds() - t1;
  out.result.compile_seconds = NowSeconds() - t0;
  out.result.instruction_count = out.result.module->InstructionCount();
  out.result.ok = true;
  return out;
}

std::string CompareWithCompiler(LayeredCompile& layered, const Workload& workload,
                                OptLevel level) {
  Compiler compiler;
  CompileResult reference = compiler.Compile(workload.source, level, workload.name);
  if (!reference.ok || !layered.result.ok) {
    return "compile failed";
  }
  if (reference.instruction_count != layered.result.instruction_count) {
    return "instruction count " + std::to_string(layered.result.instruction_count) +
           " != " + std::to_string(reference.instruction_count);
  }
  if (ModuleContentHash(*reference.module) != ModuleContentHash(*layered.result.module)) {
    return "module content hash differs";
  }
  return "";
}

}  // namespace perfbench
