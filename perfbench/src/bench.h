// The three benchmark workloads behind one interface (see DESIGN.md for why
// each exists and which layers it stresses).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "layers.h"
#include "util.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string self;     // this executable, for child processes
  std::string workdir;  // private scratch directory of the run
  // Called by Measure between units of work, outside every timed section.
  // The run takes its set-up probes there, so that they sample the host
  // over the whole run. May be empty.
  std::function<void()> between;
};

inline void Between(const RunOptions& options) {
  if (options.between) {
    options.between();
  }
}

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;
  // Everything a run does before its first timed operation. A set-up probe
  // runs exactly this. Calling it again starts the workload afresh.
  virtual bool Setup(const RunOptions& options) = 0;
  // Measures for about `seconds`, checks every output into `report`, prints
  // the workload's rows, and fills report.named and report.end_to_end
  // (except setup_s, peak_rss_mb and ok_frac). With a span log the run is
  // traced: spans go to the log and layer totals to report.layers. Returns
  // the workload's seconds per operation, the base of the tracing overhead.
  virtual double Measure(double seconds, SpanLog* spans, Report& report) = 0;
  // Stops what Setup started; returns the peak resident set of child
  // processes in MB.
  virtual double Teardown() { return 0; }
};

std::unique_ptr<BenchWorkload> MakeFigure4();
std::unique_ptr<BenchWorkload> MakePathsParallel();
std::unique_ptr<BenchWorkload> MakeDaemonMix();

}  // namespace perfbench
