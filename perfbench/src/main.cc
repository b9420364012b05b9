// ovbench: runs one workload of the verification benchmark, checks every
// output, and prints its metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   ovbench --workload figure4|paths_parallel|daemon_mix|all --seed N
//           --seconds S --trace 0|1
//
// Two modes are for the benchmark's own child processes:
//   ovbench --serve SOCKET STORE      the verification daemon of daemon_mix
//   ovbench --setup-probe --workload W --seed N --workdir DIR
//                                     one set-up, then "ready" on stdout
#include <sys/prctl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "process.h"
#include "src/daemon/server.h"

using namespace perfbench;

namespace {

// Set-up probes: one before the measurement, one whenever the measurement
// pauses at least this many seconds after the last, and more after it until
// there are kMinSetupProbes. setup_s is their median.
constexpr double kSetupProbeEvery = 0.25;
constexpr int kMinSetupProbes = 25;
// Each bounded time metric is scaled to the host speed at which the
// calibration loop takes this long: its median in a quiet phase of the
// baseline host (see DESIGN.md, "Host calibration").
constexpr double kCalibrationReferenceSeconds = 0.0125;
// The daemon's store holds a run for every daemon_mix key, so a repeat
// misses the run cache only if the daemon forgets it.
constexpr size_t kDaemonStoreRuns = 128;

const char* const kWorkloads[] = {"figure4", "paths_parallel", "daemon_mix"};

// Where runs keep their private files, under the repository root the
// benchmark runs from.
const char* const kOutDir = ".bench_build/perfbench";

std::unique_ptr<BenchWorkload> Make(const std::string& name) {
  if (name == "figure4") {
    return MakeFigure4();
  }
  if (name == "paths_parallel") {
    return MakePathsParallel();
  }
  if (name == "daemon_mix") {
    return MakeDaemonMix();
  }
  return nullptr;
}

void PrintMetric(const char* kind, const Metric& metric) {
  std::printf("%s %s = %s %s (n=%zu)\n", kind, metric.name.c_str(),
              FormatNumber(metric.value).c_str(), metric.unit.c_str(), metric.n);
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

// Time from spawning a probe to its "ready": process start to the point
// where the run would take its first timed operation. Negative on failure.
double ProbeSetup(const RunOptions& options, int index) {
  const std::string workdir = options.workdir + "/probe" + std::to_string(index);
  Child probe;
  const double t0 = NowSeconds();
  if (!probe.Spawn({options.self, "--setup-probe", "--workload", options.workload, "--seed",
                    std::to_string(options.seed), "--workdir", workdir},
                   true)) {
    return -1;
  }
  std::string line;
  const bool ready = probe.ReadLine(line) && line == "ready";
  const double t1 = NowSeconds();
  const bool exited = probe.Wait();
  RemoveTree(workdir);
  return ready && exited ? t1 - t0 : -1;
}

int SetupProbeMain(const RunOptions& options) {
  if (!MakeDirs(options.workdir)) {
    return 1;
  }
  std::unique_ptr<BenchWorkload> workload = Make(options.workload);
  if (workload == nullptr || !workload->Setup(options)) {
    return 1;
  }
  std::printf("ready\n");
  std::fflush(stdout);
  workload->Teardown();
  return 0;
}

// Scales the time metrics of report.end_to_end to the reference host speed,
// keeping the measured ones in report.measured. `speed` is the reference
// loop time over the measured one.
void Calibrate(double speed, Report& report) {
  for (Metric& metric : report.end_to_end) {
    if (metric.unit == "s" || metric.unit == "ms") {
      report.measured.push_back(metric);
      metric.value *= speed;
    } else if (metric.unit == "1/s") {
      report.measured.push_back(metric);
      metric.value /= speed;
    }
  }
}

// Runs one workload; false when it could not be set up.
bool RunWorkload(RunOptions options, Report& report) {
  std::vector<double> setups;
  std::vector<double> calibration;
  int probes = 0;
  double last_probe = 0;
  // A set-up probe, and a calibration sample at the same moment; the ones
  // taken after the measurement add set-up probes only.
  auto probe = [&](bool calibrate) {
    if (calibrate) {
      calibration.push_back(CalibrationLoopSeconds());
    }
    const double seconds = ProbeSetup(options, probes++);
    report.Check(seconds >= 0, "set-up probe failed");
    if (seconds >= 0) {
      setups.push_back(seconds);
    }
    last_probe = NowSeconds();
  };
  probe(true);
  options.between = [&] {
    if (NowSeconds() - last_probe >= kSetupProbeEvery) {
      probe(true);
    }
  };

  std::unique_ptr<BenchWorkload> workload = Make(options.workload);
  if (workload == nullptr || !workload->Setup(options)) {
    std::fprintf(stderr, "ovbench: %s: set-up failed\n", options.workload.c_str());
    return false;
  }
  if (!options.trace) {
    workload->Measure(options.seconds, nullptr, report);
  } else {
    // The same measurement untraced and traced, half the run each; their
    // difference is the tracing overhead.
    Report untraced;
    const double base = workload->Measure(options.seconds / 2, nullptr, untraced);
    report.attempted += untraced.attempted;
    report.failed += untraced.failed;
    report.failures.insert(report.failures.end(), untraced.failures.begin(),
                           untraced.failures.end());
    if (!workload->Setup(options)) {
      std::fprintf(stderr, "ovbench: %s: second set-up failed\n", options.workload.c_str());
      return false;
    }
    SpanLog spans;
    const double traced = workload->Measure(options.seconds / 2, &spans, report);
    report.layers.trace_overhead_frac = base > 0 ? traced / base - 1 : 0;
    report.layers.self_s = spans.SelfSeconds();
    const std::string path = options.workdir + "/../spans-" + options.workload + ".json";
    if (!spans.Write(path)) {
      std::fprintf(stderr, "ovbench: cannot write %s\n", path.c_str());
    }
  }
  const double child_rss_mb = workload->Teardown();
  while (probes < kMinSetupProbes) {
    probe(false);
  }

  const double failed_frac =
      report.attempted > 0 ? static_cast<double>(report.failed) / report.attempted : 1;
  std::vector<Metric> common = {
      {"setup_s", Median(setups), "s", setups.size()},
      {"peak_rss_mb", SelfPeakRssMb() + child_rss_mb, "MB", 1},
  };
  report.named.insert(report.named.begin(), common.begin(), common.end());
  report.named.insert(report.named.begin() + 2,
                      Metric{"failed_frac", failed_frac, "ratio", report.attempted});
  common.push_back({"ok_frac", 1 - failed_frac, "ratio", report.attempted});
  report.end_to_end.insert(report.end_to_end.begin(), common.begin(), common.end());
  const double loop_s = Median(calibration);
  const double speed = kCalibrationReferenceSeconds / loop_s;
  std::printf("host calibration: loop median %.3f ms (n=%zu), %.3f of the reference speed\n",
              loop_s * 1e3, calibration.size(), speed);
  Calibrate(speed, report);
  return true;
}

void PrintReport(const std::string& workload, const Report& report, bool trace) {
  std::printf("== %s: %llu checked operations, %llu failed\n", workload.c_str(),
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const std::string& failure : report.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  for (const Metric& metric : report.named) {
    PrintMetric("metric", metric);
  }
  for (const Metric& metric : report.measured) {
    PrintMetric("measured", metric);
  }
  for (const Metric& metric : report.end_to_end) {
    PrintMetric("end_to_end", metric);
  }
  if (trace) {
    for (const Metric& metric : LayerMetrics(report.layers)) {
      PrintMetric("layer", metric);
    }
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: ovbench --workload figure4|paths_parallel|daemon_mix|all --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  options.self = argv[0];
  bool probe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--serve" && i + 2 < argc) {
      // The daemon must not outlive the run that started it.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      overify::daemon::ServerOptions server;
      server.socket_path = argv[i + 1];
      server.store_path = argv[i + 2];
      server.max_runs = kDaemonStoreRuns;
      return overify::daemon::DaemonServer(std::move(server)).Run();
    } else if (arg == "--setup-probe") {
      probe = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--workdir" && has_value) {
      options.workdir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (probe) {
    return SetupProbeMain(options);
  }
  if (options.seconds <= 0) {
    return Usage();
  }

  std::vector<std::string> names;
  if (options.workload == "all") {
    names.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else if (Make(options.workload) != nullptr) {
    names.push_back(options.workload);
  } else {
    return Usage();
  }

  options.workdir = std::string(kOutDir) + "/run-" + std::to_string(::getpid());
  if (!MakeDirs(options.workdir)) {
    std::fprintf(stderr, "ovbench: cannot create %s\n", options.workdir.c_str());
    return 1;
  }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> result;
  for (const std::string& name : names) {
    RunOptions run = options;
    run.workload = name;
    Report report;
    if (!RunWorkload(run, report)) {
      RemoveTree(options.workdir);
      return 1;
    }
    PrintReport(name, report, options.trace);
    attempted += report.attempted;
    failed += report.failed;
    if (names.size() > 1) {
      // One command for every workload: the result holds each workload's
      // own metrics under its name.
      for (Metric metric : report.named) {
        metric.name = name + "." + metric.name;
        result.push_back(metric);
      }
    } else {
      result = options.trace ? LayerMetrics(report.layers) : report.end_to_end;
    }
  }
  RemoveTree(options.workdir);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), JsonMetrics(result).c_str());
  return 0;
}
