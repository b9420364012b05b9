// daemon_mix: two clients in a closed loop against a fresh verification
// daemon, one connection per request, in cycles of the usage
// ci/daemon_smoke.sh exercises (see DaemonCycle).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>

#include "bench.h"
#include "compile_path.h"
#include "plans.h"
#include "process.h"
#include "src/daemon/client.h"
#include "src/testing/diff_harness.h"

namespace perfbench {

using namespace overify;

namespace {

constexpr int kClients = 2;
// Cycles drawn per run; a run wraps around if it gets through all of them.
constexpr size_t kPlannedCycles = 64;
constexpr double kDaemonStartTimeoutSeconds = 10;
// The tail reported as tail_ms: p90 over the keys of each key's median miss
// latency, which leaves about ten keys beyond it. A single miss waits for
// whatever request the other client has in the daemon, so its latency
// varies with the order; the median over a run's cycles does not.
constexpr double kMissTailPercentile = 90;
// Request parameters, the AnalyzeRequest defaults (the daemon's jobs = 1).
constexpr uint64_t kMaxPaths = 100000;
constexpr uint64_t kMaxSecondsMs = 10000;
// Span groups of requests are numbered from 1; the in-process work of key k
// uses group kKeyGroups + k.
constexpr uint64_t kKeyGroups = uint64_t{1} << 40;

enum class Phase { kMissPass, kHitPass, kSave, kRerunPass };

struct Record {
  uint64_t id = 0;
  Phase phase = Phase::kMissPass;
  size_t key = 0;  // index into DaemonKeys(); unused for kSave
  bool ok = false;
  std::string error;
  double connect_ms = 0;
  double latency_ms = 0;  // send to reply
  daemon::AnalyzeReply reply;
};

class DaemonMix : public BenchWorkload {
 public:
  ~DaemonMix() override { daemon_.Kill(); }

  bool Setup(const RunOptions& options) override {
    options_ = options;
    StopDaemon();
    keys_ = DaemonKeys();
    cycles_ = DaemonCycles(options.seed, keys_.size(), kPlannedCycles);
    next_cycle_ = 0;
    reference_.clear();
    socket_ = options.workdir + "/daemon.sock";
    store_ = options.workdir + "/store.bin";
    return StartDaemon(/*fresh=*/true);
  }

  double Teardown() override {
    StopDaemon();
    return daemon_rss_mb_;
  }

  double Measure(double seconds, SpanLog* spans, Report& report) override {
    // Whole cycles only, so every run has the same mix of misses, hits and
    // reruns. Starting each cycle's daemon over an empty store is not timed.
    std::vector<Record> all;
    double wall = 0;
    double last_cycle = 0;
    size_t cycles = 0;
    const double start = NowSeconds();
    while (cycles == 0 || NowSeconds() - start + last_cycle <= seconds) {
      if (!fresh_) {
        Between(options_);
        if (spans != nullptr) {
          CollectStats(report);
        }
        if (!StopDaemon() || !StartDaemon(/*fresh=*/true)) {
          report.Check(false, "daemon restart over an empty store failed");
          break;
        }
      }
      const double t0 = NowSeconds();
      paused_s_ = 0;
      const bool ran = RunCycle(cycles_[next_cycle_++ % cycles_.size()], spans, all, report);
      last_cycle = NowSeconds() - t0 - paused_s_;
      wall += last_cycle;
      ++cycles;
      if (!ran) {
        break;
      }
    }
    if (spans != nullptr) {
      CollectStats(report);
    }
    CheckReplies(all, spans, report);

    std::vector<double> hit_ms;
    std::vector<double> miss_ms;
    std::vector<std::vector<double>> key_miss_ms(keys_.size());
    std::vector<double> rerun_ms;
    std::vector<double> save_ms;
    std::vector<double> connect_ms;
    uint64_t exhausted = 0;
    uint64_t analyzed = 0;
    LayerTotals& layers = report.layers;
    for (const Record& record : all) {
      connect_ms.push_back(record.connect_ms);
      if (!record.ok) {
        continue;
      }
      if (record.phase == Phase::kSave) {
        save_ms.push_back(record.latency_ms);
        continue;
      }
      ++analyzed;
      // A run-cache hit carries only the signature, which leads with the verdict.
      exhausted += record.reply.signature.rfind("exhausted", 0) == 0 ? 1 : 0;
      if (record.phase == Phase::kRerunPass) {
        rerun_ms.push_back(record.latency_ms);
        layers.rerun_persist_hits += record.reply.persist_hits;
        layers.rerun_core_queries += record.reply.core_queries;
      } else if (record.reply.run_hit) {
        hit_ms.push_back(record.latency_ms);
      } else {
        miss_ms.push_back(record.latency_ms);
        key_miss_ms[record.key].push_back(record.latency_ms);
      }
      layers.persist_seeded += record.reply.persist_seeded;
      layers.persist_hits += record.reply.persist_hits;
      layers.persist_validations += record.reply.persist_validations;
      layers.persist_rejects += record.reply.persist_rejects;
    }

    if (spans != nullptr) {
      layers.save_ms = save_ms;
      layers.rerun_ms = rerun_ms;
      layers.connect_ms = connect_ms;
      LayerCompiles(all, spans, report);
    }

    std::vector<double> key_miss_medians;
    for (const std::vector<double>& samples : key_miss_ms) {
      if (!samples.empty()) {
        key_miss_medians.push_back(Median(samples));
      }
    }
    const double miss_p90 = Percentile(key_miss_medians, kMissTailPercentile);
    const Tail hit_tail = TailRule(hit_ms);
    const Tail miss_tail = TailRule(miss_ms);
    const Tail rerun_tail = TailRule(rerun_ms);
    std::printf("daemon_mix: %d clients, %zu cycle(s), %zu requests in %.2f s: %zu hits, "
                "%zu misses, %zu reruns, %zu saves\n",
                kClients, cycles, all.size(), wall, hit_ms.size(), miss_ms.size(),
                rerun_ms.size(), save_ms.size());
    std::printf("  hit    p50 %.3f ms, p%g %.3f ms (n=%zu, %zu beyond)\n", Median(hit_ms),
                hit_tail.percentile, hit_tail.value, hit_tail.n, hit_tail.beyond);
    std::printf("  miss   p50 %.3f ms, p%g %.3f ms (n=%zu, %zu beyond)\n", Median(miss_ms),
                miss_tail.percentile, miss_tail.value, miss_tail.n, miss_tail.beyond);
    std::printf("  miss   p%g of the per-key medians %.3f ms (%zu keys)\n", kMissTailPercentile,
                miss_p90, key_miss_medians.size());
    std::printf("  rerun  p50 %.3f ms, p%g %.3f ms (n=%zu, %zu beyond)\n", Median(rerun_ms),
                rerun_tail.percentile, rerun_tail.value, rerun_tail.n, rerun_tail.beyond);
    std::printf("  save   p50 %.3f ms (n=%zu); connect p50 %.3f ms\n", Median(save_ms),
                save_ms.size(), Median(connect_ms));

    const double req_per_s = wall > 0 ? static_cast<double>(all.size()) / wall : 0;
    const double hit_p50 = Median(hit_ms);
    report.named.push_back(Metric{"req_per_s", req_per_s, "req/s", all.size()});
    report.named.push_back(Metric{"req_p50_ms.hit", hit_p50, "ms", hit_ms.size()});
    report.named.push_back(Metric{"req_p99_ms.hit", Percentile(hit_ms, 99), "ms", hit_ms.size()});
    report.named.push_back(Metric{"req_p50_ms.miss", Median(miss_ms), "ms", miss_ms.size()});
    report.named.push_back(Metric{"req_p90_ms.miss", miss_p90, "ms", key_miss_medians.size()});

    report.end_to_end.push_back(Metric{"ops_per_s", req_per_s, "1/s", all.size()});
    report.end_to_end.push_back(Metric{"p50_ms", hit_p50, "ms", hit_ms.size()});
    report.end_to_end.push_back(Metric{"tail_ms", miss_p90, "ms", key_miss_medians.size()});
    report.end_to_end.push_back(Metric{
        "decided_frac", analyzed > 0 ? static_cast<double>(exhausted) / analyzed : 0, "ratio",
        analyzed});
    return wall / static_cast<double>(std::max<size_t>(all.size(), 1));
  }

 private:
  // One DaemonCycle on the current daemon, which starts over an empty
  // store. False when a step other than a request failed.
  bool RunCycle(const DaemonCycle& cycle, SpanLog* spans, std::vector<Record>& all,
                Report& report) {
    fresh_ = false;
    RunPass(Phase::kMissPass, cycle.miss_order, spans, all);
    Pause();
    RunPass(Phase::kHitPass, cycle.hit_order, spans, all);
    all.push_back(Send(Phase::kSave, 0, spans));
    if (spans != nullptr) {
      std::error_code ec;
      report.layers.store_bytes = std::filesystem::file_size(store_, ec);
      CollectStats(report);
    }
    Pause();
    if (!StopDaemon() || !StartDaemon(/*fresh=*/false)) {
      report.Check(false, "daemon restart over the saved store failed");
      return false;
    }
    RunPass(Phase::kRerunPass, cycle.rerun_order, spans, all);
    return true;
  }

  // A pause between two passes of a cycle, which the cycle's time leaves out.
  void Pause() {
    const double t0 = NowSeconds();
    Between(options_);
    paused_s_ += NowSeconds() - t0;
  }

  // The clients take the keys in order; each sends its next request only
  // after the reply to its previous one. Returns when every reply is in.
  void RunPass(Phase phase, const std::vector<size_t>& order, SpanLog* spans,
               std::vector<Record>& all) {
    std::atomic<size_t> next{0};
    std::vector<std::vector<Record>> records(kClients);
    std::vector<SpanLog> client_spans(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        SpanLog* log = spans != nullptr ? &client_spans[c] : nullptr;
        for (size_t i = next.fetch_add(1); i < order.size(); i = next.fetch_add(1)) {
          records[c].push_back(Send(phase, order[i], log));
        }
      });
    }
    for (std::thread& client : clients) {
      client.join();
    }
    for (int c = 0; c < kClients; ++c) {
      if (spans != nullptr) {
        spans->Append(client_spans[c]);
      }
      all.insert(all.end(), records[c].begin(), records[c].end());
    }
  }

  Record Send(Phase phase, size_t key, SpanLog* spans) {
    Record record;
    record.id = next_id_++;
    record.phase = phase;
    record.key = key;
    ScopedSpan request_span(spans, phase == Phase::kSave ? "save" : "request", record.id, -1);
    daemon::Client client;
    const double t0 = NowSeconds();
    bool connected;
    {
      ScopedSpan span(spans, "connect", record.id, request_span.index());
      connected = client.Connect(socket_);
    }
    const double t1 = NowSeconds();
    record.connect_ms = (t1 - t0) * 1e3;
    if (!connected) {
      record.error = client.error();
      return record;
    }
    ScopedSpan call_span(spans, "call", record.id, request_span.index());
    if (phase == Phase::kSave) {
      record.ok = client.SaveStore();
    } else {
      daemon::AnalyzeRequest analyze;
      analyze.workload = keys_[key].workload->name;
      analyze.opt_level = static_cast<uint8_t>(keys_[key].level);
      analyze.force_run = phase == Phase::kRerunPass ? 1 : 0;
      analyze.jobs = 1;
      analyze.max_paths = kMaxPaths;
      analyze.max_seconds_ms = kMaxSecondsMs;
      record.ok = client.Analyze(analyze, record.reply) && record.reply.ok;
    }
    record.latency_ms = (NowSeconds() - t1) * 1e3;
    if (!record.ok) {
      record.error = client.error() + record.reply.error;
    }
    return record;
  }

  // Every reply's signature must equal the signature of the same request
  // verified in this process, and the second pass must be answered from the
  // run cache.
  void CheckReplies(const std::vector<Record>& records, SpanLog* spans, Report& report) {
    for (const Record& record : records) {
      const std::string what = "request " + std::to_string(record.id) + ": ";
      if (record.phase == Phase::kSave || !record.ok) {
        report.Check(record.ok, what + "failed: " + record.error);
        continue;
      }
      auto it = reference_.find(record.key);
      if (it == reference_.end()) {
        it = reference_.emplace(record.key, InProcessSignature(record.key, spans)).first;
      }
      const std::string label = keys_[record.key].Label();
      report.Check(record.reply.signature == it->second,
                   what + label + " signature differs from in-process");
      if (record.phase == Phase::kHitPass) {
        report.Check(record.reply.run_hit, what + label + " missed the run cache on a repeat");
      }
    }
  }

  std::string InProcessSignature(size_t key_index, SpanLog* spans) {
    const DaemonKey& key = keys_[key_index];
    ScopedSpan span(spans, "check", kKeyGroups + key_index, -1);
    Compiler compiler;
    CompileResult compiled = compiler.Compile(key.workload->source, key.level, key.workload->name);
    SymexLimits limits;
    limits.max_paths = kMaxPaths;
    limits.max_seconds = static_cast<double>(kMaxSecondsMs) / 1000.0;
    SymexResult result = Analyze(compiled, "umain", key.workload->default_sym_bytes, limits);
    if (!result.ok) {
      return "in-process analyze failed: " + result.error;
    }
    return difftest::SignatureOf(result, *compiled.module, "umain", /*confirm_models=*/true)
        .ToString();
  }

  // The traced run compiles every key through the layers in this process:
  // it checks the layered compile against Compiler::Compile and relates
  // each hit's latency to the compile the daemon repeats for it.
  void LayerCompiles(const std::vector<Record>& records, SpanLog* spans, Report& report) {
    std::vector<double> compile_ms(keys_.size(), 0);
    for (size_t k = 0; k < keys_.size(); ++k) {
      LayeredCompile layered =
          CompileLayered(*keys_[k].workload, keys_[k].level, spans, kKeyGroups + k, -1);
      const std::string diff = CompareWithCompiler(layered, *keys_[k].workload, keys_[k].level);
      report.Check(diff.empty(), keys_[k].Label() + ": layered compile differs: " + diff);
      report.layers.AddCompile(layered);
      compile_ms[k] = layered.result.compile_seconds * 1e3;
    }
    for (const Record& record : records) {
      if (record.ok && record.phase != Phase::kSave && record.phase != Phase::kRerunPass &&
          record.reply.run_hit && record.latency_ms > 0) {
        report.layers.hit_compile_share.push_back(compile_ms[record.key] / record.latency_ms);
      }
    }
  }

  // Adds the current daemon's Stats reply to the layer totals. Each daemon
  // counts from its own start, so this runs once before every stop.
  void CollectStats(Report& report) {
    daemon::Client client;
    daemon::StatsReply stats;
    const bool got = client.Connect(socket_) && client.Stats(stats) && stats.ok;
    report.Check(got, "daemon stats request failed: " + client.error());
    report.layers.daemon_requests += stats.requests;
    report.layers.daemon_run_hits += stats.run_hits;
    report.layers.daemon_run_misses += stats.run_misses;
  }

  // Starts a daemon on the run's socket and waits until it answers. A fresh
  // daemon starts over an empty store; otherwise it loads the saved one.
  bool StartDaemon(bool fresh) {
    if (fresh) {
      RemoveTree(store_);
    }
    fresh_ = fresh;
    if (!daemon_.Spawn({options_.self, "--serve", socket_, store_}, false)) {
      return false;
    }
    const double deadline = NowSeconds() + kDaemonStartTimeoutSeconds;
    while (NowSeconds() < deadline) {
      daemon::Client client;
      if (client.Connect(socket_) && client.Ping()) {
        return true;
      }
      ::usleep(500);
    }
    return false;
  }

  // Shuts the daemon down (it saves the store on the way out) and keeps the
  // largest peak resident set of any daemon so far. True when no daemon is
  // left running and the last one exited cleanly.
  bool StopDaemon() {
    if (!daemon_.running()) {
      return true;
    }
    daemon::Client client;
    if (!client.Connect(socket_) || !client.Shutdown()) {
      daemon_.Kill();
      return false;
    }
    double rss_mb = 0;
    const bool clean = daemon_.Wait(&rss_mb);
    daemon_rss_mb_ = std::max(daemon_rss_mb_, rss_mb);
    return clean;
  }

  RunOptions options_;
  std::vector<DaemonKey> keys_;
  std::vector<DaemonCycle> cycles_;
  size_t next_cycle_ = 0;
  uint64_t next_id_ = 1;
  std::map<size_t, std::string> reference_;  // in-process signature per key
  std::string socket_;
  std::string store_;
  Child daemon_;
  bool fresh_ = false;  // the daemon has not served a cycle yet
  double paused_s_ = 0;  // of the current cycle
  double daemon_rss_mb_ = 0;
};

}  // namespace

std::unique_ptr<BenchWorkload> MakeDaemonMix() { return std::make_unique<DaemonMix>(); }

}  // namespace perfbench
