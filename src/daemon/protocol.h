// Wire protocol of the verification daemon (docs/daemon.md).
//
// A client connects to the daemon's Unix socket and exchanges
// length-prefixed frames: a u32 little-endian payload length followed by
// that many payload bytes. Each request frame is a u8 tag plus a
// tag-specific body serialized with ByteWriter (src/support/serialize.h);
// each response frame opens with a u8 status (0 = ok, 1 = error, the error
// body being a single diagnostic string). The protocol is versioned
// independently of the cache store — kDaemonProtocolVersion only changes
// when the frames themselves do.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace overify {
namespace daemon {

constexpr uint32_t kDaemonProtocolVersion = 1;

// The largest frame either side accepts. Protects both ends from a garbage
// length prefix (a stray client writing text into the socket).
constexpr uint32_t kMaxFrameBytes = 1u << 26;

enum class RequestTag : uint8_t {
  kAnalyze = 1,   // verify one workload; answered from the run cache if warm
  kPing = 2,      // liveness + protocol version
  kStats = 3,     // daemon counters + store occupancy
  kSaveStore = 4, // persist the store to the daemon's --store path now
  kShutdown = 5,  // drain and exit after replying
};

struct AnalyzeRequest {
  std::string workload;    // suite workload name (src/workloads)
  uint8_t opt_level = 4;   // OptLevel as u8; 4 = kOverify
  uint32_t sym_bytes = 0;  // 0 = the workload's default width
  // Skip the run-level signature cache and actually execute, still seeding
  // solver caches from the store. CI uses this to measure the solver-level
  // persisted hit rate in isolation.
  uint8_t force_run = 0;
  uint8_t slice_checks = 0;
  uint32_t jobs = 1;
  uint64_t max_paths = 100000;
  uint64_t max_seconds_ms = 10000;
};

struct AnalyzeReply {
  bool ok = false;
  std::string error;
  // Answered from the daemon's run cache without executing (signature
  // memoized under the module's content hash + options fingerprint).
  bool run_hit = false;
  std::string signature;  // RunSignature::ToString() of the verification
  bool exhausted = false;
  uint64_t paths = 0;
  uint64_t bugs = 0;
  // Solver-level persistence counters of this run (all zero on a run_hit —
  // nothing executed).
  uint64_t persist_seeded = 0;
  uint64_t persist_hits = 0;
  uint64_t persist_validations = 0;
  uint64_t persist_rejects = 0;
  uint64_t core_queries = 0;
  uint64_t cache_hits = 0;
};

struct StatsReply {
  bool ok = false;
  std::string error;
  uint64_t requests = 0;
  uint64_t run_hits = 0;
  uint64_t run_misses = 0;
  uint64_t run_evictions = 0;
  uint64_t store_rejects = 0;
  uint64_t store_runs = 0;
  uint64_t store_entries = 0;
};

// ---- Frame IO (blocking, on a connected AF_UNIX stream socket) ----

// False on EOF, short read/write, or an oversized length prefix. Writing
// to a peer that hung up fails with EPIPE rather than raising SIGPIPE.
bool ReadFrame(int fd, std::vector<uint8_t>& payload);
bool WriteFrame(int fd, const std::vector<uint8_t>& payload);

// ---- Request/response bodies ----

std::vector<uint8_t> EncodeAnalyzeRequest(const AnalyzeRequest& request);
bool DecodeAnalyzeRequest(const std::vector<uint8_t>& body, AnalyzeRequest& request);

std::vector<uint8_t> EncodeAnalyzeReply(const AnalyzeReply& reply);
bool DecodeAnalyzeReply(const std::vector<uint8_t>& frame, AnalyzeReply& reply);

std::vector<uint8_t> EncodeStatsReply(const StatsReply& reply);
bool DecodeStatsReply(const std::vector<uint8_t>& frame, StatsReply& reply);

std::vector<uint8_t> EncodeError(const std::string& message);

}  // namespace daemon
}  // namespace overify
