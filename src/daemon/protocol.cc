#include "src/daemon/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "src/support/serialize.h"

namespace overify {
namespace daemon {

namespace {

bool ReadExact(int fd, uint8_t* buf, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t got = ::read(fd, buf + done, n - done);
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (got == 0) {
      return false;  // EOF mid-frame (or a clean close between frames)
    }
    done += static_cast<size_t>(got);
  }
  return true;
}

// Both ends are AF_UNIX stream sockets, so send() applies. MSG_NOSIGNAL
// turns a write to a peer that already hung up into EPIPE instead of a
// process-killing SIGPIPE: the daemon drops that connection and keeps
// serving (and keeps its unsaved store).
bool WriteExact(int fd, const uint8_t* buf, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t put = ::send(fd, buf + done, n - done, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    done += static_cast<size_t>(put);
  }
  return true;
}

}  // namespace

bool ReadFrame(int fd, std::vector<uint8_t>& payload) {
  uint8_t header[4];
  if (!ReadExact(fd, header, sizeof(header))) {
    return false;
  }
  const uint32_t length = static_cast<uint32_t>(header[0]) |
                          (static_cast<uint32_t>(header[1]) << 8) |
                          (static_cast<uint32_t>(header[2]) << 16) |
                          (static_cast<uint32_t>(header[3]) << 24);
  if (length > kMaxFrameBytes) {
    return false;
  }
  payload.resize(length);
  return length == 0 || ReadExact(fd, payload.data(), length);
}

bool WriteFrame(int fd, const std::vector<uint8_t>& payload) {
  if (payload.size() > kMaxFrameBytes) {
    return false;
  }
  const uint32_t length = static_cast<uint32_t>(payload.size());
  const uint8_t header[4] = {
      static_cast<uint8_t>(length),
      static_cast<uint8_t>(length >> 8),
      static_cast<uint8_t>(length >> 16),
      static_cast<uint8_t>(length >> 24),
  };
  return WriteExact(fd, header, sizeof(header)) &&
         (payload.empty() || WriteExact(fd, payload.data(), payload.size()));
}

std::vector<uint8_t> EncodeAnalyzeRequest(const AnalyzeRequest& request) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(RequestTag::kAnalyze));
  w.Str(request.workload);
  w.U8(request.opt_level);
  w.U32(request.sym_bytes);
  w.U8(request.force_run);
  w.U8(request.slice_checks);
  w.U32(request.jobs);
  w.U64(request.max_paths);
  w.U64(request.max_seconds_ms);
  return w.Take();
}

bool DecodeAnalyzeRequest(const std::vector<uint8_t>& body, AnalyzeRequest& request) {
  ByteReader r(body);
  if (r.U8() != static_cast<uint8_t>(RequestTag::kAnalyze)) {
    return false;
  }
  request.workload = r.Str();
  request.opt_level = r.U8();
  request.sym_bytes = r.U32();
  request.force_run = r.U8();
  request.slice_checks = r.U8();
  request.jobs = r.U32();
  request.max_paths = r.U64();
  request.max_seconds_ms = r.U64();
  return r.AtEnd();
}

std::vector<uint8_t> EncodeAnalyzeReply(const AnalyzeReply& reply) {
  ByteWriter w;
  if (!reply.ok) {
    w.U8(1);
    w.Str(reply.error);
    return w.Take();
  }
  w.U8(0);
  w.U8(reply.run_hit ? 1 : 0);
  w.Str(reply.signature);
  w.U8(reply.exhausted ? 1 : 0);
  w.U64(reply.paths);
  w.U64(reply.bugs);
  w.U64(reply.persist_seeded);
  w.U64(reply.persist_hits);
  w.U64(reply.persist_validations);
  w.U64(reply.persist_rejects);
  w.U64(reply.core_queries);
  w.U64(reply.cache_hits);
  return w.Take();
}

bool DecodeAnalyzeReply(const std::vector<uint8_t>& frame, AnalyzeReply& reply) {
  ByteReader r(frame);
  const uint8_t status = r.U8();
  if (status == 1) {
    reply.ok = false;
    reply.error = r.Str();
    return r.AtEnd();
  }
  if (status != 0) {
    return false;
  }
  reply.ok = true;
  reply.run_hit = r.U8() != 0;
  reply.signature = r.Str();
  reply.exhausted = r.U8() != 0;
  reply.paths = r.U64();
  reply.bugs = r.U64();
  reply.persist_seeded = r.U64();
  reply.persist_hits = r.U64();
  reply.persist_validations = r.U64();
  reply.persist_rejects = r.U64();
  reply.core_queries = r.U64();
  reply.cache_hits = r.U64();
  return r.AtEnd();
}

std::vector<uint8_t> EncodeStatsReply(const StatsReply& reply) {
  ByteWriter w;
  if (!reply.ok) {
    w.U8(1);
    w.Str(reply.error);
    return w.Take();
  }
  w.U8(0);
  w.U64(reply.requests);
  w.U64(reply.run_hits);
  w.U64(reply.run_misses);
  w.U64(reply.run_evictions);
  w.U64(reply.store_rejects);
  w.U64(reply.store_runs);
  w.U64(reply.store_entries);
  return w.Take();
}

bool DecodeStatsReply(const std::vector<uint8_t>& frame, StatsReply& reply) {
  ByteReader r(frame);
  const uint8_t status = r.U8();
  if (status == 1) {
    reply.ok = false;
    reply.error = r.Str();
    return r.AtEnd();
  }
  if (status != 0) {
    return false;
  }
  reply.ok = true;
  reply.requests = r.U64();
  reply.run_hits = r.U64();
  reply.run_misses = r.U64();
  reply.run_evictions = r.U64();
  reply.store_rejects = r.U64();
  reply.store_runs = r.U64();
  reply.store_entries = r.U64();
  return r.AtEnd();
}

std::vector<uint8_t> EncodeError(const std::string& message) {
  ByteWriter w;
  w.U8(1);
  w.Str(message);
  return w.Take();
}

}  // namespace daemon
}  // namespace overify
