// The verification daemon (src/daemon/, docs/daemon.md): wire protocol
// round trips, the server loop driven end-to-end over a real Unix socket,
// and the property the daemon exists for — a warm repeat request answers
// from the run cache with a signature bit-identical to the executed run,
// and a restarted daemon rehydrates its warmth from the saved store.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/daemon/client.h"
#include "src/daemon/protocol.h"
#include "src/daemon/server.h"
#include "src/support/serialize.h"

namespace overify {
namespace daemon {
namespace {

// ---- Protocol round trips ----

TEST(Protocol, AnalyzeRequestRoundTrip) {
  AnalyzeRequest request;
  request.workload = "wc";
  request.opt_level = 3;
  request.sym_bytes = 6;
  request.force_run = 1;
  request.slice_checks = 1;
  request.jobs = 4;
  request.max_paths = 12345;
  request.max_seconds_ms = 6789;
  AnalyzeRequest decoded;
  ASSERT_TRUE(DecodeAnalyzeRequest(EncodeAnalyzeRequest(request), decoded));
  EXPECT_EQ(decoded.workload, "wc");
  EXPECT_EQ(decoded.opt_level, 3);
  EXPECT_EQ(decoded.sym_bytes, 6u);
  EXPECT_EQ(decoded.force_run, 1);
  EXPECT_EQ(decoded.slice_checks, 1);
  EXPECT_EQ(decoded.jobs, 4u);
  EXPECT_EQ(decoded.max_paths, 12345u);
  EXPECT_EQ(decoded.max_seconds_ms, 6789u);
}

TEST(Protocol, AnalyzeReplyRoundTripBothArms) {
  AnalyzeReply ok;
  ok.ok = true;
  ok.run_hit = true;
  ok.signature = "exhausted paths=7";
  ok.paths = 7;
  ok.persist_hits = 12;
  ok.core_queries = 12;
  AnalyzeReply decoded;
  ASSERT_TRUE(DecodeAnalyzeReply(EncodeAnalyzeReply(ok), decoded));
  EXPECT_TRUE(decoded.ok);
  EXPECT_TRUE(decoded.run_hit);
  EXPECT_EQ(decoded.signature, "exhausted paths=7");
  EXPECT_EQ(decoded.persist_hits, 12u);

  AnalyzeReply error;
  error.ok = false;
  error.error = "unknown workload 'nope'";
  ASSERT_TRUE(DecodeAnalyzeReply(EncodeAnalyzeReply(error), decoded));
  EXPECT_FALSE(decoded.ok);
  EXPECT_EQ(decoded.error, "unknown workload 'nope'");
}

TEST(Protocol, TruncatedReplyIsRejected) {
  AnalyzeReply ok;
  ok.ok = true;
  ok.signature = "sig";
  std::vector<uint8_t> bytes = EncodeAnalyzeReply(ok);
  bytes.resize(bytes.size() - 1);
  AnalyzeReply decoded;
  EXPECT_FALSE(DecodeAnalyzeReply(bytes, decoded));
}

// ---- The server over a real socket ----

class DaemonEndToEnd : public ::testing::Test {
 protected:
  std::string SocketPath() const {
    return ::testing::TempDir() + "/overify_daemon_test.sock";
  }
  std::string StorePath() const {
    return ::testing::TempDir() + "/overify_daemon_test.store";
  }

  // Serves until a client sends Shutdown; joins in the destructor.
  void StartServer(const std::string& store_path) {
    ServerOptions options;
    options.socket_path = SocketPath();
    options.store_path = store_path;
    server_ = std::make_unique<DaemonServer>(std::move(options));
    thread_ = std::thread([this] { exit_code_ = server_->Run(); });
  }

  // The socket file appears when the server is accepting.
  bool ConnectWithRetry(Client& client) {
    for (int i = 0; i < 200; ++i) {
      if (client.Connect(SocketPath())) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  // A bare socket connected to the daemon, for clients that misbehave at
  // the frame level. -1 on failure.
  int RawConnect() const {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, SocketPath().c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  void TearDown() override {
    if (thread_.joinable()) {
      Client client;
      if (client.Connect(SocketPath())) {
        client.Shutdown();
      }
      thread_.join();
    }
    std::remove(SocketPath().c_str());
    std::remove(StorePath().c_str());
  }

  std::unique_ptr<DaemonServer> server_;
  std::thread thread_;
  int exit_code_ = -1;
};

TEST_F(DaemonEndToEnd, WarmRepeatIsRunHitWithIdenticalSignature) {
  std::remove(StorePath().c_str());
  StartServer(StorePath());
  Client client;
  ASSERT_TRUE(ConnectWithRetry(client)) << client.error();
  ASSERT_TRUE(client.Ping()) << client.error();

  AnalyzeRequest request;
  request.workload = "wc";
  AnalyzeReply cold;
  ASSERT_TRUE(client.Analyze(request, cold)) << client.error();
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.run_hit);
  EXPECT_TRUE(cold.exhausted);
  EXPECT_FALSE(cold.signature.empty());
  EXPECT_EQ(cold.persist_hits, 0u) << "nothing persisted yet: the run was cold";

  // Same request again: answered from the run cache, signature identical.
  AnalyzeReply warm;
  ASSERT_TRUE(client.Analyze(request, warm)) << client.error();
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.run_hit);
  EXPECT_EQ(warm.signature, cold.signature);

  // Forcing execution exercises the solver-level store instead: every
  // core query the cold run answered is now a persisted hit, and the
  // verdict is still bit-identical.
  request.force_run = 1;
  AnalyzeReply forced;
  ASSERT_TRUE(client.Analyze(request, forced)) << client.error();
  ASSERT_TRUE(forced.ok) << forced.error;
  EXPECT_FALSE(forced.run_hit);
  EXPECT_EQ(forced.signature, cold.signature);
  EXPECT_GT(forced.persist_hits, 0u);
  EXPECT_GE(forced.persist_seeded, forced.persist_hits);

  StatsReply stats;
  ASSERT_TRUE(client.Stats(stats)) << client.error();
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.run_hits, 1u);
  EXPECT_EQ(stats.run_misses, 2u);  // the cold run + the forced run
  EXPECT_GE(stats.store_entries, 1u);
}

TEST_F(DaemonEndToEnd, ErrorsComeBackAsProtocolErrors) {
  StartServer(/*store_path=*/"");
  Client client;
  ASSERT_TRUE(ConnectWithRetry(client)) << client.error();

  AnalyzeRequest request;
  request.workload = "definitely_not_a_workload";
  AnalyzeReply reply;
  ASSERT_TRUE(client.Analyze(request, reply)) << client.error();
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("definitely_not_a_workload"), std::string::npos);

  request.workload = "wc";
  request.opt_level = 9;
  ASSERT_TRUE(client.Analyze(request, reply)) << client.error();
  EXPECT_FALSE(reply.ok);
}

TEST_F(DaemonEndToEnd, RestartRehydratesFromSavedStore) {
  std::remove(StorePath().c_str());
  StartServer(StorePath());
  {
    Client client;
    ASSERT_TRUE(ConnectWithRetry(client)) << client.error();
    AnalyzeRequest request;
    request.workload = "wc";
    AnalyzeReply reply;
    ASSERT_TRUE(client.Analyze(request, reply)) << client.error();
    ASSERT_TRUE(reply.ok) << reply.error;
    ASSERT_TRUE(client.Shutdown());  // saves the store on exit
  }
  thread_.join();
  EXPECT_EQ(exit_code_, 0);

  // A fresh daemon process (fresh interner, fresh everything) over the
  // saved store: the very first force-run request must already hit the
  // persisted solver entries, and the run-level memo must answer a plain
  // repeat without executing.
  StartServer(StorePath());
  Client client;
  ASSERT_TRUE(ConnectWithRetry(client)) << client.error();
  AnalyzeRequest request;
  request.workload = "wc";
  AnalyzeReply memo;
  ASSERT_TRUE(client.Analyze(request, memo)) << client.error();
  ASSERT_TRUE(memo.ok) << memo.error;
  EXPECT_TRUE(memo.run_hit) << "run signature must survive the restart";

  request.force_run = 1;
  AnalyzeReply forced;
  ASSERT_TRUE(client.Analyze(request, forced)) << client.error();
  ASSERT_TRUE(forced.ok) << forced.error;
  EXPECT_GT(forced.persist_hits, 0u) << "solver entries must survive the restart";
  EXPECT_EQ(forced.signature, memo.signature);
}

// A client that hangs up before its reply must cost the daemon only that
// connection. The daemon serves one connection at a time, so while a first
// client holds it, a second connects, queues an Analyze frame and closes:
// by the time the daemon reads that request its peer is gone, and the
// reply write fails. A third client must still get a Ping reply.
TEST_F(DaemonEndToEnd, ClientThatHangsUpBeforeItsReplyCostsOnlyItsConnection) {
  StartServer(/*store_path=*/"");
  Client holder;
  ASSERT_TRUE(ConnectWithRetry(holder)) << holder.error();
  ASSERT_TRUE(holder.Ping()) << holder.error();  // the daemon is serving `holder`

  const int quitter = RawConnect();
  ASSERT_GE(quitter, 0);
  AnalyzeRequest request;
  request.workload = "wc";
  ASSERT_TRUE(WriteFrame(quitter, EncodeAnalyzeRequest(request)));
  ::close(quitter);
  holder.Close();

  Client next;
  ASSERT_TRUE(ConnectWithRetry(next)) << next.error();
  EXPECT_TRUE(next.Ping()) << next.error();
  StatsReply stats;
  ASSERT_TRUE(next.Stats(stats)) << next.error();
  EXPECT_EQ(stats.run_misses, 1u) << "the abandoned request was still served";
}

}  // namespace
}  // namespace daemon
}  // namespace overify
