#include "process.h"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <filesystem>

extern char** environ;

namespace perfbench {

Child::~Child() {
  Kill();
  if (out_fd_ >= 0) {
    ::close(out_fd_);
  }
}

bool Child::Spawn(const std::vector<std::string>& args, bool pipe_stdout) {
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  int fds[2] = {-1, -1};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (pipe_stdout) {
    if (::pipe(fds) != 0) {
      posix_spawn_file_actions_destroy(&actions);
      return false;
    }
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
  }
  const int rc = ::posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (pipe_stdout) {
    ::close(fds[1]);
    out_fd_ = fds[0];
  }
  if (rc != 0) {
    pid_ = -1;
    return false;
  }
  return true;
}

bool Child::ReadLine(std::string& line) {
  for (;;) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    char chunk[256];
    const ssize_t got = ::read(out_fd_, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got <= 0) {
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(got));
  }
}

bool Child::Wait(double* peak_rss_mb) {
  if (pid_ <= 0) {
    return false;
  }
  int status = 0;
  struct rusage usage {};
  pid_t got;
  do {
    got = ::wait4(pid_, &status, 0, &usage);
  } while (got < 0 && errno == EINTR);
  pid_ = -1;
  if (got < 0) {
    return false;
  }
  if (peak_rss_mb != nullptr) {
    *peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void Child::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    Wait();
  }
}

double SelfPeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

}  // namespace perfbench
