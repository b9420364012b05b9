// Child processes of the benchmark: set-up probes and the daemon.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

// A child process. The destructor kills and reaps a child that is still
// running, so no child outlives the benchmark.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  // Starts args[0] with `args`; with `pipe_stdout` the child's standard
  // output is readable through ReadLine.
  bool Spawn(const std::vector<std::string>& args, bool pipe_stdout);
  // Blocks for one line of the child's output; false at end of file.
  bool ReadLine(std::string& line);
  // Waits for the child to exit. True when it exited with status 0.
  // `peak_rss_mb` receives its peak resident set.
  bool Wait(double* peak_rss_mb = nullptr);
  void Kill();
  bool running() const { return pid_ > 0; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
};

// Peak resident set of this process, in MB.
double SelfPeakRssMb();

// Removes a directory tree the benchmark created (best effort).
void RemoveTree(const std::string& path);
bool MakeDirs(const std::string& path);

}  // namespace perfbench
