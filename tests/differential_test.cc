// The differential verification harness (src/testing/diff_harness.h) and
// the cross-configuration contract it enforces: a canonical RunSignature
// that is bit-identical across every scheduler cell of a level and
// semantically identical across optimization levels.
//
// Test tiers (wired to ctest LABELS in CMakeLists.txt):
//  - the default tests run a reduced sweep on tier-1 (every CI job, flat
//    wall time);
//  - everything matching *Slow* runs the full lattice over the whole
//    expanded Coreutils suite — including the >= 32-symbolic-byte
//    workloads — in the separate `slow` CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/testing/diff_harness.h"
#include "src/workloads/textgen.h"
#include "src/workloads/workloads.h"

namespace overify {
namespace {

using difftest::DiffOptions;
using difftest::DiffReport;
using difftest::FullLattice;
using difftest::LatticeCell;
using difftest::RunDifferential;
using difftest::RunSignature;
using difftest::SemanticOf;

// ---- Harness unit behaviour.

TEST(LatticeTest, FullLatticeSpansEveryAxisCombination) {
  DiffOptions options;
  auto cells = FullLattice(options);
  // 3 levels x 2 worker counts x 2 strategies.
  EXPECT_EQ(cells.size(), 12u);
  // Cell names are unique (they key diffs and logs).
  std::vector<std::string> names;
  for (const LatticeCell& cell : cells) {
    names.push_back(cell.Name());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
  EXPECT_EQ(cells.front().Name(), "-O0/j1/dfs");
}

TEST(LatticeTest, CellOptionsCarryEveryAxis) {
  LatticeCell cell;
  cell.jobs = 4;
  cell.strategy = SearchStrategy::kCoverageGuided;
  cell.slice_checks = true;
  SymexOptions options = cell.ToOptions();
  EXPECT_EQ(options.jobs, 4u);
  EXPECT_EQ(options.strategy, SearchStrategy::kCoverageGuided);
  EXPECT_TRUE(options.slice_checks);
  EXPECT_NE(cell.Name().find("/slice"), std::string::npos);
}

TEST(LatticeTest, SlicingAxisDoublesTheLattice) {
  DiffOptions options;
  options.slicing = {false, true};
  auto cells = FullLattice(options);
  EXPECT_EQ(cells.size(), 24u);
  size_t sliced = 0;
  for (const LatticeCell& cell : cells) {
    if (cell.slice_checks) {
      ++sliced;
      EXPECT_NE(cell.Name().find("/slice"), std::string::npos);
    }
  }
  EXPECT_EQ(sliced, 12u);
}

TEST(SignatureTest, SemanticSignatureDedupsKindsAndKeepsConfirmation) {
  RunSignature signature;
  signature.exhausted = true;
  difftest::BugSignature a;
  a.kind = BugKind::kDivByZero;
  a.message = "site 1";
  a.confirmed = true;
  difftest::BugSignature b = a;
  b.message = "site 2";  // same kind, distinct report
  difftest::BugSignature c;
  c.kind = BugKind::kOutOfBounds;
  c.confirmed = false;
  signature.bugs = {a, b, c};
  auto semantic = SemanticOf(signature);
  ASSERT_EQ(semantic.bug_kinds.size(), 2u);
  EXPECT_EQ(semantic.bug_kinds[0].first, BugKind::kDivByZero);
  EXPECT_TRUE(semantic.bug_kinds[0].second);
  EXPECT_EQ(semantic.bug_kinds[1].first, BugKind::kOutOfBounds);
  EXPECT_FALSE(semantic.bug_kinds[1].second);
}

// ---- Differential runs on hand-written programs.

// A clean program agrees everywhere: empty bug set, identical counts per
// level, consistent semantics across levels.
TEST(DifferentialTest, CleanProgramPassesTheFullLattice) {
  DiffOptions options;
  options.limits.max_seconds = 60;
  DiffReport report = RunDifferential("clean", R"(
    int umain(unsigned char *in, int n) {
      int vowels = 0;
      for (long i = 0; in[i]; i++) {
        int c = tolower(in[i]);
        if (c == 'a' || c == 'e' || c == 'i' || c == 'o' || c == 'u') { vowels++; }
      }
      return vowels;
    }
  )",
                                      4, options);
  EXPECT_TRUE(report.ok) << report.diff;
  EXPECT_EQ(report.cells.size(), 12u);
  for (const auto& cell : report.cells) {
    EXPECT_TRUE(cell.signature.exhausted) << cell.cell.Name();
    EXPECT_TRUE(cell.signature.bugs.empty()) << cell.cell.Name();
  }
}

// A buggy program still agrees: the bug is found in every cell, with a
// confirmed (interpreter-replayed) model.
TEST(DifferentialTest, BuggyProgramAgreesWithConfirmedModels) {
  DiffOptions options;
  options.limits.max_seconds = 60;
  DiffReport report = RunDifferential("div_bug", R"(
    int umain(unsigned char *in, int n) {
      int d = in[0] - 'a';
      if (in[1] == 'q') { return in[2] / d; }   /* d == 0 when in[0] == 'a' */
      return 0;
    }
  )",
                                      3, options);
  EXPECT_TRUE(report.ok) << report.diff;
  for (const auto& cell : report.cells) {
    ASSERT_FALSE(cell.signature.bugs.empty()) << cell.cell.Name();
    bool found = false;
    for (const auto& bug : cell.signature.bugs) {
      if (bug.kind == BugKind::kDivByZero) {
        found = true;
        EXPECT_TRUE(bug.confirmed) << cell.cell.Name() << ": model did not replay to a trap";
      }
    }
    EXPECT_TRUE(found) << cell.cell.Name();
  }
}

// Slice mode finds the same confirmed bugs as whole-program mode, per
// level, through the harness's semantic comparison: each check's backward
// cone keeps the trap condition exact (docs/slicing.md).
TEST(DifferentialTest, SliceModeAgreesOnABuggyProgram) {
  DiffOptions options;
  options.jobs = {1};
  options.strategies = {SearchStrategy::kDfs};
  options.slicing = {false, true};
  options.limits.max_seconds = 60;
  DiffReport report = RunDifferential("div_bug_sliced", R"(
    int umain(unsigned char *in, int n) {
      int d = in[0] - 'a';
      if (in[1] == 'q') { return in[2] / d; }   /* d == 0 when in[0] == 'a' */
      return 0;
    }
  )",
                                      3, options);
  EXPECT_TRUE(report.ok) << report.diff;
  for (const auto& cell : report.cells) {
    bool found = false;
    for (const auto& bug : cell.signature.bugs) {
      if (bug.kind == BugKind::kDivByZero) {
        found = true;
        EXPECT_TRUE(bug.confirmed) << cell.cell.Name();
      }
    }
    EXPECT_TRUE(found) << cell.cell.Name();
  }
}

// Capped cells are reported (and fail the report) when exhaustion is
// required: an infinite path-space program cannot exhaust.
TEST(DifferentialTest, CappedCellsFailWhenExhaustionIsRequired) {
  DiffOptions options;
  options.levels = {OptLevel::kO0};
  options.jobs = {1};
  options.strategies = {SearchStrategy::kBfs};
  options.limits.max_paths = 4;  // stops the 256-way fan-out immediately
  DiffReport report = RunDifferential("capped", R"(
    int umain(unsigned char *in, int n) {
      int c = 0;
      for (long i = 0; i < n; i++) {
        if (in[i] == 'q') { c++; }
      }
      return c;
    }
  )",
                                      8, options);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.diff.find("did not exhaust"), std::string::npos) << report.diff;
}

// ---- Tier-1 sweep: representative workloads, full lattice, small inputs.

class WorkloadDifferentialTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadDifferentialTest, LatticeAgreesAtFourBytes) {
  const Workload* workload = FindWorkload(GetParam());
  ASSERT_NE(workload, nullptr) << GetParam();
  DiffOptions options;
  options.limits.max_seconds = 120;
  DiffReport report = RunDifferential(*workload, /*sym_bytes=*/4, options);
  EXPECT_TRUE(report.ok) << report.diff;
}

// The slicing axis (docs/slicing.md) on a reduced scheduler lattice: every
// tier-1 workload must produce the same semantic verdict — identical sorted
// distinct (kind, confirmed) bug sets — whether the engine verifies the
// whole program or one slice per check, at every optimization level.
TEST_P(WorkloadDifferentialTest, SliceModeAgreesWithWholeProgram) {
  const Workload* workload = FindWorkload(GetParam());
  ASSERT_NE(workload, nullptr) << GetParam();
  DiffOptions options;
  options.jobs = {1, 4};
  options.strategies = {SearchStrategy::kDfs};
  options.slicing = {false, true};
  options.limits.max_seconds = 120;
  DiffReport report = RunDifferential(*workload, /*sym_bytes=*/4, options);
  EXPECT_TRUE(report.ok) << report.diff;
  // 3 levels x 2 worker counts x 2 slice modes all ran.
  EXPECT_EQ(report.cells.size(), 12u);
}

// The sample covers the suite's idiom classes while keeping tier-1 wall
// time flat: the paper's flagship (wc), runtime-flag unswitching
// (count_mode), both two-buffer entries (cmp_bufs, comm_bufs), libc string
// scanning (cut_f), filter state machines (tr_squeeze, fold_sp,
// expand_stops), and the fork-free wide-support block (sum_block). The
// solver-heavy parsers (seq_range, uniq_count) run in the slow-tier sweep
// with the rest of the suite.
INSTANTIATE_TEST_SUITE_P(Tier1, WorkloadDifferentialTest,
                         ::testing::Values("wc_any", "count_mode", "cmp_bufs", "comm_bufs",
                                           "cut_f", "tr_squeeze", "fold_sp", "expand_stops",
                                           "sum_block"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// ---- Tier-1 fuzz: randomized kernels through a reduced lattice.

class FuzzDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzDifferentialTest, GeneratedKernelAgreesAcrossTheLattice) {
  KernelGenOptions gen;
  gen.seed = static_cast<uint64_t>(GetParam());
  std::string source = GenerateMiniCKernel(gen);
  SCOPED_TRACE(source);
  // Generation is deterministic...
  EXPECT_EQ(GenerateMiniCKernel(gen), source);
  // ...and the kernel is total: clean differential signature everywhere.
  DiffOptions options;
  options.limits.max_seconds = 120;
  DiffReport report =
      RunDifferential("fuzz_" + std::to_string(GetParam()), source, /*sym_bytes=*/3, options);
  EXPECT_TRUE(report.ok) << report.diff;
  for (const auto& cell : report.cells) {
    EXPECT_TRUE(cell.signature.bugs.empty())
        << cell.cell.Name() << ": generated kernels must be trap-free\n" << source;
  }
}

// Seeds chosen for flat wall time; the slow tier runs a wider seed range.
INSTANTIATE_TEST_SUITE_P(Tier1, FuzzDifferentialTest, ::testing::Range(1, 6));

// ---- Slow tier: the whole expanded suite through the full lattice at each
// workload's default symbolic width (cksum_wide runs all 72 bytes here,
// exercising the SupportSet overflow vector and batch stealing at scale).
// CMakeLists maps *Slow* to the `slow` ctest label; the tier-1 jobs exclude
// it and the dedicated lattice CI job runs it with a long --timeout.

class SlowSuiteDifferentialTest : public ::testing::TestWithParam<Workload> {};

TEST_P(SlowSuiteDifferentialTest, FullLatticeAtDefaultWidth) {
  const Workload& workload = GetParam();
  DiffOptions options;
  options.limits.max_paths = 400000;
  options.limits.max_seconds = 120;  // per cell; every suite program exhausts well under
  DiffReport report = RunDifferential(workload, /*sym_bytes=*/0, options);
  EXPECT_TRUE(report.ok) << report.diff;
  for (const auto& cell : report.cells) {
    EXPECT_TRUE(cell.signature.exhausted) << cell.cell.Name();
  }
}

INSTANTIATE_TEST_SUITE_P(Lattice, SlowSuiteDifferentialTest,
                         ::testing::ValuesIn(CoreutilsSuite()),
                         [](const ::testing::TestParamInfo<Workload>& info) {
                           return info.param.name;
                         });

// Slow-tier slicing sweep: the whole suite at default widths through the
// slice-vs-whole axis crossed with both worker counts and both search
// strategies (the scheduler axes most likely to perturb per-slice runs).
class SlowSlicingDifferentialTest : public ::testing::TestWithParam<Workload> {};

TEST_P(SlowSlicingDifferentialTest, SliceModeAgreesAtDefaultWidth) {
  const Workload& workload = GetParam();
  DiffOptions options;
  options.slicing = {false, true};
  options.limits.max_paths = 400000;
  options.limits.max_seconds = 120;
  DiffReport report = RunDifferential(workload, /*sym_bytes=*/0, options);
  EXPECT_TRUE(report.ok) << report.diff;
}

INSTANTIATE_TEST_SUITE_P(Lattice, SlowSlicingDifferentialTest,
                         ::testing::ValuesIn(CoreutilsSuite()),
                         [](const ::testing::TestParamInfo<Workload>& info) {
                           return info.param.name;
                         });

// More fuzz depth for the slow tier: fresh seeds, 4 symbolic bytes.
class SlowFuzzDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(SlowFuzzDifferentialTest, GeneratedKernelAgreesAcrossTheLattice) {
  KernelGenOptions gen;
  gen.seed = 1000 + static_cast<uint64_t>(GetParam());
  std::string source = GenerateMiniCKernel(gen);
  SCOPED_TRACE(source);
  DiffOptions options;
  options.limits.max_seconds = 120;
  DiffReport report = RunDifferential("slow_fuzz_" + std::to_string(GetParam()), source,
                                      /*sym_bytes=*/4, options);
  EXPECT_TRUE(report.ok) << report.diff;
}

INSTANTIATE_TEST_SUITE_P(Lattice, SlowFuzzDifferentialTest, ::testing::Range(0, 16));

}  // namespace
}  // namespace overify
