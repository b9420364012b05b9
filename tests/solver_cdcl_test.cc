// CDCL machinery in the core backtracking solver (src/symex/solver.cc,
// docs/solver.md): clause learning, conflict-directed backjumping, Luby
// restarts, caller-supplied domain facts, and cross-query clause reuse.
//
// The load-bearing property throughout is docs/solver.md#determinism:
// learning may only ever skip NON-models, so the verdict and the first
// model in the fixed (level, value) order are those of an exhaustive
// search. The randomized suite checks that against an exhaustive
// reference; CMakeLists labels this binary "tier1;solver" so the solver CI
// job can run it alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/support/rng.h"
#include "src/symex/solver.h"
#include "src/testing/diff_harness.h"
#include "src/workloads/workloads.h"

namespace overify {
namespace {

class CdclTest : public ::testing::Test {
 protected:
  ExprContext ctx;

  const Expr* Sym(unsigned i) { return ctx.Symbol(i); }
  const Expr* C(uint64_t v, unsigned w = 8) { return ctx.Constant(v, w); }
  const Expr* W(unsigned i) { return ctx.ZExt(Sym(i), 32); }

  // True iff `bytes` satisfies every constraint.
  bool Satisfies(const std::vector<const Expr*>& constraints,
                 const std::vector<uint8_t>& bytes) {
    ctx.NewEvaluation();
    for (const Expr* c : constraints) {
      if (ctx.Evaluate(c, bytes) == 0) {
        return false;
      }
    }
    return true;
  }
};

// Random constraints over two byte symbols, weighted toward the shapes the
// core search's pruning layers act on: unary bounds (domain sweep), byte
// equalities, and non-unary arithmetic relations (clause learning fodder).
const Expr* RandomConstraint2(ExprContext& ctx, Rng& rng) {
  auto sym = [&] { return ctx.Symbol(static_cast<unsigned>(rng.NextBelow(2))); };
  auto wide = [&](const Expr* e) { return ctx.ZExt(e, 32); };
  auto byte = [&] { return ctx.Constant(rng.NextBelow(256), 8); };
  switch (rng.NextBelow(6)) {
    case 0:
      return ctx.Compare(ICmpPredicate::kEq, sym(), byte());
    case 1:
      return ctx.Compare(rng.NextBool() ? ICmpPredicate::kULT : ICmpPredicate::kULE, sym(),
                         byte());
    case 2:
      return ctx.Compare(rng.NextBool() ? ICmpPredicate::kUGT : ICmpPredicate::kUGE, sym(),
                         byte());
    case 3: {  // sum / xor relation (support spans both symbols)
      const Expr* lhs = ctx.Binary(rng.NextBool() ? ExprKind::kAdd : ExprKind::kXor,
                                   wide(ctx.Symbol(0)), wide(ctx.Symbol(1)));
      return ctx.Compare(rng.NextBool() ? ICmpPredicate::kEq : ICmpPredicate::kULE, lhs,
                         ctx.Constant(rng.NextBelow(520), 32));
    }
    case 4: {  // product relation (conflict-heavy)
      const Expr* lhs =
          ctx.Binary(ExprKind::kMul, wide(ctx.Symbol(0)), wide(ctx.Symbol(1)));
      return ctx.Compare(ICmpPredicate::kEq, lhs, ctx.Constant(rng.NextBelow(1024), 32));
    }
    default:
      return ctx.Not(ctx.Compare(rng.NextBool() ? ICmpPredicate::kULT : ICmpPredicate::kEq,
                                 sym(), byte()));
  }
}

// ---- Soundness against an exhaustive reference.

// The CDCL core's verdict must match brute-force enumeration of all 256^2
// assignments, and every SAT model must actually satisfy the original set.
TEST_F(CdclTest, RandomizedVerdictsMatchExhaustiveReference) {
  Rng rng(0xcdc1cdc1);
  for (int round = 0; round < 120; ++round) {
    std::vector<const Expr*> constraints;
    const size_t n = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < n; ++i) {
      constraints.push_back(RandomConstraint2(ctx, rng));
    }

    bool reference_sat = false;
    std::vector<uint8_t> bytes(2);
    for (unsigned a = 0; a < 256 && !reference_sat; ++a) {
      for (unsigned b = 0; b < 256; ++b) {
        bytes[0] = static_cast<uint8_t>(a);
        bytes[1] = static_cast<uint8_t>(b);
        if (Satisfies(constraints, bytes)) {
          reference_sat = true;
          break;
        }
      }
    }

    CoreSolver core;
    std::vector<uint8_t> model;
    SatResult got = core.CheckSat(ctx, constraints, &model);
    ASSERT_NE(got, SatResult::kUnknown) << "round " << round;
    EXPECT_EQ(got == SatResult::kSat, reference_sat) << "round " << round;
    if (got == SatResult::kSat) {
      model.resize(2, 0);
      EXPECT_TRUE(Satisfies(constraints, model)) << "round " << round;
    }
  }
}

// ---- Backjumping.

// s0 >= 200, s1 unconstrained, s2 == s0 with s2 < 100: every s2 value
// conflicts through constraints whose support is {s0, s2} only, so
// exhausting the s2 level must jump straight over the s1 level back to s0
// (a non-chronological jump, counted once per skipped-level unwind).
TEST_F(CdclTest, BackjumpSkipsAnUnconstrainedMiddleLevel) {
  std::vector<const Expr*> constraints = {
      ctx.Compare(ICmpPredicate::kUGE, Sym(0), C(200)),
      ctx.Compare(ICmpPredicate::kULE, Sym(1), C(255)),  // keeps s1 in support
      ctx.Compare(ICmpPredicate::kEq, Sym(2), Sym(0)),
      ctx.Compare(ICmpPredicate::kULT, Sym(2), C(100)),
  };
  CoreSolver core;
  EXPECT_EQ(core.CheckSat(ctx, constraints, nullptr), SatResult::kUnsat);
  EXPECT_GT(core.conflicts(), 0u);
  EXPECT_GT(core.backjumps(), 0u);
}

// ---- Clause store bounds and export.

TEST_F(CdclTest, ExportedClausesRespectTheConfiguredBounds) {
  // s0 * s1 == 397 (prime, > 255) is UNSAT only after refuting every pair:
  // a conflict per candidate, so the store sees heavy traffic.
  std::vector<const Expr*> constraints = {
      ctx.Compare(ICmpPredicate::kEq, ctx.Binary(ExprKind::kMul, W(0), W(1)), C(397, 32)),
  };
  CoreSolver core;
  std::vector<LearnedClause> exported;
  CoreSolver::SearchExtras extras;
  extras.learned = &exported;
  EXPECT_EQ(core.CheckSat(ctx, constraints, nullptr, 1 << 22, nullptr, nullptr, &extras),
            SatResult::kUnsat);
  EXPECT_GT(core.conflicts(), 0u);
  // Far more clauses than the store holds (kClauseCapacity = 512), so it
  // compacts; Luby restarts fire up to their cap (kMaxRestarts = 24).
  EXPECT_GT(core.learned(), 512u);
  EXPECT_GT(core.restarts(), 0u);
  EXPECT_LE(core.restarts(), 24u);
  // solver.cc: kMaxExportClauses = 16, kMaxClauseLiterals = 8.
  EXPECT_LE(exported.size(), 16u);
  for (const LearnedClause& clause : exported) {
    EXPECT_LE(clause.lits.size(), 8u);
    EXPECT_TRUE(std::is_sorted(clause.lits.begin(), clause.lits.end()))
        << "clause literals must ascend by symbol for cross-query matching";
  }
}

// ---- Caller-supplied domain facts (docs/solver.md#domains).

// Range facts from SearchExtras excise values from the per-level domains
// before any candidate is evaluated. The constraint here is non-unary, so
// the in-core unary sweep cannot discover the bounds on its own — the
// candidate-count gap isolates the caller-fact path. (In production the
// preprocessor only passes facts implied by the constraint set; this test
// supplies them directly and checks the mechanics.)
TEST_F(CdclTest, CallerRangeFactsNarrowTheSearchDomains) {
  std::vector<const Expr*> constraints = {
      ctx.Compare(ICmpPredicate::kEq, ctx.Binary(ExprKind::kAdd, W(0), W(1)), C(210, 32)),
  };
  std::vector<UInterval> ranges = {{100, 110}, {100, 110}};
  CoreSolver::SearchExtras extras;
  extras.ranges = &ranges;

  CoreSolver narrowed, blind;
  std::vector<uint8_t> model;
  ASSERT_EQ(narrowed.CheckSat(ctx, constraints, &model, 1 << 22, nullptr, nullptr, &extras),
            SatResult::kSat);
  model.resize(2, 0);
  EXPECT_TRUE(Satisfies(constraints, model));
  EXPECT_GE(model[0], 100);
  EXPECT_LE(model[0], 110);

  ASSERT_EQ(blind.CheckSat(ctx, constraints, nullptr), SatResult::kSat);
  EXPECT_LT(narrowed.candidates_tried(), blind.candidates_tried());
}

// The unary-constraint sweep narrows domains before the search proper:
// with s0 < 10 the product enumeration is bounded by the narrowed domain,
// nowhere near the naive 256 x 256.
TEST_F(CdclTest, UnaryConstraintSweepNarrowsDomainsBeforeSearch) {
  std::vector<const Expr*> constraints = {
      ctx.Compare(ICmpPredicate::kULT, Sym(0), C(10)),
      ctx.Compare(ICmpPredicate::kEq, ctx.Binary(ExprKind::kAdd, W(0), W(1)), C(264, 32)),
  };
  CoreSolver core;
  std::vector<uint8_t> model;
  ASSERT_EQ(core.CheckSat(ctx, constraints, &model), SatResult::kSat);
  model.resize(2, 0);
  EXPECT_TRUE(Satisfies(constraints, model));
  EXPECT_LT(core.candidates_tried(), 600u) << "unary sweep failed to narrow s0";
}

// ---- Clause consultation and seeding (docs/solver.md#reuse).

// A seed clause matching the search's would-be first model forces the
// solver to skip it and land on the next model in the fixed order, with the
// skip counted as a learned-clause hit. (The seed here is deliberately
// false as a nogood — seeds only ever PRUNE, so an unsound seed changes the
// model but exercises exactly the consultation path.)
TEST_F(CdclTest, SeededClauseSkipsItsAssignment) {
  std::vector<const Expr*> constraints = {
      ctx.Compare(ICmpPredicate::kEq, ctx.Binary(ExprKind::kAdd, W(0), W(1)), C(10, 32)),
  };
  CoreSolver plain;
  std::vector<uint8_t> first;
  ASSERT_EQ(plain.CheckSat(ctx, constraints, &first), SatResult::kSat);
  first.resize(2, 0);

  LearnedClause veto;
  veto.lits = {{0, first[0]}, {1, first[1]}};
  std::vector<const LearnedClause*> seeds = {&veto};
  CoreSolver::SearchExtras extras;
  extras.seeds = &seeds;

  CoreSolver seeded;
  std::vector<uint8_t> second;
  ASSERT_EQ(seeded.CheckSat(ctx, constraints, &second, 1 << 22, nullptr, nullptr, &extras),
            SatResult::kSat);
  second.resize(2, 0);
  EXPECT_NE(second, first);
  EXPECT_TRUE(Satisfies(constraints, second));
  EXPECT_GE(seeded.learned_hits(), 1u);
}

// Cross-query reuse through the chain: a follow-up query over a superset
// of an earlier SAT query's constraints starts from the cached entry's
// clauses, and the verdicts stay exact.
TEST_F(CdclTest, ChainClauseReuseKeepsVerdicts) {
  const Expr* product =
      ctx.Compare(ICmpPredicate::kEq, ctx.Binary(ExprKind::kMul, W(0), W(1)), C(391, 32));
  const Expr* cap = ctx.Compare(ICmpPredicate::kULT, Sym(0), C(17));  // kills 17 * 23

  SolverChain chain(ctx);
  std::vector<const Expr*> q1 = {product};
  std::vector<const Expr*> q2 = {product, cap};
  std::vector<uint8_t> model;
  ASSERT_EQ(chain.CheckSat(q1, &model), SatResult::kSat);
  model.resize(2, 0);
  EXPECT_TRUE(Satisfies(q1, model));
  EXPECT_EQ(chain.CheckSat(q2, nullptr), SatResult::kUnsat);

  EXPECT_GT(chain.metrics().Get(Counter::kSolverCoreConflicts), 0u);
  EXPECT_GT(chain.metrics().Get(Counter::kSolverCoreLearned), 0u);
}

// ---- Engine-level determinism with learning enabled.

// 1-vs-4-worker runs must be bit-identical with learning on: per-worker
// clause stores and cross-query seeding are schedule-dependent, so this
// holds only because pruning cannot change verdicts and bug-report models
// come from CheckSatCanonical (no seeds, no ranges). The full lattice
// checks this suite-wide; this is the focused solver-level slice.
TEST(CdclEngineTest, WorkersAgreeBitIdenticalWithLearningEnabled) {
  difftest::DiffOptions options;
  options.levels = {OptLevel::kOverify};
  options.jobs = {1, 4};
  options.strategies = {SearchStrategy::kDfs};
  options.limits.max_seconds = 60;
  difftest::DiffReport report = difftest::RunDifferential("cdcl_workers", R"(
    int umain(unsigned char *in, int n) {
      int d = in[0] - 'a';
      if (in[1] == 'q') { return in[2] / d; }   /* d == 0 when in[0] == 'a' */
      return 0;
    }
  )",
                                                          3, options);
  EXPECT_TRUE(report.ok) << report.diff;
  ASSERT_EQ(report.cells.size(), 2u);
  for (const auto& cell : report.cells) {
    ASSERT_FALSE(cell.signature.bugs.empty()) << cell.cell.Name();
    EXPECT_TRUE(cell.signature.bugs.front().confirmed) << cell.cell.Name();
  }
}

// ---- Canary (registered separately in CMakeLists: label `solver` only).

// The solver-hostile workload that motivated the CDCL core: factor at its
// full default width runs trial-division srem queries whose UNSAT cores
// span several bytes. The run must exhaust under a wall ceiling — a
// regression in learning, domain seeding, or restart gating shows up here
// as a blown deadline long before the full lattice job notices.
TEST(CdclCanaryTest, FactorStyleDivisionAtFullWidthExhausts) {
  const Workload* workload = FindWorkload("factor");
  ASSERT_NE(workload, nullptr);
  difftest::DiffOptions options;
  options.levels = {OptLevel::kOverify};
  options.jobs = {1};
  options.strategies = {SearchStrategy::kDfs};
  options.limits.max_paths = 400000;
  options.limits.max_seconds = 300;  // wall ceiling; Release exhausts far under
  difftest::DiffReport report = difftest::RunDifferential(*workload, /*sym_bytes=*/0, options);
  EXPECT_TRUE(report.ok) << report.diff;
  for (const auto& cell : report.cells) {
    EXPECT_TRUE(cell.signature.exhausted) << cell.cell.Name();
  }
}

}  // namespace
}  // namespace overify
