// Property-based tests over randomized inputs:
//  - the shared fold kernel matches host C arithmetic on every op and width,
//  - the canonicalizing expression builder never changes semantics,
//  - the core solver agrees with brute-force enumeration (complete + sound),
//  - printer -> parser round-trips the IR of every workload at -O0 and
//    -OVERIFY.
#include <gtest/gtest.h>

#include "src/driver/compiler.h"
#include "src/ir/fold.h"
#include "src/ir/parser.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/support/rng.h"
#include "src/symex/solver.h"
#include "src/workloads/workloads.h"

namespace overify {
namespace {

// ---- Fold kernel vs host semantics ----------------------------------------

template <typename Signed, typename Unsigned>
void CheckFoldAgainstHost(Opcode opcode, uint64_t a, uint64_t b, unsigned bits) {
  auto folded = FoldBinary(opcode, bits, a, b);
  Unsigned ua = static_cast<Unsigned>(a);
  Unsigned ub = static_cast<Unsigned>(b);
  Signed sa = static_cast<Signed>(ua);
  Signed sb = static_cast<Signed>(ub);
  switch (opcode) {
    case Opcode::kAdd:
      EXPECT_EQ(*folded, TruncateToWidth(static_cast<uint64_t>(Unsigned(ua + ub)), bits));
      break;
    case Opcode::kSub:
      EXPECT_EQ(*folded, TruncateToWidth(static_cast<uint64_t>(Unsigned(ua - ub)), bits));
      break;
    case Opcode::kMul:
      EXPECT_EQ(*folded, TruncateToWidth(static_cast<uint64_t>(Unsigned(ua * ub)), bits));
      break;
    case Opcode::kUDiv:
      if (ub == 0) {
        EXPECT_FALSE(folded.has_value());
      } else {
        EXPECT_EQ(*folded, TruncateToWidth(static_cast<uint64_t>(Unsigned(ua / ub)), bits));
      }
      break;
    case Opcode::kURem:
      if (ub == 0) {
        EXPECT_FALSE(folded.has_value());
      } else {
        EXPECT_EQ(*folded, TruncateToWidth(static_cast<uint64_t>(Unsigned(ua % ub)), bits));
      }
      break;
    case Opcode::kSDiv:
      if (sb == 0 || (sb == -1 && sa == std::numeric_limits<Signed>::min())) {
        EXPECT_FALSE(folded.has_value());
      } else {
        EXPECT_EQ(*folded,
                  TruncateToWidth(static_cast<uint64_t>(Unsigned(Signed(sa / sb))), bits));
      }
      break;
    case Opcode::kSRem:
      if (sb == 0) {
        EXPECT_FALSE(folded.has_value());
      } else if (sb == -1) {
        EXPECT_EQ(*folded, 0u);  // defined as 0 (even for INT_MIN % -1)
      } else {
        EXPECT_EQ(*folded,
                  TruncateToWidth(static_cast<uint64_t>(Unsigned(Signed(sa % sb))), bits));
      }
      break;
    case Opcode::kAnd:
      EXPECT_EQ(*folded, TruncateToWidth(static_cast<uint64_t>(Unsigned(ua & ub)), bits));
      break;
    case Opcode::kOr:
      EXPECT_EQ(*folded, TruncateToWidth(static_cast<uint64_t>(Unsigned(ua | ub)), bits));
      break;
    case Opcode::kXor:
      EXPECT_EQ(*folded, TruncateToWidth(static_cast<uint64_t>(Unsigned(ua ^ ub)), bits));
      break;
    default:
      break;
  }
}

TEST(FoldPropertyTest, MatchesHostArithmeticOn32Bits) {
  Rng rng(101);
  const Opcode ops[] = {Opcode::kAdd,  Opcode::kSub,  Opcode::kMul,
                        Opcode::kUDiv, Opcode::kSDiv, Opcode::kURem,
                        Opcode::kSRem, Opcode::kAnd,  Opcode::kOr,
                        Opcode::kXor};
  for (int trial = 0; trial < 4000; ++trial) {
    uint64_t a = rng.Next();
    uint64_t b = rng.NextBool() ? rng.Next() : rng.NextBelow(5);  // exercise 0 divisors
    CheckFoldAgainstHost<int32_t, uint32_t>(ops[rng.NextBelow(10)], a, b, 32);
  }
}

TEST(FoldPropertyTest, MatchesHostArithmeticOn8Bits) {
  Rng rng(202);
  const Opcode ops[] = {Opcode::kAdd, Opcode::kSub, Opcode::kMul, Opcode::kSDiv,
                        Opcode::kAnd, Opcode::kOr,  Opcode::kXor};
  for (int trial = 0; trial < 4000; ++trial) {
    CheckFoldAgainstHost<int8_t, uint8_t>(ops[rng.NextBelow(7)], rng.Next() & 0xFF,
                                          rng.Next() & 0xFF, 8);
  }
}

TEST(FoldPropertyTest, ICmpMatchesHost) {
  Rng rng(303);
  for (int trial = 0; trial < 4000; ++trial) {
    uint64_t a = rng.Next() & 0xFFFFFFFF;
    uint64_t b = rng.Next() & 0xFFFFFFFF;
    auto ua = static_cast<uint32_t>(a);
    auto ub = static_cast<uint32_t>(b);
    auto sa = static_cast<int32_t>(ua);
    auto sb = static_cast<int32_t>(ub);
    EXPECT_EQ(FoldICmp(ICmpPredicate::kEq, 32, a, b), ua == ub);
    EXPECT_EQ(FoldICmp(ICmpPredicate::kULT, 32, a, b), ua < ub);
    EXPECT_EQ(FoldICmp(ICmpPredicate::kULE, 32, a, b), ua <= ub);
    EXPECT_EQ(FoldICmp(ICmpPredicate::kUGT, 32, a, b), ua > ub);
    EXPECT_EQ(FoldICmp(ICmpPredicate::kSLT, 32, a, b), sa < sb);
    EXPECT_EQ(FoldICmp(ICmpPredicate::kSGE, 32, a, b), sa >= sb);
  }
}

TEST(FoldPropertyTest, CastsMatchHost) {
  Rng rng(404);
  for (int trial = 0; trial < 2000; ++trial) {
    uint64_t v = rng.Next();
    EXPECT_EQ(FoldCast(Opcode::kZExt, 8, 32, v), static_cast<uint32_t>(static_cast<uint8_t>(v)));
    EXPECT_EQ(FoldCast(Opcode::kSExt, 8, 32, v),
              static_cast<uint32_t>(static_cast<int32_t>(static_cast<int8_t>(v))));
    EXPECT_EQ(FoldCast(Opcode::kTrunc, 64, 16, v), static_cast<uint16_t>(v));
  }
}

// ---- Expression builder soundness ------------------------------------------

// Builds a random expression over `num_symbols` bytes and checks that the
// canonicalized DAG evaluates identically to a shadow interpretation built
// alongside it.
struct ShadowExpr {
  const Expr* expr;
  // Evaluates the *intended* semantics directly.
  uint64_t Eval(const std::vector<uint8_t>& bytes, ExprContext& ctx) const {
    ctx.NewEvaluation();
    return ctx.Evaluate(expr, bytes);
  }
};

const Expr* RandomExpr(ExprContext& ctx, Rng& rng, unsigned num_symbols, int depth,
                       unsigned width) {
  if (depth <= 0 || rng.NextBelow(4) == 0) {
    if (rng.NextBool()) {
      return ctx.Constant(rng.Next(), width);
    }
    const Expr* sym = ctx.Symbol(static_cast<unsigned>(rng.NextBelow(num_symbols)));
    return width == 8 ? sym : ctx.ZExt(sym, width);
  }
  switch (rng.NextBelow(6)) {
    case 0:
      return ctx.Binary(ExprKind::kAdd, RandomExpr(ctx, rng, num_symbols, depth - 1, width),
                        RandomExpr(ctx, rng, num_symbols, depth - 1, width));
    case 1:
      return ctx.Binary(ExprKind::kMul, RandomExpr(ctx, rng, num_symbols, depth - 1, width),
                        RandomExpr(ctx, rng, num_symbols, depth - 1, width));
    case 2:
      return ctx.Binary(ExprKind::kAnd, RandomExpr(ctx, rng, num_symbols, depth - 1, width),
                        RandomExpr(ctx, rng, num_symbols, depth - 1, width));
    case 3:
      return ctx.Binary(ExprKind::kXor, RandomExpr(ctx, rng, num_symbols, depth - 1, width),
                        RandomExpr(ctx, rng, num_symbols, depth - 1, width));
    case 4: {
      const Expr* cond =
          ctx.Compare(ICmpPredicate::kULT,
                      RandomExpr(ctx, rng, num_symbols, depth - 1, width),
                      RandomExpr(ctx, rng, num_symbols, depth - 1, width));
      return ctx.Select(cond, RandomExpr(ctx, rng, num_symbols, depth - 1, width),
                        RandomExpr(ctx, rng, num_symbols, depth - 1, width));
    }
    default: {
      const Expr* inner = RandomExpr(ctx, rng, num_symbols, depth - 1, width);
      if (width > 8 && rng.NextBool()) {
        return ctx.ZExt(ctx.Trunc(inner, 8), width);
      }
      return ctx.Binary(ExprKind::kSub, inner,
                        RandomExpr(ctx, rng, num_symbols, depth - 1, width));
    }
  }
}

TEST(ExprPropertyTest, IntervalAbstractionIsSound) {
  // For random exprs and random partial assignments, the concrete value of
  // every completion must lie inside the interval.
  Rng rng(505);
  ExprContext ctx;
  for (int trial = 0; trial < 300; ++trial) {
    const unsigned kSymbols = 3;
    const Expr* e = RandomExpr(ctx, rng, kSymbols, 3, 32);
    std::vector<uint8_t> bytes(kSymbols);
    std::vector<bool> assigned(kSymbols);
    for (unsigned i = 0; i < kSymbols; ++i) {
      bytes[i] = static_cast<uint8_t>(rng.Next());
      assigned[i] = rng.NextBool();
    }
    ctx.NewIntervalRound();
    ExprContext::UInterval bound = ctx.EvalInterval(e, bytes, assigned);

    // Sample completions.
    for (int completion = 0; completion < 16; ++completion) {
      std::vector<uint8_t> full = bytes;
      for (unsigned i = 0; i < kSymbols; ++i) {
        if (!assigned[i]) {
          full[i] = static_cast<uint8_t>(rng.Next());
        }
      }
      ctx.NewEvaluation();
      uint64_t value = ctx.Evaluate(e, full);
      EXPECT_GE(value, bound.lo);
      EXPECT_LE(value, bound.hi);
    }
  }
}

// ---- SupportSet bitmask vs reference std::set --------------------------------

void ReferenceSupport(const Expr* e, std::set<unsigned>& out) {
  if (e->kind() == ExprKind::kSymbol) {
    out.insert(e->symbol_index());
  }
  for (const Expr* child : {e->a(), e->b(), e->c()}) {
    if (child != nullptr) {
      ReferenceSupport(child, out);
    }
  }
}

TEST(SupportPropertyTest, BitmaskAgreesWithReferenceSet) {
  // 80 symbols exercises both the bitmask word (indices < 64) and the
  // overflow vector (indices >= 64).
  Rng rng(707);
  ExprContext ctx;
  for (int trial = 0; trial < 400; ++trial) {
    const Expr* e = RandomExpr(ctx, rng, 80, 4, 32);
    std::set<unsigned> reference;
    ReferenceSupport(e, reference);
    EXPECT_EQ(e->Support().ToSet(), reference);
    EXPECT_EQ(e->Support().Size(), reference.size());
    for (unsigned sym = 0; sym < 90; ++sym) {
      EXPECT_EQ(e->Support().Contains(sym), reference.count(sym) != 0) << "symbol " << sym;
    }
    if (!reference.empty()) {
      EXPECT_EQ(e->Support().MaxSymbol(), *reference.rbegin());
    }
  }
}

TEST(SupportPropertyTest, IntersectsAgreesWithReferenceSet) {
  Rng rng(808);
  ExprContext ctx;
  for (int trial = 0; trial < 300; ++trial) {
    const Expr* x = RandomExpr(ctx, rng, 80, 3, 32);
    const Expr* y = RandomExpr(ctx, rng, 80, 3, 32);
    std::set<unsigned> sx;
    std::set<unsigned> sy;
    ReferenceSupport(x, sx);
    ReferenceSupport(y, sy);
    bool reference_intersects = false;
    for (unsigned sym : sx) {
      if (sy.count(sym) != 0) {
        reference_intersects = true;
        break;
      }
    }
    EXPECT_EQ(x->Support().Intersects(y->Support()), reference_intersects);
    EXPECT_EQ(y->Support().Intersects(x->Support()), reference_intersects);
  }
}

// ---- FilterIndependent vs reference std::set implementation ------------------

std::vector<const Expr*> ReferenceFilterIndependent(
    const std::vector<const Expr*>& constraints, const Expr* seed) {
  std::set<unsigned> symbols;
  ReferenceSupport(seed, symbols);
  std::vector<bool> taken(constraints.size(), false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < constraints.size(); ++i) {
      if (taken[i]) {
        continue;
      }
      std::set<unsigned> support;
      ReferenceSupport(constraints[i], support);
      bool intersects = false;
      for (unsigned sym : support) {
        if (symbols.count(sym) != 0) {
          intersects = true;
          break;
        }
      }
      if (intersects) {
        taken[i] = true;
        symbols.insert(support.begin(), support.end());
        changed = true;
      }
    }
  }
  std::vector<const Expr*> filtered;
  for (size_t i = 0; i < constraints.size(); ++i) {
    if (taken[i]) {
      filtered.push_back(constraints[i]);
    }
  }
  return filtered;
}

TEST(IndependencePropertyTest, FilterMatchesReferenceImplementation) {
  Rng rng(909);
  ExprContext ctx;
  for (int trial = 0; trial < 200; ++trial) {
    // Between 1 and 80 constraints (exercising both the <=64 bitmask path
    // and the fallback), over up to 70 symbols (exercising mask overflow).
    size_t count = 1 + rng.NextBelow(80);
    std::vector<const Expr*> constraints;
    for (size_t i = 0; i < count; ++i) {
      const Expr* lhs = RandomExpr(ctx, rng, 70, 2, 32);
      const Expr* rhs = RandomExpr(ctx, rng, 70, 2, 32);
      constraints.push_back(ctx.Compare(ICmpPredicate::kULT, lhs, rhs));
    }
    const Expr* seed = RandomExpr(ctx, rng, 70, 2, 8);
    EXPECT_EQ(FilterIndependent(constraints, seed),
              ReferenceFilterIndependent(constraints, seed));
  }
}

// ---- Solver vs brute force ---------------------------------------------------

TEST(SolverPropertyTest, AgreesWithBruteForceOnTwoBytes) {
  Rng rng(606);
  ExprContext ctx;
  for (int trial = 0; trial < 120; ++trial) {
    // 1-3 random boolean constraints over 2 symbolic bytes.
    std::vector<const Expr*> constraints;
    size_t count = 1 + rng.NextBelow(3);
    for (size_t i = 0; i < count; ++i) {
      const Expr* lhs = RandomExpr(ctx, rng, 2, 2, 32);
      const Expr* rhs = RandomExpr(ctx, rng, 2, 2, 32);
      ICmpPredicate preds[] = {ICmpPredicate::kEq, ICmpPredicate::kULT, ICmpPredicate::kSLE,
                               ICmpPredicate::kNe};
      constraints.push_back(ctx.Compare(preds[rng.NextBelow(4)], lhs, rhs));
    }

    // Brute force ground truth.
    bool brute_sat = false;
    std::vector<uint8_t> bytes(2);
    for (int a = 0; a < 256 && !brute_sat; ++a) {
      for (int b = 0; b < 256 && !brute_sat; ++b) {
        bytes[0] = static_cast<uint8_t>(a);
        bytes[1] = static_cast<uint8_t>(b);
        ctx.NewEvaluation();
        bool all = true;
        for (const Expr* c : constraints) {
          if (ctx.Evaluate(c, bytes) == 0) {
            all = false;
            break;
          }
        }
        brute_sat = all;
      }
    }

    CoreSolver solver;
    std::vector<uint8_t> model;
    SatResult result = solver.CheckSat(ctx, constraints, &model);
    ASSERT_NE(result, SatResult::kUnknown) << "budget must suffice for 2 bytes";
    EXPECT_EQ(result == SatResult::kSat, brute_sat);
    if (result == SatResult::kSat) {
      // The model must actually satisfy the constraints.
      model.resize(2, 0);
      ctx.NewEvaluation();
      for (const Expr* c : constraints) {
        EXPECT_EQ(ctx.Evaluate(c, model), 1u);
      }
    }
  }
}

// ---- Solver-chain regression: verdicts unchanged through the fast paths ------

TEST(SolverChainPropertyTest, ChainAgreesWithCoreAndModelsAreValid) {
  // The chain's cache/reuse/independence layers must never change a verdict:
  // for random constraint systems, SolverChain (asked twice, so the second
  // round exercises the counterexample cache) agrees with a fresh CoreSolver,
  // and every kSat model actually satisfies the constraints.
  Rng rng(1111);
  ExprContext ctx;
  SolverChain chain(ctx);
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<const Expr*> constraints;
    size_t count = 1 + rng.NextBelow(3);
    for (size_t i = 0; i < count; ++i) {
      const Expr* lhs = RandomExpr(ctx, rng, 2, 2, 32);
      const Expr* rhs = RandomExpr(ctx, rng, 2, 2, 32);
      ICmpPredicate preds[] = {ICmpPredicate::kEq, ICmpPredicate::kULT, ICmpPredicate::kSLE,
                               ICmpPredicate::kNe};
      constraints.push_back(ctx.Compare(preds[rng.NextBelow(4)], lhs, rhs));
    }

    CoreSolver reference;
    SatResult expected = reference.CheckSat(ctx, constraints, nullptr);
    ASSERT_NE(expected, SatResult::kUnknown);

    for (int round = 0; round < 2; ++round) {
      std::vector<uint8_t> model;
      SatResult got = chain.CheckSat(constraints, &model);
      EXPECT_EQ(got, expected) << "trial " << trial << " round " << round;
      if (got == SatResult::kSat) {
        model.resize(2, 0);
        ctx.NewEvaluation();
        for (const Expr* c : constraints) {
          EXPECT_EQ(ctx.Evaluate(c, model), 1u) << "trial " << trial << " round " << round;
        }
      }
    }
  }
  EXPECT_GE(chain.metrics().Get(Counter::kSolverCacheHits), 1u);
}

// ---- Printer/parser round trip over real modules ----------------------------

TEST(RoundTripPropertyTest, WorkloadsAtO0) {
  for (const Workload& workload : CoreutilsSuite()) {
    Compiler compiler;
    CompileResult compiled = compiler.Compile(workload.source, OptLevel::kO0, workload.name);
    ASSERT_TRUE(compiled.ok) << workload.name;
    std::string printed = PrintModule(*compiled.module);
    DiagnosticEngine diags;
    auto reparsed = ParseModule(printed, diags);
    ASSERT_NE(reparsed, nullptr) << workload.name << "\n" << diags.ToString();
    EXPECT_TRUE(VerifyModule(*reparsed).empty()) << workload.name;
    EXPECT_EQ(PrintModule(*reparsed), printed) << workload.name;
  }
}

TEST(RoundTripPropertyTest, WorkloadsAtOverify) {
  // The optimized IR exercises selects, phis from unswitching, checks, etc.
  for (const Workload& workload : CoreutilsSuite()) {
    Compiler compiler;
    CompileResult compiled =
        compiler.Compile(workload.source, OptLevel::kOverify, workload.name);
    ASSERT_TRUE(compiled.ok) << workload.name;
    std::string printed = PrintModule(*compiled.module);
    DiagnosticEngine diags;
    auto reparsed = ParseModule(printed, diags);
    ASSERT_NE(reparsed, nullptr) << workload.name << "\n" << diags.ToString();
    EXPECT_EQ(PrintModule(*reparsed), printed) << workload.name;
  }
}

}  // namespace
}  // namespace overify
