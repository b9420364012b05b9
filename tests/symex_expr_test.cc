// Tests for the symbolic expression DAG and its canonicalizing builder.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/ir/constant.h"
#include "src/symex/expr.h"

namespace overify {
namespace {

TEST(ExprTest, ConstantsInterned) {
  ExprContext ctx;
  EXPECT_EQ(ctx.Constant(5, 32), ctx.Constant(5, 32));
  EXPECT_NE(ctx.Constant(5, 32), ctx.Constant(5, 64));
  EXPECT_EQ(ctx.Constant(0x1FF, 8), ctx.Constant(0xFF, 8));  // truncation
  EXPECT_TRUE(ctx.True()->IsTrue());
  EXPECT_TRUE(ctx.False()->IsFalse());
}

// The context's constant-node table must hand out exactly the node the
// interner holds for (width, truncated value), so hash-consing identity is
// unchanged whether a literal comes from the table or from a fresh intern.
TEST(ExprTest, ConstantTableReturnsTheInternedNode) {
  for (bool shared : {false, true}) {
    ExprInterner concurrent(/*concurrent=*/true);
    ExprContext ctx(shared ? &concurrent : nullptr);
    auto interned = [&](uint64_t value, unsigned width) {
      ExprInterner::Key key;
      key.kind = ExprKind::kConstant;
      key.width = width;
      key.constant = TruncateToWidth(value, width);
      return ctx.interner().Intern(key);
    };
    for (unsigned width : {1u, 8u, 16u, 32u, 64u}) {
      for (uint64_t value : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{255}, uint64_t{256},
                             uint64_t{0xdeadbeef}, ~uint64_t{0}}) {
        const Expr* first = ctx.Constant(value, width);
        EXPECT_EQ(first, interned(value, width)) << value << "/" << width;
        EXPECT_EQ(ctx.Constant(value, width), first) << value << "/" << width;
        EXPECT_EQ(first->width(), width);
        EXPECT_EQ(first->constant_value(), TruncateToWidth(value, width));
      }
    }
    EXPECT_EQ(ctx.Constant(256, 8), ctx.Constant(0, 8));
    EXPECT_EQ(ctx.Constant(2, 1), ctx.False());
    EXPECT_EQ(ctx.Constant(3, 1), ctx.True());
    EXPECT_EQ(ctx.Constant(~uint64_t{0}, 64)->constant_value(), ~uint64_t{0});
    EXPECT_NE(ctx.Constant(1, 1), ctx.Constant(1, 64));
    // Enough distinct literals to collide in the table: every lookup still
    // returns the interned node.
    for (uint64_t value = 0; value < 5000; ++value) {
      EXPECT_EQ(ctx.Constant(value, 32), interned(value, 32));
    }
  }
}

TEST(ExprTest, SymbolsHaveSupport) {
  ExprContext ctx;
  const Expr* s0 = ctx.Symbol(0);
  const Expr* s3 = ctx.Symbol(3);
  EXPECT_EQ(s0, ctx.Symbol(0));
  EXPECT_EQ(s0->width(), 8u);
  const Expr* sum = ctx.Binary(ExprKind::kAdd, s0, s3);
  EXPECT_EQ(sum->Support().ToSet(), (std::set<unsigned>{0, 3}));
}

TEST(ExprTest, SupportOverflowBeyondMaskWidth) {
  // Symbol indices >= 64 spill from the bitmask word into the sorted
  // overflow vector; set algebra must agree across the boundary.
  ExprContext ctx;
  const Expr* lo = ctx.Symbol(3);
  const Expr* hi = ctx.Symbol(100);
  const Expr* sum = ctx.Binary(ExprKind::kAdd, lo, hi);
  EXPECT_EQ(sum->Support().ToSet(), (std::set<unsigned>{3, 100}));
  EXPECT_EQ(sum->Support().MaxSymbol(), 100u);
  EXPECT_TRUE(sum->Support().Contains(100));
  EXPECT_FALSE(sum->Support().Contains(64));
  EXPECT_TRUE(sum->Support().Intersects(hi->Support()));
  EXPECT_FALSE(lo->Support().Intersects(hi->Support()));
}

TEST(ExprTest, StructuralHashIsStableAndInterned) {
  ExprContext ctx;
  const Expr* a = ctx.Binary(ExprKind::kAdd, ctx.Symbol(0), ctx.Constant(5, 8));
  const Expr* b = ctx.Binary(ExprKind::kAdd, ctx.Symbol(0), ctx.Constant(5, 8));
  EXPECT_EQ(a, b);  // hash-consed: same pointer
  EXPECT_NE(a->hash(), 0u);
  EXPECT_EQ(a->hash(), b->hash());
}

TEST(ExprTest, ConstantFoldingMatchesFoldKernel) {
  ExprContext ctx;
  const Expr* a = ctx.Constant(200, 8);
  const Expr* b = ctx.Constant(100, 8);
  EXPECT_EQ(ctx.Binary(ExprKind::kAdd, a, b)->constant_value(), 44u);  // wraps mod 256
  EXPECT_EQ(ctx.Binary(ExprKind::kMul, a, b)->constant_value(), TruncateToWidth(20000, 8));
  EXPECT_TRUE(ctx.Compare(ICmpPredicate::kULT, b, a)->IsTrue());
  EXPECT_TRUE(ctx.Compare(ICmpPredicate::kSLT, a, b)->IsTrue());  // 200 is -56 signed
}

TEST(ExprTest, IdentitiesSimplify) {
  ExprContext ctx;
  const Expr* x = ctx.Symbol(0);
  const Expr* zero = ctx.Constant(0, 8);
  const Expr* ones = ctx.Constant(0xFF, 8);
  EXPECT_EQ(ctx.Binary(ExprKind::kAdd, x, zero), x);
  EXPECT_EQ(ctx.Binary(ExprKind::kMul, x, ctx.Constant(1, 8)), x);
  EXPECT_EQ(ctx.Binary(ExprKind::kMul, x, zero), zero);
  EXPECT_EQ(ctx.Binary(ExprKind::kAnd, x, ones), x);
  EXPECT_EQ(ctx.Binary(ExprKind::kAnd, x, zero), zero);
  EXPECT_EQ(ctx.Binary(ExprKind::kXor, x, x), zero);
  EXPECT_EQ(ctx.Binary(ExprKind::kSub, x, x), zero);
  EXPECT_EQ(ctx.Binary(ExprKind::kOr, x, x), x);
}

TEST(ExprTest, CommutativeCanonicalization) {
  ExprContext ctx;
  const Expr* x = ctx.Symbol(0);
  const Expr* y = ctx.Symbol(1);
  EXPECT_EQ(ctx.Binary(ExprKind::kAdd, x, y), ctx.Binary(ExprKind::kAdd, y, x));
  const Expr* c = ctx.Constant(7, 8);
  EXPECT_EQ(ctx.Binary(ExprKind::kAdd, c, x), ctx.Binary(ExprKind::kAdd, x, c));
}

TEST(ExprTest, ComparePredicatesCanonicalized) {
  ExprContext ctx;
  const Expr* x = ctx.Symbol(0);
  const Expr* c = ctx.Constant(10, 8);
  // x > c becomes c < x; x != c becomes Not(x == c).
  const Expr* gt = ctx.Compare(ICmpPredicate::kUGT, x, c);
  EXPECT_EQ(gt->kind(), ExprKind::kUlt);
  EXPECT_EQ(gt->a(), c);
  const Expr* ne = ctx.Compare(ICmpPredicate::kNe, x, c);
  EXPECT_EQ(ne->kind(), ExprKind::kXor);  // Not is Xor(e, true)
  EXPECT_EQ(ctx.Not(ne), ctx.Compare(ICmpPredicate::kEq, x, c));
}

TEST(ExprTest, SelectSimplifications) {
  ExprContext ctx;
  const Expr* x = ctx.Symbol(0);
  const Expr* y = ctx.Symbol(1);
  const Expr* cond = ctx.Compare(ICmpPredicate::kEq, x, ctx.Constant(0, 8));
  EXPECT_EQ(ctx.Select(ctx.True(), x, y), x);
  EXPECT_EQ(ctx.Select(ctx.False(), x, y), y);
  EXPECT_EQ(ctx.Select(cond, x, x), x);
  EXPECT_EQ(ctx.Select(cond, ctx.True(), ctx.False()), cond);
  EXPECT_EQ(ctx.Select(cond, ctx.False(), ctx.True()), ctx.Not(cond));
}

TEST(ExprTest, ExtractConcatRoundTrip) {
  ExprContext ctx;
  const Expr* x = ctx.Symbol(0);
  const Expr* y = ctx.Symbol(1);
  // Concat(y, x): y is the high byte.
  const Expr* pair = ctx.Concat(y, x);
  EXPECT_EQ(pair->width(), 16u);
  EXPECT_EQ(ctx.Extract(pair, 0, 8), x);
  EXPECT_EQ(ctx.Extract(pair, 8, 8), y);
  // Extract of extract composes.
  const Expr* wide = ctx.ZExt(x, 32);
  EXPECT_EQ(ctx.Extract(wide, 0, 8), x);
  EXPECT_EQ(ctx.Extract(wide, 16, 8), ctx.Constant(0, 8));
}

TEST(ExprTest, ByteRoundTrip) {
  ExprContext ctx;
  const Expr* x = ctx.Symbol(0);
  const Expr* wide = ctx.ZExt(x, 32);
  auto bytes = ctx.ToBytes(wide);
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(ctx.FromBytes(bytes), wide);
  // A 32-bit constant round-trips too.
  auto cbytes = ctx.ToBytes(ctx.Constant(0xDEADBEEF, 32));
  EXPECT_EQ(ctx.FromBytes(cbytes)->constant_value(), 0xDEADBEEFu);
}

TEST(ExprTest, CastsFold) {
  ExprContext ctx;
  EXPECT_EQ(ctx.ZExt(ctx.Constant(0xFF, 8), 32)->constant_value(), 0xFFu);
  EXPECT_EQ(ctx.SExt(ctx.Constant(0xFF, 8), 32)->constant_value(), 0xFFFFFFFFu);
  EXPECT_EQ(ctx.Trunc(ctx.Constant(0x1234, 32), 8)->constant_value(), 0x34u);
  const Expr* x = ctx.Symbol(0);
  EXPECT_EQ(ctx.ZExt(ctx.ZExt(x, 16), 32), ctx.ZExt(x, 32));
  EXPECT_EQ(ctx.Trunc(ctx.ZExt(x, 32), 8), x);
}

TEST(ExprTest, EvaluateAgreesWithStructure) {
  ExprContext ctx;
  const Expr* x = ctx.Symbol(0);
  const Expr* y = ctx.Symbol(1);
  // (zext(x,32) * 3 + zext(y,32)) < 100 ?
  const Expr* e = ctx.Compare(
      ICmpPredicate::kULT,
      ctx.Binary(ExprKind::kAdd,
                 ctx.Binary(ExprKind::kMul, ctx.ZExt(x, 32), ctx.Constant(3, 32)),
                 ctx.ZExt(y, 32)),
      ctx.Constant(100, 32));
  std::vector<uint8_t> bytes = {30, 9};  // 30*3+9 = 99 < 100
  ctx.NewEvaluation();
  EXPECT_EQ(ctx.Evaluate(e, bytes), 1u);
  bytes = {30, 10};  // 100 < 100 is false
  ctx.NewEvaluation();
  EXPECT_EQ(ctx.Evaluate(e, bytes), 0u);
}

TEST(ExprTest, EvaluateSignedOps) {
  ExprContext ctx;
  const Expr* x = ctx.Symbol(0);
  const Expr* sx = ctx.SExt(x, 32);
  const Expr* neg = ctx.Compare(ICmpPredicate::kSLT, sx, ctx.Constant(0, 32));
  std::vector<uint8_t> bytes = {0x80};  // -128 as signed char
  ctx.NewEvaluation();
  EXPECT_EQ(ctx.Evaluate(neg, bytes), 1u);
  bytes = {0x7F};
  ctx.NewEvaluation();
  EXPECT_EQ(ctx.Evaluate(neg, bytes), 0u);
}

// ---- The sharded, lock-striped interner shared across contexts.

TEST(SharedInternerTest, RacingContextsConvergeOnOneCanonicalNode) {
  ExprInterner interner(/*concurrent=*/true);
  constexpr int kThreads = 4;
  std::vector<const Expr*> roots(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&interner, &roots, t] {
      // Each worker builds the identical DAG through its own context view;
      // hash-consing in the shared tables must give every thread the same
      // pointers despite the races.
      ExprContext ctx(interner);
      const Expr* acc = ctx.Constant(0, 32);
      for (unsigned i = 0; i < 200; ++i) {
        const Expr* term = ctx.Binary(ExprKind::kMul, ctx.ZExt(ctx.Symbol(i % 8), 32),
                                      ctx.Constant(i + 1, 32));
        acc = ctx.Binary(ExprKind::kAdd, acc, term);
      }
      roots[t] = acc;
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(roots[0], roots[t]) << "thread " << t;
  }
}

TEST(SharedInternerTest, PerContextMemosEvaluateTheSharedDagIndependently) {
  ExprInterner interner(/*concurrent=*/true);
  ExprContext a(interner);
  const Expr* sum = a.Binary(ExprKind::kAdd, a.ZExt(a.Symbol(0), 32),
                             a.ZExt(a.Symbol(1), 32));
  // Two views evaluate the same node under different assignments; their
  // generation-stamped memo tables must not bleed into each other (with
  // inline slots on the shared Expr they would).
  ExprContext b(interner);
  std::vector<uint8_t> x{10, 20};
  std::vector<uint8_t> y{1, 2};
  a.NewEvaluation();
  b.NewEvaluation();
  EXPECT_EQ(a.Evaluate(sum, x), 30u);
  EXPECT_EQ(b.Evaluate(sum, y), 3u);
  EXPECT_EQ(a.Evaluate(sum, x), 30u);  // memoized, still correct
}

}  // namespace
}  // namespace overify
