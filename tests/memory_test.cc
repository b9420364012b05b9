// The symbolic address space: monotonic object ids, a table that holds only
// live objects, and copy-on-write contents shared between forks.
#include <gtest/gtest.h>

#include <vector>

#include "src/symex/memory.h"

namespace overify {
namespace {

TEST(AddressSpaceTest, FreedIdsStayDeadAndAreNeverReused) {
  ExprContext ctx;
  AddressSpace space;
  uint64_t first = space.Allocate(ctx, 4, false, true, "a");
  uint64_t second = space.Allocate(ctx, 4, false, true, "b");
  space.Free(first);
  EXPECT_FALSE(space.Exists(first));
  EXPECT_EQ(space.Find(first), nullptr);
  EXPECT_TRUE(space.Exists(second));
  for (int i = 0; i < 100; ++i) {
    uint64_t id = space.Allocate(ctx, 1, false, true, "c");
    EXPECT_GT(id, second);
    EXPECT_NE(id, first);
    space.Free(id);
  }
  EXPECT_FALSE(space.Exists(first));
}

TEST(AddressSpaceTest, TableStaysAtTheLiveCountAcrossManyCalls) {
  ExprContext ctx;
  AddressSpace space;
  uint64_t global = space.Allocate(ctx, 8, true, false, "global");
  uint64_t last = 0;
  for (int i = 0; i < 10000; ++i) {
    last = space.Allocate(ctx, 4, false, true, "frame");
    space.Free(last);
  }
  EXPECT_EQ(last, global + 10000);
  EXPECT_EQ(space.NumObjects(), 1u);
  AddressSpace fork = space;
  EXPECT_EQ(fork.NumObjects(), 1u);
  EXPECT_TRUE(fork.Exists(global));
  EXPECT_EQ(fork.Meta(global).name, "global");
  EXPECT_TRUE(fork.Meta(global).read_only);
}

TEST(AddressSpaceTest, LookupsFindEveryLiveObjectAfterInteriorFrees) {
  ExprContext ctx;
  AddressSpace space;
  std::vector<uint64_t> ids;
  for (uint64_t size = 1; size <= 9; ++size) {
    ids.push_back(space.Allocate(ctx, size, false, false, "obj"));
  }
  space.Free(ids[0]);
  space.Free(ids[4]);
  space.Free(ids[8]);
  EXPECT_EQ(space.NumObjects(), 6u);
  for (size_t i = 0; i < ids.size(); ++i) {
    const bool freed = i == 0 || i == 4 || i == 8;
    EXPECT_EQ(space.Exists(ids[i]), !freed) << i;
    if (!freed) {
      EXPECT_EQ(space.Meta(ids[i]).size, i + 1);
      EXPECT_EQ(space.Read(ids[i]).size(), i + 1);
    }
  }
}

TEST(AddressSpaceTest, WriteAfterForkChangesOnlyTheWriter) {
  ExprContext ctx;
  AddressSpace parent;
  uint64_t a = parent.Allocate(ctx, 2, false, false, "a");
  uint64_t b = parent.Allocate(ctx, 2, false, false, "b");
  parent.Write(a).SetByte(1, ctx.Constant(5, 8));

  AddressSpace child = parent;
  child.Write(a).SetByte(1, ctx.Constant(6, 8));
  EXPECT_EQ(parent.Read(a).Byte(1)->constant_value(), 5u);
  EXPECT_EQ(child.Read(a).Byte(1)->constant_value(), 6u);
  // The object nobody wrote is still shared.
  EXPECT_EQ(&parent.Read(b), &child.Read(b));
  // Once the fork is gone the parent is the sole owner again, and writes
  // land in place.
  const ObjectState* before = &parent.Read(a);
  {
    AddressSpace sibling = parent;
    EXPECT_EQ(&sibling.Read(a), before);
  }
  parent.Write(a).SetByte(0, ctx.Constant(7, 8));
  EXPECT_EQ(&parent.Read(a), before);
  EXPECT_EQ(parent.Read(a).Byte(0)->constant_value(), 7u);
}

TEST(AddressSpaceTest, SoleOwnerMutatesInPlace) {
  ExprContext ctx;
  AddressSpace space;
  uint64_t id = space.Allocate(ctx, 3, false, false, "buf");
  const ObjectState* contents = &space.Read(id);
  EXPECT_EQ(&space.Write(id), contents);
  EXPECT_EQ(space.Read(id).Byte(2), ctx.Constant(0, 8));
}

}  // namespace
}  // namespace overify
