#include "spe/state.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace astream::spe {
namespace {

TEST(StateWriterReaderTest, ScalarsRoundTrip) {
  StateWriter w;
  w.WriteI64(-42);
  w.WriteU64(7);
  w.WriteBool(true);
  w.WriteBool(false);
  w.WriteString("hello");
  StateReader r(w.TakeBuffer());
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_EQ(r.ReadU64(), 7u);
  EXPECT_TRUE(r.ReadBool());
  EXPECT_FALSE(r.ReadBool());
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_TRUE(r.Ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(StateWriterReaderTest, RowsAndBitsets) {
  StateWriter w;
  w.WriteRow(Row{1, 2, 3});
  w.WriteRow(Row{});
  DynamicBitset b;
  b.Set(3);
  b.Set(200);
  w.WriteBitset(b);
  StateReader r(w.TakeBuffer());
  EXPECT_EQ(r.ReadRow(), (Row{1, 2, 3}));
  EXPECT_EQ(r.ReadRow(), Row{});
  EXPECT_EQ(r.ReadBitset(), b);
  EXPECT_TRUE(r.Ok());
}

TEST(StateWriterReaderTest, ReadPastEndFailsGracefully) {
  StateWriter w;
  w.WriteI64(1);
  StateReader r(w.TakeBuffer());
  EXPECT_EQ(r.ReadI64(), 1);
  EXPECT_EQ(r.ReadI64(), 0);  // past end -> zero, flagged
  EXPECT_FALSE(r.Ok());
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_EQ(r.ReadRow(), Row{});
}

TEST(StateWriterReaderTest, CorruptLengthDoesNotOverread) {
  StateWriter w;
  w.WriteU64(1'000'000'000);  // bogus huge length
  StateReader r(w.TakeBuffer());
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_FALSE(r.Ok());

  StateWriter w2;
  w2.WriteU64(1'000'000'000);
  StateReader r2(w2.TakeBuffer());
  EXPECT_EQ(r2.ReadRow(), Row{});
  EXPECT_FALSE(r2.Ok());
}

TEST(CheckpointStoreTest, LifecycleAndCompletion) {
  CheckpointStore store;
  store.BeginCheckpoint(1, {{0, 10}, {1, 20}});
  EXPECT_EQ(store.LatestComplete(), nullptr);
  store.AddOperatorState(1, 0, 0, {1, 2, 3});
  store.MaybeComplete(1, 2);
  EXPECT_EQ(store.LatestComplete(), nullptr);  // still missing one
  store.AddOperatorState(1, 1, 0, {4});
  store.MaybeComplete(1, 2);
  auto cp = store.LatestComplete();
  ASSERT_NE(cp, nullptr);
  EXPECT_EQ(cp->id, 1);
  EXPECT_EQ(cp->source_offsets.at(1), 20);
  EXPECT_EQ(cp->operator_state.at(CheckpointStore::StateKey(0, 0)).size(),
            3u);
}

TEST(CheckpointStoreTest, LatestCompletePrefersNewest) {
  CheckpointStore store;
  for (int64_t id = 1; id <= 3; ++id) {
    store.BeginCheckpoint(id, {});
    store.AddOperatorState(id, 0, 0, {});
    if (id != 3) store.MaybeComplete(id, 1);  // checkpoint 3 incomplete
  }
  auto cp = store.LatestComplete();
  ASSERT_NE(cp, nullptr);
  EXPECT_EQ(cp->id, 2);
}

TEST(CheckpointStoreTest, AddToUnknownCheckpointIgnored) {
  CheckpointStore store;
  store.AddOperatorState(99, 0, 0, {1});
  store.MaybeComplete(99, 1);
  EXPECT_EQ(store.Get(99), nullptr);
}

// A waiter blocked on an in-flight checkpoint is woken by the snapshot
// that completes it on another thread, and reads the flag under the
// store's mutex (the cross-thread handoff is what ThreadSanitizer checks).
TEST(CheckpointStoreTest, WaitForCompleteWakesOnCompletion) {
  CheckpointStore store;
  store.BeginCheckpoint(1, {});
  std::thread engine([&] {
    store.AddOperatorState(1, 0, 0, {7});
    store.MaybeComplete(1, 1);
  });
  auto cp = store.WaitForComplete(
      1, std::chrono::steady_clock::now() + std::chrono::seconds(60),
      nullptr);
  engine.join();
  ASSERT_NE(cp, nullptr);
  EXPECT_TRUE(cp->complete);
  EXPECT_EQ(cp->id, 1);
}

// An engine that fails mid-barrier never completes it: its failure path
// calls WakeWaiters, and the waiter's interrupt predicate ends the wait
// long before the deadline.
TEST(CheckpointStoreTest, WaitForCompleteEndsOnInterrupt) {
  CheckpointStore store;
  store.BeginCheckpoint(1, {});
  std::atomic<bool> failed{false};
  std::thread engine([&] {
    failed.store(true);
    store.WakeWaiters();
  });
  auto cp = store.WaitForComplete(
      1, std::chrono::steady_clock::now() + std::chrono::hours(1),
      [&] { return failed.load(); });
  engine.join();
  EXPECT_EQ(cp, nullptr);
}

TEST(CheckpointStoreTest, WaitForCompleteHonorsDeadline) {
  CheckpointStore store;
  store.BeginCheckpoint(1, {});
  EXPECT_EQ(store.WaitForComplete(1, std::chrono::steady_clock::now(),
                                  nullptr),
            nullptr);
  store.AddOperatorState(1, 0, 0, {});
  store.MaybeComplete(1, 1);
  // Already complete: returned without waiting, deadline or not.
  EXPECT_NE(store.WaitForComplete(1, std::chrono::steady_clock::now(),
                                  nullptr),
            nullptr);
}

}  // namespace
}  // namespace astream::spe
