#include "shard/spsc_queue.h"

#include <chrono>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace astream::shard {
namespace {

TEST(SpscQueueTest, PushPopSingleThread) {
  SpscQueue<int> q(8);
  EXPECT_EQ(q.capacity(), 8u);
  int out = 0;
  EXPECT_FALSE(q.TryPop(&out));
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(int(i)));
  EXPECT_FALSE(q.TryPush(99));  // full
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.TryPop(&out));
}

TEST(SpscQueueTest, WrapsAroundManyTimes) {
  SpscQueue<int> q(4);
  int out = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.TryPush(round * 10 + i));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(q.TryPop(&out));
      EXPECT_EQ(out, round * 10 + i);
    }
  }
}

TEST(SpscQueueTest, CloseDrainsThenReportsEmpty) {
  SpscQueue<int> q(8);
  ASSERT_TRUE(q.TryPush(1));
  ASSERT_TRUE(q.TryPush(2));
  q.Close();
  EXPECT_TRUE(q.closed());
  // Items enqueued before the close still drain.
  int out = 0;
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 2);
  // Closed AND drained: Pop returns false instead of blocking.
  EXPECT_FALSE(q.Pop(&out));
  // Push after close is rejected.
  EXPECT_FALSE(q.Push(3));
}

TEST(SpscQueueTest, BlockingPopWakesOnClose) {
  SpscQueue<int> q(8);
  std::thread consumer([&] {
    int out = 0;
    EXPECT_FALSE(q.Pop(&out));  // blocks until close, then false
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
}

TEST(SpscQueueTest, TwoThreadOrderedDelivery) {
  constexpr int kItems = 20000;
  SpscQueue<int> q(64);
  std::vector<int> received;
  received.reserve(kItems);
  std::thread consumer([&] {
    int out = 0;
    while (q.Pop(&out)) received.push_back(out);
  });
  for (int i = 0; i < kItems; ++i) ASSERT_TRUE(q.Push(int(i)));
  q.Close();
  consumer.join();
  ASSERT_EQ(received.size(), static_cast<size_t>(kItems));
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(received[static_cast<size_t>(i)], i);
  }
}

// Two capacity-2 rings in a loop, in rounds of one item and of four. A
// round of one leaves each side waiting on exactly one wake from the
// other; a round of four also parks the driver on a full `ping` and the
// echo thread on a full `pong`. No wait has a timed fallback, so a lost
// wakeup hangs here and the ctest TIMEOUT fails the suite.
TEST(SpscQueueTest, PingPongParksWithoutLosingAWakeup) {
  constexpr int kItems = 100'000;
  SpscQueue<int> ping(2);
  SpscQueue<int> pong(2);
  std::thread echo([&] {
    int v = 0;
    while (ping.Pop(&v)) {
      if (!pong.Push(int(v))) return;
    }
    pong.Close();
  });
  int sent = 0;
  int received = 0;
  for (int round = 0; sent < kItems; ++round) {
    const int burst = round % 2 == 0 ? 1 : 4;
    for (int j = 0; j < burst; ++j) ASSERT_TRUE(ping.Push(sent++));
    for (int j = 0; j < burst; ++j) {
      int out = -1;
      ASSERT_TRUE(pong.Pop(&out));
      ASSERT_EQ(out, received++);
    }
  }
  ping.Close();
  int out = 0;
  EXPECT_FALSE(pong.Pop(&out));  // echo saw the close and closed pong
  echo.join();
  EXPECT_EQ(received, sent);
}

TEST(SpscQueueTest, SizeApproxTracksOccupancy) {
  SpscQueue<int> q(16);
  EXPECT_EQ(q.SizeApprox(), 0u);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.TryPush(int(i)));
  EXPECT_EQ(q.SizeApprox(), 5u);
  int out = 0;
  ASSERT_TRUE(q.TryPop(&out));
  EXPECT_EQ(q.SizeApprox(), 4u);
}

}  // namespace
}  // namespace astream::shard
