#include "core/slice_store.h"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"

namespace astream::core {
namespace {

using spe::Row;
using spe::Value;

QuerySet Bits(std::initializer_list<int> bits) {
  QuerySet b;
  for (int i : bits) b.Set(i);
  return b;
}

/// Collects join outputs into a canonical multiset for comparison.
std::map<std::string, int> JoinToMultiset(const TupleStore& a,
                                          const TupleStore& b,
                                          const QuerySet& mask) {
  std::map<std::string, int> out;
  TupleStore::Join(a, b, mask,
                   [&](const Row& l, const Row& r, QuerySet tags) {
                     std::string key = l.ToString() + "|" + r.ToString() +
                                       "|" + tags.ToString(16);
                     ++out[key];
                   });
  return out;
}

TEST(TupleStoreTest, GroupedJoinBasics) {
  TupleStore a(StoreMode::kGrouped);
  TupleStore b(StoreMode::kGrouped);
  a.Insert(Row{1, 10}, Bits({0}));
  a.Insert(Row{2, 20}, Bits({1}));
  b.Insert(Row{1, 30}, Bits({0, 1}));
  b.Insert(Row{2, 40}, Bits({0}));  // shares no query with A's key-2 tuple

  int emitted = 0;
  TupleStore::Join(a, b, QuerySet::AllSet(2),
                   [&](const Row& l, const Row& r, QuerySet tags) {
                     ++emitted;
                     EXPECT_EQ(l.key(), r.key());
                     EXPECT_TRUE(tags.Any());
                   });
  // Only (1,10)x(1,30) with tags {0}; A(2,20){1} x B(2,40){0} disjoint.
  EXPECT_EQ(emitted, 1);
}

TEST(TupleStoreTest, MaskFiltersSlotAcrossChange) {
  TupleStore a(StoreMode::kGrouped);
  TupleStore b(StoreMode::kGrouped);
  a.Insert(Row{1, 1}, Bits({0, 1}));
  b.Insert(Row{1, 2}, Bits({0, 1}));
  QuerySet mask = QuerySet::AllSet(2);
  mask.Reset(1);  // slot 1 changed between the slices
  int emitted = 0;
  TupleStore::Join(a, b, mask,
                   [&](const Row&, const Row&, QuerySet tags) {
                     ++emitted;
                     EXPECT_TRUE(tags.Test(0));
                     EXPECT_FALSE(tags.Test(1));
                   });
  EXPECT_EQ(emitted, 1);
}

TEST(TupleStoreTest, ConvertPreservesTuples) {
  TupleStore s(StoreMode::kGrouped);
  s.Insert(Row{1, 1}, Bits({0}));
  s.Insert(Row{1, 2}, Bits({1}));
  s.Insert(Row{2, 3}, Bits({0, 1}));
  EXPECT_EQ(s.NumTuples(), 3u);
  EXPECT_EQ(s.NumGroups(), 3u);
  s.ConvertTo(StoreMode::kList);
  EXPECT_EQ(s.NumTuples(), 3u);
  int n = 0;
  s.ForEach([&](const Row&, const QuerySet&) { ++n; });
  EXPECT_EQ(n, 3);
  s.ConvertTo(StoreMode::kGrouped);
  EXPECT_EQ(s.NumGroups(), 3u);
}

TEST(TupleStoreTest, AvgGroupSize) {
  TupleStore s(StoreMode::kGrouped);
  s.Insert(Row{1, 1}, Bits({0}));
  s.Insert(Row{2, 2}, Bits({0}));
  s.Insert(Row{3, 3}, Bits({0}));
  s.Insert(Row{4, 4}, Bits({1}));
  EXPECT_EQ(s.NumGroups(), 2u);
  EXPECT_DOUBLE_EQ(s.AvgGroupSize(), 2.0);
}

TEST(TupleStoreTest, SerializeRoundTripBothModes) {
  for (StoreMode mode : {StoreMode::kGrouped, StoreMode::kList}) {
    TupleStore s(mode);
    s.Insert(Row{1, 5}, Bits({0, 2}));
    s.Insert(Row{2, 6}, Bits({1}));
    spe::StateWriter writer;
    s.Serialize(&writer);
    spe::StateReader reader(writer.TakeBuffer());
    TupleStore restored = TupleStore::Deserialize(&reader);
    EXPECT_EQ(restored.mode(), mode);
    EXPECT_EQ(restored.NumTuples(), 2u);
  }
}

/// Property: grouped and list layouts (and mixed pairs) produce identical
/// join results — Sec. 3.2.3's data-structure switch must be lossless.
class StoreModeEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(StoreModeEquivalence, JoinResultsIdenticalAcrossLayouts) {
  const auto [seed, num_queries] = GetParam();
  Rng rng(seed);
  TupleStore ag(StoreMode::kGrouped), al(StoreMode::kList);
  TupleStore bg(StoreMode::kGrouped), bl(StoreMode::kList);
  for (int i = 0; i < 60; ++i) {
    const Value key = rng.UniformInt(0, 5);
    Row row{key, rng.UniformInt(0, 100)};
    QuerySet tags;
    for (int q = 0; q < num_queries; ++q) {
      if (rng.Bernoulli(0.4)) tags.Set(q);
    }
    if (tags.None()) tags.Set(0);
    if (i % 2 == 0) {
      ag.Insert(row, tags);
      al.Insert(row, tags);
    } else {
      bg.Insert(row, tags);
      bl.Insert(row, tags);
    }
  }
  QuerySet mask = QuerySet::AllSet(num_queries);
  for (int q = 0; q < num_queries; ++q) {
    if (rng.Bernoulli(0.2)) mask.Reset(q);
  }
  const auto gg = JoinToMultiset(ag, bg, mask);
  EXPECT_EQ(gg, JoinToMultiset(al, bl, mask));
  EXPECT_EQ(gg, JoinToMultiset(ag, bl, mask));
  EXPECT_EQ(gg, JoinToMultiset(al, bg, mask));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, StoreModeEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(1, 3, 8, 16)));

TEST(AggStoreTest, AddSlotAccumulatorFinalize) {
  AggStore s;
  s.Add(1, QuerySet::Single(0), 10);
  s.Add(1, QuerySet::Single(0), 5);
  s.Add(1, QuerySet::Single(2), 7);
  s.Add(2, QuerySet::Single(0), 1);
  const spe::Accumulator acc = s.SlotAccumulator(1, 0);
  EXPECT_FALSE(acc.Empty());
  EXPECT_EQ(acc.Finalize(spe::AggKind::kSum), 15);
  EXPECT_EQ(acc.Finalize(spe::AggKind::kCount), 2);
  EXPECT_EQ(acc.Finalize(spe::AggKind::kMin), 5);
  EXPECT_EQ(acc.Finalize(spe::AggKind::kMax), 10);
  EXPECT_EQ(acc.Finalize(spe::AggKind::kAvg), 7);
  EXPECT_TRUE(s.SlotAccumulator(1, 1).Empty());
  EXPECT_TRUE(s.SlotAccumulator(9, 0).Empty());
}

TEST(AggStoreTest, SharedGroupPerTagSet) {
  AggStore s;
  // Two tuples tagged with the same two-query set land in ONE group: one
  // accumulator maintained for both queries (the group-sharing invariant).
  s.Add(1, Bits({0, 1}), 10);
  s.Add(1, Bits({0, 1}), 20);
  // A different tag set over the same key is a separate group.
  s.Add(1, Bits({1}), 5);
  size_t groups_seen = 0;
  s.ForEachGroupsMerged(
      [&](Value key, const AggStore::Group* /*groups*/, size_t n) {
        EXPECT_EQ(key, 1);
        groups_seen = n;
      });
  EXPECT_EQ(groups_seen, 2u);
  EXPECT_EQ(s.SlotAccumulator(1, 0).Finalize(spe::AggKind::kSum), 30);
  EXPECT_EQ(s.SlotAccumulator(1, 1).Finalize(spe::AggKind::kSum), 35);
}

TEST(AggStoreTest, SerializeRoundTrip) {
  AggStore s;
  s.Add(1, QuerySet::Single(0), 10);
  s.Add(2, Bits({0, 3}), 20);
  spe::StateWriter writer;
  s.Serialize(&writer);
  spe::StateReader reader(writer.TakeBuffer());
  AggStore restored = AggStore::Deserialize(&reader);
  EXPECT_EQ(restored.SlotAccumulator(2, 3).sum, 20);
  EXPECT_EQ(restored.SlotAccumulator(2, 0).sum, 20);
  EXPECT_EQ(restored.SlotAccumulator(1, 0).sum, 10);
  EXPECT_TRUE(restored.SlotAccumulator(1, 3).Empty());
}

}  // namespace
}  // namespace astream::core
