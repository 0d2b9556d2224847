#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/slicing.h"
#include "tests/core/e2e_harness.h"

namespace astream::core {
namespace {

using spe::Row;
using Kind = AStreamJob::TopologyKind;

QueryDescriptor AggQuery(spe::WindowSpec window,
                         spe::AggKind agg = spe::AggKind::kSum) {
  QueryDescriptor d;
  d.kind = QueryKind::kAggregation;
  d.window = window;
  d.agg = {agg, 1};
  return d;
}

// --- ChooseFactor: the cost-based rewrite decision ----------------------

TEST(FactorRegistryTest, ChooseFactorAcceptsComposableSpecs) {
  // 60s/10s: g = 10 = slide, the densest acceptable case (1x density).
  auto f = FactorRegistry::ChooseFactor(0, spe::WindowSpec::Sliding(60, 10));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->period, 10);
  EXPECT_EQ(f->anchor, 0);

  // 45s/10s: g = 5 — the lattice is slide/g = 2x denser than the query's
  // own start edges, and 2*5 >= 10 passes the bound exactly.
  f = FactorRegistry::ChooseFactor(3, spe::WindowSpec::Sliding(45, 10));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->period, 5);
  EXPECT_EQ(f->anchor, 3);  // anchor = origin mod period

  // Tumbling(7): slide == length == 7, g = 7 — always composable.
  f = FactorRegistry::ChooseFactor(10, spe::WindowSpec::Tumbling(7));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->period, 7);
  EXPECT_EQ(f->anchor, 3);
}

TEST(FactorRegistryTest, ChooseFactorRejectsPathologicalSpecs) {
  // 7s/3s: g = 1, lattice 3x denser than the slide — cost bound fails.
  EXPECT_FALSE(FactorRegistry::ChooseFactor(0, spe::WindowSpec::Sliding(7, 3))
                   .has_value());
  // Sessions never factor.
  EXPECT_FALSE(FactorRegistry::ChooseFactor(0, spe::WindowSpec::Session(5))
                   .has_value());
}

// --- AcquireFor / Release: lattice sharing and refcounts ----------------

TEST(FactorRegistryTest, ReusesCoarsestCompatibleLattice) {
  FactorRegistry reg;
  // First query registers its own lattice {anchor 0, period 10}.
  auto f0 = reg.AcquireFor(0, 0, spe::WindowSpec::Sliding(60, 10));
  ASSERT_TRUE(f0.has_value());
  EXPECT_EQ(f0->period, 10);
  EXPECT_EQ(reg.NumLattices(), 1u);
  EXPECT_EQ(reg.stats().rewrites, 1);

  // 30s/10s with the same origin parity rides the same lattice.
  auto f1 = reg.AcquireFor(1, 20, spe::WindowSpec::Sliding(30, 10));
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(*f1, *f0);
  EXPECT_EQ(reg.NumLattices(), 1u);
  EXPECT_EQ(reg.stats().reuses, 1);

  // 20s/5s needs a finer lattice (period 5): new registration.
  auto f2 = reg.AcquireFor(2, 0, spe::WindowSpec::Sliding(20, 5));
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->period, 5);
  EXPECT_EQ(reg.NumLattices(), 2u);

  // 40s/10s could ride either; the COARSEST compatible one (period 10,
  // the sparsest edge source) wins.
  auto f3 = reg.AcquireFor(3, 0, spe::WindowSpec::Sliding(40, 10));
  ASSERT_TRUE(f3.has_value());
  EXPECT_EQ(f3->period, 10);
  EXPECT_EQ(reg.stats().reuses, 2);

  // Incongruent anchor cannot share: origin 3 mod 10 != 0.
  auto f4 = reg.AcquireFor(4, 3, spe::WindowSpec::Sliding(60, 10));
  ASSERT_TRUE(f4.has_value());
  EXPECT_EQ(f4->anchor, 3);
  EXPECT_EQ(reg.NumLattices(), 3u);
}

TEST(FactorRegistryTest, ReleaseDropsLatticeAtZeroRefs) {
  FactorRegistry reg;
  reg.AcquireFor(0, 0, spe::WindowSpec::Sliding(60, 10));
  reg.AcquireFor(1, 0, spe::WindowSpec::Sliding(30, 10));
  EXPECT_EQ(reg.NumLattices(), 1u);
  reg.Release(0);
  EXPECT_EQ(reg.NumLattices(), 1u);  // slot 1 still rides it
  reg.Release(1);
  EXPECT_EQ(reg.NumLattices(), 0u);
  EXPECT_EQ(reg.NumRegistered(), 0u);
  // Releasing a fallback/unknown slot is a no-op.
  reg.Release(7);
}

TEST(FactorRegistryTest, SerializeRestoreRoundTrip) {
  FactorRegistry reg;
  reg.AcquireFor(0, 0, spe::WindowSpec::Sliding(60, 10));
  reg.AcquireFor(1, 3, spe::WindowSpec::Sliding(45, 10));
  reg.AcquireFor(2, 0, spe::WindowSpec::Sliding(7, 3));  // fallback
  spe::StateWriter writer;
  reg.Serialize(&writer);
  spe::StateReader reader(writer.TakeBuffer());
  FactorRegistry restored;
  ASSERT_TRUE(restored.Restore(&reader).ok());
  EXPECT_EQ(restored.NumRegistered(), 2u);
  EXPECT_EQ(restored.NumLattices(), 2u);
  ASSERT_TRUE(restored.FactorOf(0).has_value());
  EXPECT_EQ(restored.FactorOf(0)->period, 10);
  EXPECT_FALSE(restored.FactorOf(2).has_value());
  EXPECT_EQ(restored.stats().fallbacks, 1);
}

// --- SliceTracker integration: lattice edges drive slicing --------------

TEST(FactorSlicingTest, RewrittenQueriesShareLatticeEdges) {
  SliceTracker t;
  t.SetNumSlots(2);
  t.EnableFactorRewrite(true);
  t.CutAt(0, QuerySet::AllSet(2));
  // Both specs factor onto { t ≡ 0 (mod 10) }: ONE edge source, slice
  // boundaries every 10 — not the union of two per-query edge sets.
  t.AddQuery(0, 0, spe::WindowSpec::Sliding(60, 10));
  t.AddQuery(1, 0, spe::WindowSpec::Sliding(30, 10));
  EXPECT_EQ(t.factors().NumLattices(), 1u);
  EXPECT_EQ(t.SliceFor(5).end, 10);
  EXPECT_EQ(t.SliceFor(15).start, 10);
  EXPECT_EQ(t.SliceFor(15).end, 20);
}

TEST(FactorSlicingTest, NonDivisorSpecKeepsExactEdges) {
  SliceTracker t;
  t.SetNumSlots(1);
  t.EnableFactorRewrite(true);
  t.CutAt(0, QuerySet::AllSet(1));
  // 7s/3s fails the cost bound: exact edges (starts 0,3,6,..., ends
  // 7,10,13,...) must still be materialized, windows must tile exactly.
  t.AddQuery(0, 0, spe::WindowSpec::Sliding(7, 3));
  EXPECT_EQ(t.factors().NumLattices(), 0u);
  EXPECT_EQ(t.factors().stats().fallbacks, 1);
  EXPECT_EQ(t.SliceFor(1).end, 3);
  EXPECT_EQ(t.SliceFor(4).end, 6);
  EXPECT_EQ(t.SliceFor(6).end, 7);   // first window end
  EXPECT_EQ(t.SliceFor(8).end, 9);   // start edge 9
  EXPECT_EQ(t.SliceFor(9).end, 10);  // end edge 10
  const auto slices = t.SlicesIn(0, 7);
  ASSERT_EQ(slices.size(), 3u);  // [0,3) [3,6) [6,7)
  EXPECT_EQ(slices.back().end, 7);
}

// --- E2E: outputs stay pinned to the sync reference either way ----------

void RunNonDivisorFleet(bool share) {
  E2EHarness h(Kind::kAggregation, 1, StoreMode::kGrouped, true,
               [share](AStreamJob::Options* o) {
                 o->share_arrangements = share;
               });
  // Mixed fleet on one stream, submitted as ONE batch (common origin): a
  // non-divisor 7s/3s spec (factor fallback) next to composable
  // 60/10-family specs sharing one lattice.
  const QueryId q73 = h.Submit(AggQuery(spe::WindowSpec::Sliding(7, 3)), 0);
  h.Submit(AggQuery(spe::WindowSpec::Sliding(60, 10)), 0);
  h.Submit(AggQuery(spe::WindowSpec::Sliding(30, 10), spe::AggKind::kMax), 0);
  h.Flush(0);
  const TimestampMs origin = h.lifecycles()[q73].created_at;
  for (int i = 0; i < 120; ++i) {
    h.Push(0, 2 + i * 2, Row{i % 4, i});  // up to t = 240
  }
  h.Watermark(130);
  // Out-of-order rows landing exactly ON factor boundaries (above the
  // watermark, behind the 240 high-water mark): one on the shared period-10
  // lattice, one on a 7/3 exact window-end edge. Both modes must clamp
  // them into the same slices.
  const TimestampMs lattice_edge =
      NextLatticeEdgeAfter(FloorMod(origin, 10), 10, 135);
  const TimestampMs end_edge = origin + 7 + 3 * ((135 - origin - 7) / 3 + 1);
  h.Push(0, lattice_edge, Row{1, 1000});
  h.Push(0, end_edge, Row{2, 2000});
  for (int i = 0; i < 40; ++i) {
    h.Push(0, 242 + i * 3, Row{i % 4, i});
  }
  h.Watermark(400);
  h.FinishAndVerify();
}

TEST(FactorSlicingE2ETest, NonDivisorFleetMatchesReferenceSharingOn) {
  RunNonDivisorFleet(true);
}

TEST(FactorSlicingE2ETest, NonDivisorFleetMatchesReferenceSharingOff) {
  RunNonDivisorFleet(false);
}

}  // namespace
}  // namespace astream::core
