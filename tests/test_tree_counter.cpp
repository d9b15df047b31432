#include "core/tree_counter.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/simulator.hpp"

namespace dcnt {
namespace {

Simulator make_tree_sim(TreeCounterParams params, SimConfig cfg) {
  return Simulator(std::make_unique<TreeCounter>(params), cfg);
}

const TreeCounter& tree_of(const Simulator& sim) {
  return dynamic_cast<const TreeCounter&>(sim.counter());
}

TEST(TreeCounter, SingleIncFollowsThePath) {
  TreeCounterParams params;
  params.k = 2;
  Simulator sim = make_tree_sim(params, {});
  const OpId op = sim.begin_inc(5);
  sim.run_until_quiescent();
  ASSERT_TRUE(sim.result(op).has_value());
  EXPECT_EQ(*sim.result(op), 0);
  // Path: leaf -> level2 -> level1 -> root, then root -> leaf: k+2 = 4
  // messages (no retirement on the very first inc with threshold 4k=8).
  EXPECT_EQ(sim.metrics().total_messages(), 4);
  EXPECT_EQ(tree_of(sim).stats().retirements_total, 0);
}

TEST(TreeCounter, FullSequenceReturnsDistinctOrderedValues) {
  TreeCounterParams params;
  params.k = 3;
  Simulator sim = make_tree_sim(params, {});
  const auto order = schedule_sequential(81);
  const RunResult result = run_sequential(sim, order);
  EXPECT_TRUE(result.values_ok);
  EXPECT_EQ(result.values.size(), 81u);
  EXPECT_EQ(tree_of(sim).value(), 81);
  tree_of(sim).deep_check();
}

class TreeCounterSeedTest
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(TreeCounterSeedTest, CorrectUnderRandomDeliveryAndOrder) {
  const int k = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  const bool fifo = std::get<2>(GetParam());
  TreeCounterParams params;
  params.k = k;
  SimConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.delay = DelayModel::uniform(1, 16);
  cfg.fifo_channels = fifo;
  Simulator sim = make_tree_sim(params, cfg);
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 1);
  const auto order =
      schedule_permutation(static_cast<std::int64_t>(sim.num_processors()), rng);
  const RunResult result = run_sequential(sim, order);
  EXPECT_TRUE(result.values_ok);
  tree_of(sim).deep_check();
  // The paper's workload never exhausts a replacement pool.
  EXPECT_EQ(tree_of(sim).stats().pool_wraps, 0);
  EXPECT_EQ(tree_of(sim).stats().self_handovers, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TreeCounterSeedTest,
    ::testing::Combine(::testing::Values(2, 3, 4), ::testing::Values(1, 2, 3),
                       ::testing::Bool()));

TEST(TreeCounter, HeavyTailDeliveryStillCorrect) {
  TreeCounterParams params;
  params.k = 3;
  SimConfig cfg;
  cfg.seed = 99;
  cfg.delay = DelayModel::heavy_tail(1, 1000);
  Simulator sim = make_tree_sim(params, cfg);
  const RunResult result = run_sequential(sim, schedule_reverse(81));
  EXPECT_TRUE(result.values_ok);
  tree_of(sim).deep_check();
}

TEST(TreeCounter, RetirementActuallyHappens) {
  TreeCounterParams params;
  params.k = 3;
  Simulator sim = make_tree_sim(params, {});
  run_sequential(sim, schedule_sequential(81));
  const auto& stats = tree_of(sim).stats();
  EXPECT_GT(stats.retirements_total, 0);
  // The root is on every path: it must have retired several times.
  const auto& log = tree_of(sim).retirement_log();
  std::int64_t root_retirements = 0;
  for (const auto& ev : log) {
    if (ev.node == 0) ++root_retirements;
  }
  EXPECT_GT(root_retirements, 5);
}

TEST(TreeCounter, RootIncumbentWalksForward) {
  TreeCounterParams params;
  params.k = 3;
  Simulator sim = make_tree_sim(params, {});
  run_sequential(sim, schedule_sequential(81));
  ProcessorId prev = 0;  // root starts at processor 0
  for (const auto& ev : tree_of(sim).retirement_log()) {
    if (ev.node != 0) continue;
    EXPECT_EQ(ev.old_pid, prev);
    EXPECT_EQ(ev.new_pid, prev + 1);  // id_new = id_old + 1
    prev = ev.new_pid;
  }
  EXPECT_EQ(tree_of(sim).incumbent(0), prev);
}

TEST(TreeCounter, StaticTreeNeverRetiresAndRootIsHotSpot) {
  auto counter = make_static_tree_counter(3);
  Simulator sim(std::move(counter), {});
  run_sequential(sim, schedule_sequential(81));
  const auto& tc = tree_of(sim);
  EXPECT_EQ(tc.stats().retirements_total, 0);
  // Root incumbent (processor 0) receives one inc and sends one value
  // per operation; it also serves the level-1 node 0 role.
  EXPECT_GE(sim.metrics().load(0), 2 * 81);
  EXPECT_EQ(tc.value(), 81);
}

TEST(TreeCounter, MisdirectedMessagesAreForwardedNotLost) {
  // With random delays, new-id notifications race the next handover;
  // the forwarding path must absorb them. Run many ops and require the
  // run to stay correct whether or not forwarding fired; across this
  // sweep it fires with overwhelming probability.
  std::int64_t forwarded = 0;
  for (int seed = 1; seed <= 5; ++seed) {
    TreeCounterParams params;
    params.k = 3;
    SimConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(seed);
    cfg.delay = DelayModel::uniform(1, 32);
    Simulator sim = make_tree_sim(params, cfg);
    run_sequential(sim, schedule_sequential(81));
    forwarded += tree_of(sim).stats().forwarded_messages;
    tree_of(sim).deep_check();
  }
  EXPECT_GT(forwarded, 0);
}

TEST(TreeCounter, AggressiveThresholdStillCorrect) {
  // The minimal *stable* threshold is k+2: every retirement ages its
  // k+1 neighbours by one message each, so thresholds <= k+1 have
  // reproduction factor (k+1)/T >= 1 and cascade forever (a
  // "retirement storm" — see DESIGN.md). k+2 is subcritical and must
  // still be correct, though pools may wrap.
  TreeCounterParams params;
  params.k = 3;
  params.age_threshold = params.k + 2;
  SimConfig cfg;
  cfg.seed = 3;
  cfg.delay = DelayModel::uniform(1, 8);
  Simulator sim = make_tree_sim(params, cfg);
  const RunResult result = run_sequential(sim, schedule_sequential(81));
  EXPECT_TRUE(result.values_ok);
  // Aggressive retirement may exhaust pools (wrap) — allowed, counted,
  // and still correct.
  tree_of(sim).deep_check();
}

TEST(TreeCounter, SubcriticalThresholdSpectrumStaysCorrect) {
  for (const std::int64_t threshold : {5LL, 6LL, 8LL, 12LL, 24LL, 64LL}) {
    TreeCounterParams params;
    params.k = 3;
    params.age_threshold = threshold;
    SimConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(threshold);
    cfg.delay = DelayModel::uniform(1, 4);
    Simulator sim = make_tree_sim(params, cfg);
    const RunResult result = run_sequential(sim, schedule_sequential(81));
    EXPECT_TRUE(result.values_ok) << "threshold " << threshold;
  }
}

TEST(TreeCounter, CountHandoverInAgeVariantCorrect) {
  TreeCounterParams params;
  params.k = 3;
  params.count_handover_in_age = true;
  Simulator sim = make_tree_sim(params, {});
  const RunResult result = run_sequential(sim, schedule_sequential(81));
  EXPECT_TRUE(result.values_ok);
  tree_of(sim).deep_check();
}

TEST(TreeCounter, BottleneckLoadIsOrderKAcrossSizes) {
  // The headline: max load grows like k, not like n.
  std::vector<double> per_k;
  for (int k = 2; k <= 5; ++k) {
    TreeCounterParams params;
    params.k = k;
    Simulator sim = make_tree_sim(params, {});
    const auto n = static_cast<std::int64_t>(sim.num_processors());
    run_sequential(sim, schedule_sequential(n));
    per_k.push_back(static_cast<double>(sim.metrics().max_load()) / k);
  }
  // Constant factor stays bounded (empirically ~11-18) while n grows
  // from 8 to 15625 — i.e. the load is Theta(k).
  for (const double c : per_k) {
    EXPECT_GT(c, 2.0);
    EXPECT_LT(c, 30.0);
  }
}

TEST(TreeCounter, CloneMidRunContinuesCorrectly) {
  TreeCounterParams params;
  params.k = 3;
  Simulator sim = make_tree_sim(params, {});
  run_sequential(sim, schedule_sequential(40));
  Simulator clone(sim);
  // Finish the sequence on both; they must agree.
  std::vector<ProcessorId> rest;
  for (ProcessorId p = 40; p < 81; ++p) rest.push_back(p);
  const RunResult a = run_sequential(sim, rest);
  const RunResult b = run_sequential(clone, rest);
  EXPECT_TRUE(a.values_ok);
  EXPECT_TRUE(b.values_ok);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(sim.metrics().total_messages(), clone.metrics().total_messages());
}

TEST(TreeCounter, NameReflectsConfiguration) {
  TreeCounterParams params;
  params.k = 4;
  EXPECT_EQ(TreeCounter(params).name(), "tree(k=4,T=16)");
  EXPECT_EQ(make_static_tree_counter(3)->name(), "static-tree(k=3)");
}

TEST(TreeCounter, MultipleIncsPerProcessorAlsoWork) {
  // Out-of-model workload (the paper assumes one inc per processor);
  // the protocol itself keeps working, pools may wrap.
  TreeCounterParams params;
  params.k = 2;
  Simulator sim = make_tree_sim(params, {});
  Rng rng(17);
  const auto order = schedule_uniform(8, 200, rng);
  const RunResult result = run_sequential(sim, order);
  EXPECT_TRUE(result.values_ok);
  EXPECT_EQ(tree_of(sim).value(), 200);
}

// Window-aware retirement (DESIGN.md §6). n = 81, k = 3, 16n ops
// issued round-robin in batches of W, each batch run to quiescence under
// uniform(1, 16) delays. With the paper's fixed 4k age, a 64-op window
// spends 14.2 forwards per op chasing retired roles (23.8 msgs/op,
// max_load 1166); roles that see more than k forwarded arrivals now
// hand their successor a doubled age, so the forwards all but vanish.
// At W = 1 almost nothing is forwarded, so every role keeps the base
// 4k and the run is message-for-message the fixed-4k run.
RunResult run_round_robin_batches(Simulator& sim, std::size_t window) {
  std::vector<ProcessorId> order;
  for (int round = 0; round < 16; ++round) {
    const auto lap = schedule_sequential(81);
    order.insert(order.end(), lap.begin(), lap.end());
  }
  return run_concurrent(sim, make_batches(order, window));
}

TEST(TreeCounter, WindowAwareRetirementKeepsOverlapNearOrderK) {
  TreeCounterParams params;
  params.k = 3;
  SimConfig cfg;
  cfg.seed = 7;
  cfg.delay = DelayModel::uniform(1, 16);
  const double ops = 16.0 * 81.0;

  Simulator wide = make_tree_sim(params, cfg);
  const RunResult w64 = run_round_robin_batches(wide, 64);
  EXPECT_TRUE(w64.values_ok);
  EXPECT_LE(static_cast<double>(tree_of(wide).stats().forwarded_messages) / ops,
            2.0);
  EXPECT_LE(static_cast<double>(w64.total_messages) / ops, 8.0);

  // The fixed-4k baseline at W = 1 (measured with the threshold pinned
  // at 4k): 12,624 messages, max_load 381.
  Simulator narrow = make_tree_sim(params, cfg);
  const RunResult w1 = run_round_robin_batches(narrow, 1);
  EXPECT_TRUE(w1.values_ok);
  EXPECT_EQ(w1.total_messages, 12'624);
  EXPECT_EQ(w1.max_load, 381);
  tree_of(narrow).deep_check();
}

}  // namespace
}  // namespace dcnt
