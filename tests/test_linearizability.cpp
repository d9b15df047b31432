// Linearizability of concurrent counting, after [HSW96] (cited by the
// paper): structures that serialize at a root (central, combining,
// the paper's tree) are linearizable; counting networks are famously
// only quiescently consistent — a stalled token lets a later-starting
// token fetch a smaller value.
#include "analysis/linearizability.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "baselines/central.hpp"
#include "baselines/combining_tree.hpp"
#include "baselines/counting_network.hpp"
#include "core/tree_counter.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/simulator.hpp"

namespace dcnt {
namespace {

CounterOpRecord rec(OpId op, SimTime inv, SimTime resp, Value value) {
  return CounterOpRecord{op, inv, resp, value};
}

TEST(Checker, EmptyAndSingletonAreLinearizable) {
  EXPECT_TRUE(check_linearizable({}).linearizable);
  EXPECT_TRUE(check_linearizable({rec(0, 0, 5, 0)}).linearizable);
}

TEST(Checker, SequentialHistoryLinearizable) {
  EXPECT_TRUE(check_linearizable({
                                     rec(0, 0, 1, 0),
                                     rec(1, 2, 3, 1),
                                     rec(2, 4, 5, 2),
                                 })
                  .linearizable);
}

TEST(Checker, ConcurrentOverlapMayReorderFreely) {
  // Both ops overlap; values may go either way.
  EXPECT_TRUE(check_linearizable({
                                     rec(0, 0, 10, 1),
                                     rec(1, 5, 8, 0),
                                 })
                  .linearizable);
}

TEST(Checker, DetectsRealTimeInversion) {
  // Op 0 finished with value 1 before op 1 started, yet op 1 got 0.
  const auto report = check_linearizable({
      rec(0, 0, 2, 1),
      rec(1, 5, 7, 0),
  });
  EXPECT_FALSE(report.linearizable);
  EXPECT_EQ(report.violations, 1);
  EXPECT_EQ(report.first_a, 0);
  EXPECT_EQ(report.first_b, 1);
}

TEST(Checker, EqualTimesAreNotAnInversion) {
  // resp(A) == inv(B): overlap boundary — allowed to reorder.
  EXPECT_TRUE(check_linearizable({
                                     rec(0, 0, 5, 1),
                                     rec(1, 5, 9, 0),
                                 })
                  .linearizable);
}

TEST(Checker, CountsAllViolations) {
  const auto report = check_linearizable({
      rec(0, 0, 1, 5),
      rec(1, 2, 3, 1),
      rec(2, 4, 6, 2),
      rec(3, 7, 8, 0),
  });
  EXPECT_FALSE(report.linearizable);
  EXPECT_EQ(report.violations, 3);  // ops 1, 2 and 3 all undercut op 0
}

// The three-sort sweep check_linearizable ran before it became a single
// pass by value, kept as a reference: sort by value to find duplicates,
// then sweep invocations in time order carrying the largest value among
// ops that responded strictly earlier. Stable sorts pin down the tie
// order the documented contract names (history order).
LinearizabilityReport reference_check(const std::vector<CounterOpRecord>& h) {
  LinearizabilityReport report;
  const auto sorted_by = [&](auto key) {
    std::vector<CounterOpRecord> out = h;
    std::stable_sort(out.begin(), out.end(),
                     [&](const CounterOpRecord& a, const CounterOpRecord& b) {
                       return key(a) < key(b);
                     });
    return out;
  };
  const auto by_value = sorted_by([](const CounterOpRecord& r) { return r.value; });
  for (std::size_t i = 1; i < by_value.size(); ++i) {
    if (by_value[i].value != by_value[i - 1].value) continue;
    ++report.duplicate_values;
    ++report.violations;
    if (report.linearizable) {
      report.linearizable = false;
      report.first_a = by_value[i - 1].op;
      report.first_b = by_value[i].op;
    }
  }
  if (!report.linearizable) return report;
  const auto by_inv = sorted_by([](const CounterOpRecord& r) { return r.invoked; });
  const auto by_resp =
      sorted_by([](const CounterOpRecord& r) { return r.responded; });
  std::size_t resp_idx = 0;
  Value max_value = -1;
  OpId max_op = kNoOp;
  for (const CounterOpRecord& b : by_inv) {
    while (resp_idx < by_resp.size() && by_resp[resp_idx].responded < b.invoked) {
      if (by_resp[resp_idx].value > max_value) {
        max_value = by_resp[resp_idx].value;
        max_op = by_resp[resp_idx].op;
      }
      ++resp_idx;
    }
    if (max_value > b.value) {
      ++report.violations;
      if (report.linearizable) {
        report.linearizable = false;
        report.first_a = max_op;
        report.first_b = b.op;
      }
    }
  }
  return report;
}

// Random histories in every shape the checker distinguishes: dense runs
// (counting placement) and sparse values (the sort path), distinct and
// duplicated values, linearizable assignments and ones with real-time
// inversions, with coarse clocks so equal timestamps are common.
TEST(Checker, MatchesTheThreeSortReferenceOnRandomHistories) {
  Rng rng(2024);
  int inverted = 0;
  int duplicated = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    const auto m = static_cast<std::size_t>(1 + rng.next_below(
                                                    trial % 10 == 0 ? 400 : 40));
    const bool dense = rng.next_below(2) == 0;
    const SimTime horizon = 1 + static_cast<SimTime>(rng.next_below(4 * m));
    std::vector<CounterOpRecord> h(m);
    std::vector<SimTime> point(m);
    for (std::size_t i = 0; i < m; ++i) {
      h[i].op = static_cast<OpId>(1000 + 7 * i);
      h[i].invoked = static_cast<SimTime>(rng.next_below(
          static_cast<std::uint64_t>(horizon)));
      h[i].responded =
          h[i].invoked + static_cast<SimTime>(rng.next_below(8));
      point[i] = h[i].invoked +
                 static_cast<SimTime>(rng.next_below(static_cast<std::uint64_t>(
                     h[i].responded - h[i].invoked + 1)));
    }
    // Values by linearization point: a linearizable assignment.
    std::vector<std::size_t> rank(m);
    std::iota(rank.begin(), rank.end(), std::size_t{0});
    std::stable_sort(rank.begin(), rank.end(),
                     [&](std::size_t a, std::size_t b) { return point[a] < point[b]; });
    const Value base = static_cast<Value>(rng.next_below(1000));
    Value sparse = base;
    for (std::size_t r = 0; r < m; ++r) {
      sparse += 1 + static_cast<Value>(rng.next_below(1'000'000));
      h[rank[r]].value = dense ? base + static_cast<Value>(r) : sparse;
    }
    // Inversions: swap a few values between random ops.
    if (rng.next_below(2) == 0) {
      for (std::uint64_t s = rng.next_below(4); s-- > 0;) {
        std::swap(h[rng.next_below(m)].value, h[rng.next_below(m)].value);
      }
    }
    // Duplicates: copy a value over another op's.
    if (rng.next_below(4) == 0) {
      h[rng.next_below(m)].value = h[rng.next_below(m)].value;
    }
    const LinearizabilityReport want = reference_check(h);
    const LinearizabilityReport got = check_linearizable(h);
    ASSERT_EQ(got.linearizable, want.linearizable) << "trial " << trial;
    ASSERT_EQ(got.violations, want.violations) << "trial " << trial;
    ASSERT_EQ(got.duplicate_values, want.duplicate_values) << "trial " << trial;
    ASSERT_EQ(got.first_a, want.first_a) << "trial " << trial;
    ASSERT_EQ(got.first_b, want.first_b) << "trial " << trial;
    inverted += want.duplicate_values == 0 && !want.linearizable ? 1 : 0;
    duplicated += want.duplicate_values > 0 ? 1 : 0;
  }
  // The generator must actually reach every branch.
  EXPECT_GT(inverted, 500);
  EXPECT_GT(duplicated, 500);
}

TEST(Checker, PermutationOfIotaIsExact) {
  EXPECT_TRUE(is_permutation_of_iota(std::vector<Value>{}));
  EXPECT_TRUE(is_permutation_of_iota(std::vector<Value>{2, 0, 1}));
  EXPECT_FALSE(is_permutation_of_iota(std::vector<Value>{0, 2}));
  EXPECT_FALSE(is_permutation_of_iota(std::vector<Value>{1, 1}));
  EXPECT_FALSE(is_permutation_of_iota(std::vector<Value>{-1, 0}));
  EXPECT_TRUE(is_permutation_of_iota<std::uint64_t>({6, 5}, 5));
  EXPECT_FALSE(is_permutation_of_iota<std::uint64_t>({4, 5}, 5));
}

// Staggered driver: operations are invoked while earlier ones are
// still in flight (a few deliveries apart), so real-time precedence
// pairs straddle live traffic — the regime where linearizability and
// quiescent consistency differ. Batch drivers cannot produce this: a
// quiescent point between batches restores the step property.
std::vector<CounterOpRecord> run_staggered_history(
    std::unique_ptr<CounterProtocol> counter, std::uint64_t seed,
    std::int64_t ops) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.delay = DelayModel::heavy_tail(1, 400);
  Simulator sim(std::move(counter), cfg);
  const auto n = static_cast<std::int64_t>(sim.num_processors());
  Rng rng(seed * 31 + 7);
  for (std::int64_t i = 0; i < ops; ++i) {
    sim.begin_inc(static_cast<ProcessorId>(i % n));
    // ~6 deliveries between invocations keeps a handful of ops in
    // flight while earlier ones finish — without this, nothing ever
    // responds before the next invocation and there are no real-time
    // precedence pairs to violate.
    const auto steps = rng.next_below(12);
    for (std::uint64_t s = 0; s < steps; ++s) {
      if (!sim.step()) break;
    }
  }
  sim.run_until_quiescent();
  return counter_history(sim);
}

TEST(Linearizability, TreeCounterIsLinearizableUnderConcurrency) {
  // The root incumbent serializes: if A responded before B was invoked,
  // A's root visit happened first, so val(A) < val(B).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    TreeCounterParams params;
    params.k = 3;
    auto history =
        run_staggered_history(std::make_unique<TreeCounter>(params), seed, 200);
    EXPECT_TRUE(check_linearizable(std::move(history)).linearizable)
        << "seed " << seed;
  }
}

TEST(Linearizability, CentralCounterIsLinearizable) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto history =
        run_staggered_history(std::make_unique<CentralCounter>(64), seed, 200);
    EXPECT_TRUE(check_linearizable(std::move(history)).linearizable)
        << "seed " << seed;
  }
}

TEST(Linearizability, CombiningTreeIsLinearizable) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    CombiningTreeParams params;
    params.n = 64;
    auto history = run_staggered_history(
        std::make_unique<CombiningTreeCounter>(params), seed, 200);
    EXPECT_TRUE(check_linearizable(std::move(history)).linearizable)
        << "seed " << seed;
  }
}

TEST(Linearizability, CountingNetworkIsNotLinearizable) {
  // [HSW96]'s separation, reproduced: across a handful of seeds with
  // heavy-tailed delays, some token stalls between its last balancer
  // and its output cell while a later token completes, and a third,
  // still later token then receives a smaller value.
  std::int64_t violations = 0;
  for (std::uint64_t seed = 1; seed <= 30 && violations == 0; ++seed) {
    CountingNetworkParams params;
    params.n = 32;
    params.width = 4;
    auto history = run_staggered_history(
        std::make_unique<CountingNetworkCounter>(params), seed, 200);
    violations += check_linearizable(std::move(history)).violations;
  }
  EXPECT_GT(violations, 0)
      << "no real-time inversion found — counting network behaved "
         "linearizably across all seeds, which contradicts [HSW96]";
}

TEST(Linearizability, SequentialRunsAreTriviallyLinearizable) {
  TreeCounterParams params;
  params.k = 2;
  SimConfig cfg;
  cfg.enable_trace = false;
  cfg.delay = DelayModel::uniform(1, 30);
  cfg.seed = 77;
  Simulator sim(std::make_unique<TreeCounter>(params), cfg);
  run_sequential(sim, schedule_sequential(8));
  EXPECT_TRUE(check_linearizable(counter_history(sim)).linearizable);
}

}  // namespace
}  // namespace dcnt
