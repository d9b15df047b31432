// FAULT — the bottleneck under an unfriendly network (DESIGN.md §8).
//
// The Bottleneck Theorem's O(k) is a statement about the protocol, not
// about a benign network. Message loss forces retransmissions and
// crash-stops force promotions, but both multiply per-channel traffic
// by a constant factor, so the bottleneck must stay Theta(k). Two
// sweeps over the paper's workload (one inc per live processor):
//
//   * drop sweep — reliable(tree(k)) under iid drop probability p:
//     max_load, max/k and the retransmission overhead vs p. The max/k
//     column must stay flat in k at every p (constant inflation in p,
//     no blow-up in n).
//   * crash sweep — the self-healing tree (journalled root + reliable
//     transport) with c incumbent crash-stops mid-sequence plus a
//     little background loss. Incumbents are pinned (age_threshold
//     effectively infinite) so the victims are known a priori; that
//     makes the root the bottleneck by construction, so the claim here
//     is relative: every inc still returns distinct consecutive values
//     (run_sequential aborts otherwise) and max_load stays within a
//     small constant factor of the same configuration's c=0 row while
//     crash_handovers counts the promotions.
//
// Emits a JSON baseline (default BENCH_faults.json; the checked-in copy
// at the repo root is the reference measurement).
//
// Flags: --k_list=2,3,4 --crash_k_list=2,3 --drops=0,0.02,0.05,0.1,0.2
//        --crash_list=0,1,2 --crash_drop=0.01 --ops_factor=1 --seed=97
//        --out=BENCH_faults.json
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "bench_util.hpp"
#include "core/tree_counter.hpp"
#include "core/tree_layout.hpp"
#include "faults/retry.hpp"
#include "harness/runner.hpp"
#include "sim/simulator.hpp"
#include "support/check.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

using namespace dcnt;

namespace {

/// One inc per live processor, round-robin, skipping the given pids.
std::vector<ProcessorId> live_order(std::int64_t n, std::int64_t ops,
                                    const std::vector<ProcessorId>& skip) {
  std::vector<ProcessorId> order;
  ProcessorId p = 0;
  while (static_cast<std::int64_t>(order.size()) < ops) {
    if (std::find(skip.begin(), skip.end(), p) == skip.end())
      order.push_back(p);
    p = static_cast<ProcessorId>((p + 1) % n);
  }
  return order;
}

struct DropPoint {
  int k{0};
  std::int64_t n{0};
  double drop{0.0};
  std::int64_t max_load{0};
  double load_per_k{0.0};
  std::int64_t total_messages{0};
  std::int64_t retransmissions{0};
  std::int64_t duplicates_suppressed{0};
  std::int64_t random_drops{0};
};

struct CrashPoint {
  int k{0};
  std::int64_t n{0};
  std::int64_t crashes{0};
  std::int64_t max_load{0};
  double load_per_k{0.0};
  std::int64_t crash_handovers{0};
  std::int64_t origin_retransmissions{0};
  std::int64_t backups_sent{0};
  std::int64_t transport_retransmissions{0};
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = parse_bench_flags(
      argc, argv,
      "FAULT: exact counting under message loss and crashes, and its message price",
      {"crash_drop", "crash_k_list", "crash_list", "drops", "k_list", "ops_factor", "out", "seed"});
  const auto k_list = parse_int_list(flags, "k_list", "2,3,4");
  const auto crash_k_list =
      parse_int_list(flags, "crash_k_list", "2,3");
  const auto drops =
      parse_double_list(flags, "drops", "0,0.02,0.05,0.1,0.2");
  const auto crash_list = parse_int_list(flags, "crash_list", "0,1,2");
  const double crash_drop = flags.get_double("crash_drop", 0.01);
  const std::int64_t ops_factor = flags.get_int("ops_factor", 1);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 97));
  const std::string out = flags.get_string("out", "BENCH_faults.json");

  // --- Drop sweep: plain tree under the reliable transport. -------------
  Table drop_table({"k", "n", "drop", "max_load", "max/k", "total_msgs",
                    "retransmits", "dups_supp", "drops_hit"});
  std::vector<DropPoint> drop_points;
  for (const std::int64_t k : k_list) {
    for (const double p : drops) {
      SimConfig cfg;
      cfg.seed = seed;
      cfg.delay = DelayModel::uniform(1, 4);
      cfg.faults.drop_probability = p;
      TreeCounterParams params;
      params.k = static_cast<int>(k);
      RetryParams retry;
      retry.ack_timeout = 8;
      retry.max_timeout = 64;
      retry.max_attempts = 20;
      Simulator sim(std::make_unique<ReliableTransport>(
                        std::make_unique<TreeCounter>(params), retry),
                    cfg);
      const auto n = static_cast<std::int64_t>(sim.num_processors());
      const RunResult res = run_sequential(sim, live_order(n, ops_factor * n, {}));
      DCNT_CHECK(res.values_ok);
      const LoadReport report = make_load_report(sim);
      const auto& transport =
          dynamic_cast<const ReliableTransport&>(sim.counter());
      DropPoint pt;
      pt.k = static_cast<int>(k);
      pt.n = n;
      pt.drop = p;
      pt.max_load = report.max_load;
      pt.load_per_k = static_cast<double>(report.max_load) / static_cast<double>(k);
      pt.total_messages = report.total_messages;
      pt.retransmissions = transport.stats().retransmissions;
      pt.duplicates_suppressed = transport.stats().duplicates_suppressed;
      pt.random_drops = sim.fault_plane().stats().random_drops;
      drop_points.push_back(pt);
      drop_table.row()
          .add(pt.k)
          .add(pt.n)
          .add(pt.drop, 2)
          .add(pt.max_load)
          .add(pt.load_per_k, 2)
          .add(pt.total_messages)
          .add(pt.retransmissions)
          .add(pt.duplicates_suppressed)
          .add(pt.random_drops);
    }
  }
  drop_table.print(std::cout,
                   "FAULT: bottleneck vs drop rate (paper workload; max/k "
                   "must stay flat in k at every drop rate)");

  // --- Crash sweep: self-healing tree, incumbents crash mid-sequence. ---
  Table crash_table({"k", "n", "crashes", "max_load", "max/k", "handovers",
                     "origin_rtx", "backups", "transport_rtx"});
  std::vector<CrashPoint> crash_points;
  for (const std::int64_t k : crash_k_list) {
    const TreeLayout layout(static_cast<int>(k));
    for (const std::int64_t c : crash_list) {
      SimConfig cfg;
      cfg.seed = seed;
      cfg.delay = DelayModel::uniform(1, 4);
      cfg.faults.drop_probability = c > 0 ? crash_drop : 0.0;
      TreeCounterParams params;
      params.k = static_cast<int>(k);
      params.age_threshold = 1'000'000'000;  // pin the initial incumbents
      params.self_healing = true;
      params.inc_retry_timeout = 48;
      RetryParams retry;
      retry.ack_timeout = 8;
      retry.max_timeout = 32;
      retry.max_attempts = 4;
      // Crash the root's processor first, then node 2's incumbent —
      // members of disjoint level-1 pools, so each loss is recoverable.
      std::vector<ProcessorId> victims;
      if (c >= 1) victims.push_back(layout.initial_pid(0));
      if (c >= 2) victims.push_back(layout.initial_pid(2));
      DCNT_CHECK_MSG(c <= 2, "crash sweep supports at most 2 crashes");
      auto counter = make_fault_tolerant_tree_counter(params, retry);
      const auto n = static_cast<std::int64_t>(counter->num_processors());
      const std::int64_t ops = ops_factor * n;
      // Land the crashes in the first half of the run: sequential ops
      // drain their retry timer, so one op takes about one retry period.
      for (std::size_t j = 0; j < victims.size(); ++j) {
        const SimTime at = static_cast<SimTime>(j + 1) * ops *
                           params.inc_retry_timeout /
                           (2 * static_cast<SimTime>(victims.size() + 1));
        cfg.faults.crashes.push_back({victims[j], at, -1});
      }
      Simulator sim(std::move(counter), cfg);
      const RunResult res = run_sequential(sim, live_order(n, ops, victims));
      DCNT_CHECK(res.values_ok);
      const LoadReport report = make_load_report(sim);
      const auto& transport =
          dynamic_cast<const ReliableTransport&>(sim.counter());
      const auto& tree = dynamic_cast<const TreeService&>(transport.inner());
      DCNT_CHECK_MSG(tree.stats().crash_handovers >= c,
                     "a scheduled crash was never detected");
      CrashPoint pt;
      pt.k = static_cast<int>(k);
      pt.n = n;
      pt.crashes = c;
      pt.max_load = report.max_load;
      pt.load_per_k = static_cast<double>(report.max_load) / static_cast<double>(k);
      pt.crash_handovers = tree.stats().crash_handovers;
      pt.origin_retransmissions = tree.stats().retransmissions;
      pt.backups_sent = tree.stats().backups_sent;
      pt.transport_retransmissions = transport.stats().retransmissions;
      crash_points.push_back(pt);
      crash_table.row()
          .add(pt.k)
          .add(pt.n)
          .add(pt.crashes)
          .add(pt.max_load)
          .add(pt.load_per_k, 2)
          .add(pt.crash_handovers)
          .add(pt.origin_retransmissions)
          .add(pt.backups_sent)
          .add(pt.transport_retransmissions);
    }
  }
  crash_table.print(std::cout,
                    "FAULT: bottleneck vs crash count (pinned incumbents; "
                    "values stay exact, max_load within a small constant of "
                    "the c=0 row while promotions replace the dead)");

  JsonWriter json(out);
  json.field("bench", "faults");
  json.field("seed", seed);
  json.field("ops_factor", ops_factor);
  json.begin_array("drop_sweep");
  for (const DropPoint& p : drop_points) {
    json.begin_object();
    json.field("k", p.k);
    json.field("n", p.n);
    json.field("drop", p.drop);
    json.field("max_load", p.max_load);
    json.field("load_per_k", p.load_per_k);
    json.field("total_messages", p.total_messages);
    json.field("retransmissions", p.retransmissions);
    json.field("random_drops", p.random_drops);
    json.end_object();
  }
  json.end_array();
  json.begin_array("crash_sweep");
  for (const CrashPoint& p : crash_points) {
    json.begin_object();
    json.field("k", p.k);
    json.field("n", p.n);
    json.field("crashes", p.crashes);
    json.field("max_load", p.max_load);
    json.field("load_per_k", p.load_per_k);
    json.field("crash_handovers", p.crash_handovers);
    json.field("backups_sent", p.backups_sent);
    json.end_object();
  }
  json.end_array();
  return 0;
}
