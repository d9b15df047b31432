// PERF-ADV — the adversary's step cost and how it scales with threads.
//
// The §3 adversary dry-runs O(n) candidates per committed op; before
// the snapshot/restore fast path each dry-run paid a full deep clone of
// the Simulator, which kept adversarial sweeps stuck at small n. This
// bench quantifies the three quantities that govern a sweep:
//
//   * clone_us    — a fresh deep copy (the old per-dry-run cost),
//   * restore_us  — re-applying the same state into a warm scratch
//                   simulator (the new per-dry-run cost),
//   * dry-run throughput and run_adversarial_sequence wall time at
//     1/2/4/max threads, asserting the results stay bit-identical.
//
// Emits a JSON baseline (default BENCH_adversary.json; the checked-in
// copy at the repo root is the reference measurement for regression
// comparisons).
//
// Flags: --counter=combining --n_list=64,256,1024 --threads_list=1,2,4,0
//        --full_max_n=256 --sample=64 --schedule_samples=1 --seed=173
//        --repeats=3 --out=BENCH_adversary.json
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/adversary.hpp"
#include "bench_util.hpp"
#include "harness/factory.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/simulator.hpp"
#include "support/check.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

using namespace dcnt;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CloneCost {
  std::int64_t n{0};
  double clone_us{0};
  double restore_us{0};
  double dryrun_us{0};  ///< restore + one inc + quiescence, serial
};

CloneCost measure_clone_cost(CounterKind kind, std::int64_t n,
                             std::uint64_t seed) {
  SimConfig cfg;
  cfg.seed = seed;
  Simulator sim(make_counter(kind, n), cfg);
  const auto procs = static_cast<std::int64_t>(sim.num_processors());
  run_sequential(sim, schedule_sequential(procs / 2));  // mid-sweep state

  CloneCost cost;
  cost.n = procs;
  const int reps = 200;
  {
    const double t0 = now_ms();
    for (int r = 0; r < reps; ++r) {
      Simulator clone(sim);
      DCNT_CHECK(clone.ops_started() == sim.ops_started());
    }
    cost.clone_us = (now_ms() - t0) * 1000.0 / reps;
  }
  {
    Simulator scratch(sim);
    const double t0 = now_ms();
    for (int r = 0; r < reps; ++r) {
      scratch.restore(sim);
      DCNT_CHECK(scratch.ops_started() == sim.ops_started());
    }
    cost.restore_us = (now_ms() - t0) * 1000.0 / reps;
  }
  {
    Simulator scratch(sim);
    const double t0 = now_ms();
    for (int r = 0; r < reps; ++r) {
      scratch.restore(sim);
      const OpId op =
          scratch.begin_inc(static_cast<ProcessorId>(r % procs));
      scratch.run_until_quiescent();
      DCNT_CHECK(scratch.result(op).has_value());
    }
    cost.dryrun_us = (now_ms() - t0) * 1000.0 / reps;
  }
  return cost;
}

struct SweepPoint {
  std::int64_t n{0};
  std::size_t sample_candidates{0};
  std::size_t threads_requested{0};
  std::size_t threads_used{0};
  double wall_ms{0};
  std::int64_t max_load{0};
  double paper_k{0};
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = parse_bench_flags(
      argc, argv,
      "PERF-ADV: adversary/explorer scaling — clone cost, dry-run throughput, thread scaling",
      {"counter", "full_max_n", "n_list", "out", "repeats", "sample", "schedule_samples", "seed", "threads", "threads_list"});
  const CounterKind kind = read_counter_kind(flags, "counter", "combining");
  const auto n_list = parse_int_list(flags, "n_list", "64,256,1024");
  // 0 in threads_list = auto via the shared knob (--threads, then the
  // DCNT_THREADS env, else all hardware threads).
  const auto threads_list =
      parse_int_list(flags, "threads_list", "1,2,4,0");
  const std::int64_t full_max_n = flags.get_int("full_max_n", 256);
  const auto sample = static_cast<std::size_t>(flags.get_int("sample", 64));
  const auto schedule_samples =
      static_cast<std::size_t>(flags.get_int("schedule_samples", 1));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 173));
  const int repeats = static_cast<int>(flags.get_int("repeats", 3));
  const std::string out = flags.get_string("out", "BENCH_adversary.json");

  Table clone_table({"n", "clone_us", "restore_us", "dryrun_us", "restore/clone"});
  std::vector<CloneCost> clone_costs;
  for (const std::int64_t n : n_list) {
    const CloneCost cost = measure_clone_cost(kind, n, seed);
    clone_costs.push_back(cost);
    clone_table.row()
        .add(cost.n)
        .add(cost.clone_us, 2)
        .add(cost.restore_us, 2)
        .add(cost.dryrun_us, 2)
        .add(cost.restore_us / std::max(cost.clone_us, 1e-9), 2);
  }
  clone_table.print(std::cout,
                    "PERF-ADV: per-snapshot cost (" + to_string(kind) +
                        "); restore() is the adversary's per-dry-run price");

  Table sweep_table(
      {"n", "candidates", "threads", "wall_ms", "speedup_vs_1t", "max_load"});
  std::vector<SweepPoint> sweep;
  for (const std::int64_t n : n_list) {
    double wall_1t = 0;
    const AdversaryResult* reference = nullptr;
    AdversaryResult first;
    for (const std::int64_t threads : threads_list) {
      SimConfig cfg;
      cfg.seed = seed;
      Simulator base(make_counter(kind, n), cfg);
      AdversaryOptions options;
      options.seed = seed;
      options.schedule_samples = schedule_samples;
      // Full greedy up to full_max_n; sampled candidates beyond it.
      options.sample_candidates = n <= full_max_n ? 0 : sample;
      options.threads = threads == 0 ? threads_from_flags(flags)
                                     : static_cast<std::size_t>(threads);
      double best_ms = 0;
      AdversaryResult result;
      for (int r = 0; r < repeats; ++r) {
        const double t0 = now_ms();
        result = run_adversarial_sequence(base, options);
        const double ms = now_ms() - t0;
        if (r == 0 || ms < best_ms) best_ms = ms;
      }
      // Bit-identical across thread counts, or the reduction is broken.
      if (reference == nullptr) {
        first = result;
        reference = &first;
      } else {
        DCNT_CHECK_MSG(result.steps.size() == reference->steps.size() &&
                           result.max_load == reference->max_load &&
                           result.bottleneck == reference->bottleneck &&
                           result.total_messages == reference->total_messages,
                       "thread count changed the AdversaryResult");
        for (std::size_t i = 0; i < result.steps.size(); ++i) {
          DCNT_CHECK(result.steps[i].chosen == reference->steps[i].chosen &&
                     result.steps[i].messages == reference->steps[i].messages);
        }
      }
      SweepPoint point;
      point.n = static_cast<std::int64_t>(base.num_processors());
      point.sample_candidates = options.sample_candidates;
      point.threads_requested = options.threads;
      point.threads_used = resolve_thread_count(options.threads);
      point.wall_ms = best_ms;
      point.max_load = result.max_load;
      point.paper_k = result.paper_k;
      sweep.push_back(point);
      if (threads == 1) wall_1t = best_ms;
      sweep_table.row()
          .add(point.n)
          .add(point.sample_candidates == 0
                   ? std::string("all")
                   : std::to_string(point.sample_candidates))
          .add(static_cast<std::int64_t>(point.threads_used))
          .add(point.wall_ms, 1)
          .add(wall_1t > 0 ? wall_1t / point.wall_ms : 0.0, 2)
          .add(point.max_load);
    }
  }
  sweep_table.print(std::cout,
                    "PERF-ADV: run_adversarial_sequence wall time vs threads "
                    "(results verified bit-identical)");

  JsonWriter json(out);
  json.field("bench", "adversary_scale");
  json.field("counter", to_string(kind));
  json.field("schedule_samples", schedule_samples);
  json.field("seed", seed);
  json.field("hardware_threads", default_thread_count());
  json.begin_array("snapshot_cost");
  for (const CloneCost& c : clone_costs) {
    json.begin_object();
    json.field("n", c.n);
    json.field("clone_us", c.clone_us);
    json.field("restore_us", c.restore_us);
    json.field("dryrun_us", c.dryrun_us);
    json.end_object();
  }
  json.end_array();
  json.begin_array("adversary");
  for (const SweepPoint& p : sweep) {
    json.begin_object();
    json.field("n", p.n);
    json.field("sample_candidates", p.sample_candidates);
    json.field("threads", p.threads_used);
    json.field("wall_ms", p.wall_ms, 2);
    json.field("max_load", p.max_load);
    json.field("paper_k", p.paper_k);
    json.end_object();
  }
  json.end_array();
  return 0;
}
