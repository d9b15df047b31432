#include "harness/runner.hpp"

#include <algorithm>

#include "concurrent/history.hpp"
#include "support/check.hpp"

namespace dcnt {

namespace {

RunResult finish(Simulator& sim, std::vector<Value> values, bool ok) {
  RunResult res;
  res.values = std::move(values);
  res.max_load = sim.metrics().max_load();
  res.bottleneck = sim.metrics().bottleneck();
  res.total_messages = sim.metrics().total_messages();
  // Every message is sent once and received once.
  res.mean_load = sim.num_processors() == 0
                      ? 0.0
                      : 2.0 * static_cast<double>(res.total_messages) /
                            static_cast<double>(sim.num_processors());
  res.values_ok = ok;
  return res;
}

}  // namespace

RunResult run_sequential(Simulator& sim, const std::vector<ProcessorId>& order,
                         const RunOptions& options) {
  std::vector<Value> values;
  values.reserve(order.size());
  const auto base = static_cast<Value>(sim.ops_started());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const OpId op = sim.begin_inc(order[i]);
    sim.run_until_quiescent(options.max_steps_per_op);
    const auto result = sim.result(op);
    DCNT_CHECK_MSG(result.has_value(), "inc did not complete at quiescence");
    DCNT_CHECK_MSG(*result == base + static_cast<Value>(i),
                   "sequential inc returned a wrong value");
    values.push_back(*result);
    if (options.check_each_op) {
      sim.counter().check_quiescent(sim.ops_completed());
    }
  }
  return finish(sim, std::move(values), true);
}

RunResult run_concurrent(Simulator& sim,
                         const std::vector<std::vector<ProcessorId>>& batches,
                         const RunOptions& options) {
  std::vector<OpId> ops;
  for (const auto& batch : batches) {
    for (const ProcessorId p : batch) ops.push_back(sim.begin_inc(p));
    sim.run_until_quiescent(options.max_steps_per_op *
                            static_cast<std::int64_t>(batch.size() + 1));
  }
  std::vector<Value> values;
  values.reserve(ops.size());
  for (const OpId op : ops) {
    const auto result = sim.result(op);
    DCNT_CHECK_MSG(result.has_value(), "inc did not complete at quiescence");
    values.push_back(*result);
  }
  // The values handed out must be exactly 0..m-1 (each exactly once).
  const bool ok = is_permutation_of_iota(values);
  DCNT_CHECK_MSG(ok, "concurrent incs did not hand out distinct 0..m-1");
  return finish(sim, std::move(values), ok);
}

std::vector<std::vector<ProcessorId>> make_batches(
    const std::vector<ProcessorId>& order, std::size_t width) {
  DCNT_CHECK(width > 0);
  std::vector<std::vector<ProcessorId>> batches;
  for (std::size_t i = 0; i < order.size(); i += width) {
    batches.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(i),
                         order.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(i + width, order.size())));
  }
  return batches;
}

}  // namespace dcnt
