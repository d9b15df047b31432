#include "concurrent/history.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "support/check.hpp"

namespace dcnt {

namespace {

// Indices of `history` ordered by value, ties in history order. A dense
// run of values (every harness history: a counter hands out 0..m-1, or
// a slice of it) is placed by counting in O(m); sparser values pay one
// stable sort.
std::vector<std::size_t> order_by_value(
    const std::vector<CounterOpRecord>& history) {
  const std::size_t m = history.size();
  const auto [lo, hi] = std::minmax_element(
      history.begin(), history.end(),
      [](const CounterOpRecord& a, const CounterOpRecord& b) {
        return a.value < b.value;
      });
  // Unsigned wrap-around gives the exact width even across zero.
  const std::uint64_t span = static_cast<std::uint64_t>(hi->value) -
                             static_cast<std::uint64_t>(lo->value);
  std::vector<std::size_t> order(m);
  if (span < 2 * static_cast<std::uint64_t>(m)) {
    std::vector<std::size_t> next(span + 2, 0);
    const auto slot = [&](const CounterOpRecord& r) {
      return static_cast<std::size_t>(static_cast<std::uint64_t>(r.value) -
                                      static_cast<std::uint64_t>(lo->value));
    };
    for (const CounterOpRecord& r : history) ++next[slot(r) + 1];
    std::partial_sum(next.begin(), next.end(), next.begin());
    for (std::size_t i = 0; i < m; ++i) order[next[slot(history[i])]++] = i;
  } else {
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return history[a].value < history[b].value;
                     });
  }
  return order;
}

}  // namespace

LinearizabilityReport check_linearizable(
    const std::vector<CounterOpRecord>& history) {
  LinearizabilityReport report;
  if (history.empty()) return report;
  const std::vector<std::size_t> order = order_by_value(history);

  // A counter hands out distinct values; two ops returning the same
  // value cannot both be legal in any sequential witness, so duplicates
  // are violations in their own right (and would confuse the sweep
  // below, so they are rejected up front).
  for (std::size_t i = 1; i < order.size(); ++i) {
    const CounterOpRecord& a = history[order[i - 1]];
    const CounterOpRecord& b = history[order[i]];
    if (a.value != b.value) continue;
    ++report.duplicate_values;
    ++report.violations;
    if (report.linearizable) {
      report.linearizable = false;
      report.first_a = a.op;
      report.first_b = b.op;
    }
  }
  if (!report.linearizable) return report;

  // Sweep values downward, carrying the earliest response among the
  // larger values: B violates iff some op with a larger value responded
  // before inv(B). The earliest-invoked violator (ties: first in the
  // history) is reported as first_b.
  SimTime earliest_larger = std::numeric_limits<SimTime>::max();
  std::size_t first_b = order.size();
  for (std::size_t i = order.size(); i-- > 0;) {
    const CounterOpRecord& b = history[order[i]];
    if (earliest_larger < b.invoked) {
      ++report.violations;
      if (first_b == order.size() ||
          b.invoked < history[first_b].invoked ||
          (b.invoked == history[first_b].invoked && order[i] < first_b)) {
        first_b = order[i];
      }
    }
    earliest_larger = std::min(earliest_larger, b.responded);
  }
  if (report.violations == 0) return report;

  // first_a: the largest value among the ops that responded before
  // first_b was invoked.
  const CounterOpRecord& b = history[first_b];
  const CounterOpRecord* a = nullptr;
  for (const CounterOpRecord& r : history) {
    if (r.responded < b.invoked && (a == nullptr || r.value > a->value)) {
      a = &r;
    }
  }
  DCNT_CHECK(a != nullptr);
  report.linearizable = false;
  report.first_a = a->op;
  report.first_b = b.op;
  return report;
}

LinearizabilityReport check_inc_read_linearizable(
    const std::vector<CounterOpRecord>& incs,
    const std::vector<CounterOpRecord>& reads) {
  LinearizabilityReport report;
  if (reads.empty()) return report;

  // Sorted event times of the incs: lower bound for a read is how many
  // inc responses precede its invocation, upper bound how many inc
  // invocations precede its response. Binary searches over these give
  // both in O(log m) per read.
  std::vector<SimTime> inc_inv(incs.size());
  std::vector<SimTime> inc_resp(incs.size());
  for (std::size_t i = 0; i < incs.size(); ++i) {
    inc_inv[i] = incs[i].invoked;
    inc_resp[i] = incs[i].responded;
  }
  std::sort(inc_inv.begin(), inc_inv.end());
  std::sort(inc_resp.begin(), inc_resp.end());

  for (const CounterOpRecord& r : reads) {
    const auto lower = static_cast<Value>(
        std::lower_bound(inc_resp.begin(), inc_resp.end(), r.invoked) -
        inc_resp.begin());
    const auto upper = static_cast<Value>(
        std::lower_bound(inc_inv.begin(), inc_inv.end(), r.responded) -
        inc_inv.begin());
    if (r.value < lower || r.value > upper) {
      ++report.violations;
      if (report.linearizable) {
        report.linearizable = false;
        report.first_a = r.op;
        report.first_b = r.op;
      }
    }
  }

  // Read monotonicity: sweep reads by invocation time, carrying the
  // maximum value among reads that responded strictly earlier — the
  // same sweep check_linearizable runs, with <= instead of < (two
  // reads may legally observe the same count).
  std::vector<CounterOpRecord> by_inv = reads;
  std::sort(by_inv.begin(), by_inv.end(),
            [](const CounterOpRecord& a, const CounterOpRecord& b) {
              return a.invoked < b.invoked;
            });
  std::vector<CounterOpRecord> by_resp = reads;
  std::sort(by_resp.begin(), by_resp.end(),
            [](const CounterOpRecord& a, const CounterOpRecord& b) {
              return a.responded < b.responded;
            });
  std::size_t resp_idx = 0;
  Value max_read = -1;
  OpId max_read_op = kNoOp;
  for (const CounterOpRecord& b : by_inv) {
    while (resp_idx < by_resp.size() &&
           by_resp[resp_idx].responded < b.invoked) {
      if (by_resp[resp_idx].value > max_read) {
        max_read = by_resp[resp_idx].value;
        max_read_op = by_resp[resp_idx].op;
      }
      ++resp_idx;
    }
    if (max_read > b.value) {
      ++report.violations;
      if (report.linearizable) {
        report.linearizable = false;
        report.first_a = max_read_op;
        report.first_b = b.op;
      }
    }
  }
  return report;
}

namespace concurrent {

std::vector<CounterOpRecord> HistoryBuffer::snapshot(
    std::size_t first_op) const {
  std::vector<CounterOpRecord> out;
  out.reserve(slots_.size() > first_op ? slots_.size() - first_op : 0);
  for (std::size_t i = first_op; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    const std::int64_t resp = s.responded.load(std::memory_order_acquire);
    if (resp == 0) continue;  // never completed (or never issued)
    const std::int64_t inv = s.invoked.load(std::memory_order_acquire);
    DCNT_CHECK_MSG(inv != 0, "history slot completed but never invoked");
    CounterOpRecord rec;
    rec.op = static_cast<OpId>(i);
    rec.invoked = inv;
    rec.responded = resp;
    rec.value = s.value.load(std::memory_order_relaxed);
    out.push_back(rec);
  }
  return out;
}

}  // namespace concurrent
}  // namespace dcnt
