// Multi-process cluster harness: the controller side of the socket
// runtime (src/net/).
//
// run_cluster spawns `nodes` dcnt_node processes on localhost, waits
// for the Hello/Peers/Ready mesh handshake, then plays the same
// closed-/open-loop workload shapes as runtime/workload.hpp against the
// cluster: Start frames out, Complete frames back, latency stamped at
// the controller with the same steady_clock machinery. Afterwards it
// runs the distributed-quiescence barrier (repeated StatsRequest/Stats
// rounds; quiescent when two consecutive rounds show identical per-node
// progress, no unacked envelopes or armed timers anywhere, and — on the
// reliable TCP plane — wire sends equal to wire receives), merges the
// per-processor loads (exact: each processor is owned by one node), and
// verifies the counter's observable contract: the returned values are a
// permutation of 0..ops-1.
//
// The node binary is found via ClusterOptions::node_binary, then the
// DCNT_NODE_BIN environment variable, then next to /proc/self/exe
// (covers running from build/tests, build/bench and build/examples).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/retry.hpp"
#include "harness/report.hpp"
#include "sim/types.hpp"
#include "support/stats.hpp"
#include "traffic/load.hpp"

namespace dcnt::net {

/// The traffic knobs come from traffic::LoadSpec with cluster meanings:
/// `warmup` ops run closed-loop before the measured phase, and after
/// they complete and the cluster passes a full quiescence barrier the
/// controller broadcasts kMetricsReset (nodes zero their message-load
/// metrics and re-baseline their wire counters) before the measured ops
/// start — connection setup, allocator cold-start and first-touch page
/// faults land outside the numbers. `inflight` is the closed-loop depth
/// per slot (window = concurrency * inflight, capped at ops); depth > 1
/// departs from the paper's one-op-at-a-time client model — values are
/// still verified and the barrier still runs at phase boundaries, but
/// per-op latency includes queueing behind the same slot's earlier ops.
/// A duration_s budget still drains every issued op through the
/// barrier. `lin_check` captures the history at the controller and runs
/// check_linearizable over the real TCP/UDP history (skipped in
/// multi-key mode).
///
/// The keyspace comes from KeyedOptions: keys > 0 selects multi-key
/// mode — every node wraps its counter in a service/MultiCounter fabric
/// and each op addresses one key (StartFrame args = {key}); the per-key
/// contract (each key's values form a permutation of 0..ops_k-1)
/// replaces the global one. key_capacity caps live instances per node
/// (requires a service-evictable counter).
struct ClusterOptions : traffic::LoadSpec, KeyedOptions {
  /// Counter kind accepted by harness/factory.hpp; a multi-node cluster
  /// requires it to be shard_safe().
  std::string counter{"tree"};
  std::int64_t min_processors{16};
  std::uint32_t nodes{4};
  /// 0 = 8 * actual processor count (the throughput harness default).
  std::size_t ops{0};
  /// "roundrobin" | "uniform" | "zipf" (harness/schedule.hpp).
  std::string initiators{"roundrobin"};
  double zipf_s{0.99};
  /// Closed-loop client slots; used when open_rate == 0.
  std::size_t concurrency{8};
  /// Run the quiescence barrier after every completion before issuing
  /// the next op (forces a window of 1 whatever concurrency and
  /// inflight say). This is the sequential schedule in the simulator's
  /// sense: an op's *entire* message activity — including trailing
  /// maintenance traffic the protocol emits after completing (e.g. tree
  /// retirement) — settles before the next op starts. For protocols
  /// whose per-op traffic is a single causal chain (central,
  /// static-tree) this makes runs deterministic in (seed, schedule)
  /// down to per-processor loads; protocols that fork concurrent
  /// branches within an op (the dynamic tree's handover handshake
  /// racing the inc's reply) stay deterministic in *values* but may
  /// shift a constant number of forwarding messages between runs,
  /// exactly as in the asynchronous simulator under non-fixed delay
  /// models. Completion alone is not enough even for chains: the next
  /// Start would race leftover maintenance messages across nodes.
  bool quiesce_between_ops{false};
  /// Data plane: false = TCP mesh, true = lossy UDP behind the reliable
  /// transport.
  bool udp{false};
  /// Seeded sender-side datagram loss (UDP mode).
  double drop_probability{0.0};
  /// Wall microseconds per logical tick in the nodes (timer delays).
  std::int64_t tick_us{200};
  RetryParams retry{};
  /// Whole-run wall-clock budget; exceeding it aborts the harness (and
  /// the orphaned nodes exit on losing their controller connection).
  double timeout_seconds{120.0};
  /// Override the dcnt_node binary path (tests, cross-directory runs).
  std::string node_binary;
  /// Event-loop threads per node (peer links sharded by id % loops).
  std::uint32_t loops{1};
  /// Protocol worker shards per node's ThreadedRuntime. 0 = inline
  /// drive: the node spawns no worker threads and its event loop runs
  /// the single shard itself (requires loops == 1; see NodeConfig).
  std::uint32_t shards_per_node{1};
  /// Reactor backend for the nodes AND the controller: "" = platform
  /// default, "epoll" or "poll" (the parity tests pin both).
  std::string backend;
  /// Multi-key batched RPC: issue this many consecutive schedule
  /// entries as one kStartBatch frame per touched node, with the
  /// closed-loop window counted in batches (concurrency * inflight of
  /// them). Nodes coalesce the replies into kCompleteBatch frames per
  /// drain round regardless. 1 = unbatched keyed Starts; forced to 1
  /// under quiesce_between_ops and open-loop issuance.
  std::size_t batch{1};
};

/// RunReport's `n` is the protocol's processor count; values_ok covers
/// warmup and measured values together (per key in multi-key mode).
/// KeyedReport's fields stay zero unless options.keys > 0; its LRU
/// counters are summed across the nodes' directories.
struct ClusterResult : RunReport, KeyedReport {
  std::uint32_t nodes{0};
  std::vector<std::int64_t> load;  ///< m_p per processor

  /// Wire-level accounting, summed across nodes.
  std::int64_t wire_msgs_sent{0};
  std::int64_t wire_msgs_received{0};
  std::int64_t wire_bytes_sent{0};
  std::int64_t wire_bytes_received{0};
  std::int64_t injected_drops{0};
  std::int64_t retransmissions{0};
  std::int64_t duplicates_suppressed{0};
  std::int64_t messages_abandoned{0};
  /// Kernel write syscalls the data planes issued (TCP send() calls
  /// that moved bytes; one sendto per datagram in UDP mode).
  /// wire_bytes_sent / wire_write_syscalls = bytes per write, the
  /// direct observable for send coalescing.
  std::int64_t wire_write_syscalls{0};

  /// StatsRequest rounds the quiescence barrier took.
  int quiesce_rounds{0};
  /// Per-op returned values, warmup ops first (size warmup + ops).
  std::vector<Value> values;
  /// Multi-key mode: which key each op addressed (size warmup + ops) —
  /// pairs with `values` for per-key verification.
  std::vector<KeyId> key_of_op;
};

ClusterResult run_cluster(const ClusterOptions& options);

}  // namespace dcnt::net
