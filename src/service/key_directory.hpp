// Directory of per-key counter instances for the multi-key service
// fabric (src/service/multi_counter.hpp).
//
// Each named counter key owns one lazily created instance of the
// configured protocol. Routing is deterministic in (seed, key): a key's
// instance is the *same* protocol over the same n processors, rotated
// by offset(key) = mix64(seed ^ key) mod n, so structurally identical
// counters land their hot processor (the central holder, the tree root)
// on different fabric processors — the per-key bottleneck stays
// (the paper's bound is per instance) while the aggregate spreads.
//
// The LRU cold tier: when `capacity` is set and the protocol is
// service_evictable() (its durable state collapses to one Value), the
// least-recently-touched instance is retired at creation pressure — its
// value parks in a durable map — and is rebuilt from that value on the
// next touch. Evictions and rehydrations are appended to an ordered log
// so tests can pin the exact sequence under sequential schedules.
//
// The LRU index (kept only when `capacity` is set) is a min-heap of
// (stamp, key) records, one per live entry, read and written only
// under the unique lock; the hit path never touches it (touch() is one
// relaxed store of last_use). To pick a victim, pop the smallest
// record: if the entry's last_use still equals the popped stamp, that
// entry is the victim; otherwise push the record back with the current
// stamp and pop again. Exact: stamps are unique and every record's
// stamp is at most its entry's last_use (a record is written under the
// unique lock from the entry's stamp then, and every later touch draws
// a larger tick), so the first record that still matches carries the
// global minimum last_use — the least-recently-touched entry. Cost:
// O(log live) per eviction plus one O(log live) re-push per entry
// touched since its record was written, so a miss at capacity no
// longer scans every live entry.
//
// Concurrency: one std::shared_mutex. Dispatch into a live instance
// holds the lock shared for the duration of the inner handler (the
// inner protocol's own shard-safety covers concurrent handlers at
// different processors); creation, eviction and rehydration hold it
// unique, so no handler can be inside an instance while it is being
// destroyed. The runtime never re-enters the protocol from completion
// callbacks, so holding the lock across a handler cannot recurse.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/protocol.hpp"
#include "sim/types.hpp"

namespace dcnt::service {

struct KeyDirectoryOptions {
  /// Routing seed: offset(key) = mix64(seed ^ key) mod n. Must be
  /// identical on every node of a cluster or keys route inconsistently.
  std::uint64_t seed{1};
  /// Max live instances; 0 = unbounded (no eviction). Requires the
  /// prototype to be service_evictable() when nonzero.
  std::size_t capacity{0};
};

/// LRU tier counters. hits/misses/evicts/rehydrates; a rehydrate is
/// also counted as a miss (the instance was not live).
struct KeyDirectoryStats {
  std::int64_t hits{0};
  std::int64_t misses{0};
  std::int64_t evicts{0};
  std::int64_t rehydrates{0};
};

class KeyDirectory {
 public:
  struct Entry {
    std::unique_ptr<CounterProtocol> inner;
    /// Rotation of this key's instance: inner processor q lives at
    /// fabric processor (q + offset) mod n.
    ProcessorId offset{0};
    /// Operations completed through this instance (survives eviction).
    std::atomic<std::int64_t> completed{0};
    /// LRU recency stamp.
    std::atomic<std::uint64_t> last_use{0};
  };

  struct LogRecord {
    enum class Kind : std::uint8_t { kEvict, kRehydrate };
    Kind kind;
    KeyId key;
    bool operator==(const LogRecord&) const = default;
  };

  using Factory = std::function<std::unique_ptr<CounterProtocol>()>;

  /// `factory` builds a pristine instance; `n` is its processor count;
  /// `evictable` mirrors the prototype's service_evictable().
  KeyDirectory(Factory factory, std::int64_t n, bool evictable,
               KeyDirectoryOptions options);

  ProcessorId offset_of(KeyId key) const;

  /// Run `fn(entry)` with the key's live instance under the shared
  /// lock, creating (and possibly evicting another key) first if it is
  /// cold. `touch` stamps LRU recency and counts a hit on the fast
  /// path.
  template <typename Fn>
  void with_entry(KeyId key, Fn&& fn) {
    for (;;) {
      {
        std::shared_lock<std::shared_mutex> lock(mu_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
          touch(*it->second);
          hits_.fetch_add(1, std::memory_order_relaxed);
          fn(*it->second);
          return;
        }
      }
      ensure(key);
      // Retry: another creation may have evicted the key between our
      // unique and shared acquisitions.
    }
  }

  /// Called by the fabric's on_shard_start: remembers the worker count
  /// so future instances get their own on_shard_start, and forwards to
  /// instances already live.
  void on_shard_start(std::size_t workers);

  KeyDirectoryStats stats() const;
  std::vector<LogRecord> log() const;
  std::size_t live_instances() const;
  /// Sum of completed ops across live entries and the durable tier.
  std::int64_t total_completed() const;
  /// Run `fn(key, entry)` for every live entry (unique lock held).
  void for_each_live(
      const std::function<void(KeyId, const Entry&)>& fn) const;
  /// Final per-key durable values, live entries included (evictable
  /// prototypes only), sorted by key.
  std::vector<std::pair<KeyId, Value>> key_values() const;

  /// Deep-copies the other directory's state (instances cloned).
  void copy_state_from(const KeyDirectory& other);

 private:
  /// Durable residue of an evicted instance.
  struct Durable {
    Value value{0};
    std::int64_t completed{0};
  };

  /// LRU index record: an entry's last_use when the record was
  /// (re)written. Ordered by stamp only; stamps are unique.
  struct Stamp {
    std::uint64_t stamp;
    KeyId key;
    bool operator>(const Stamp& o) const { return stamp > o.stamp; }
  };

  void ensure(KeyId key);
  void evict_lru();
  void touch(Entry& e) {
    e.last_use.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  }

  Factory factory_;
  std::int64_t n_;
  bool evictable_;
  KeyDirectoryOptions options_;
  std::size_t workers_{0};

  mutable std::shared_mutex mu_;
  std::unordered_map<KeyId, std::unique_ptr<Entry>> entries_;
  std::unordered_map<KeyId, Durable> durable_;
  /// Min-heap on stamp, one record per live entry when `capacity` is
  /// set, empty otherwise (unique lock only).
  std::priority_queue<Stamp, std::vector<Stamp>, std::greater<>> lru_;
  std::vector<LogRecord> log_;
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<std::int64_t> hits_{0};
  std::int64_t misses_{0};
  std::int64_t evicts_{0};
  std::int64_t rehydrates_{0};
};

}  // namespace dcnt::service
