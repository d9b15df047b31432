#include "service/key_directory.hpp"

#include <algorithm>
#include <mutex>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace dcnt::service {

KeyDirectory::KeyDirectory(Factory factory, std::int64_t n, bool evictable,
                           KeyDirectoryOptions options)
    : factory_(std::move(factory)),
      n_(n),
      evictable_(evictable),
      options_(options) {
  DCNT_CHECK(n_ > 0);
  DCNT_CHECK_MSG(options_.capacity == 0 || evictable_,
                 "a bounded key directory requires a service_evictable() "
                 "protocol (its state must collapse to one durable value)");
}

ProcessorId KeyDirectory::offset_of(KeyId key) const {
  return static_cast<ProcessorId>(
      mix64(options_.seed ^ static_cast<std::uint64_t>(key)) %
      static_cast<std::uint64_t>(n_));
}

void KeyDirectory::ensure(KeyId key) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (entries_.find(key) != entries_.end()) return;
  if (options_.capacity > 0) {
    while (entries_.size() >= options_.capacity) evict_lru();
  }
  auto entry = std::make_unique<Entry>();
  entry->inner = factory_();
  DCNT_CHECK(entry->inner != nullptr);
  if (workers_ > 0) entry->inner->on_shard_start(workers_);
  entry->offset = offset_of(key);
  ++misses_;
  const auto parked = durable_.find(key);
  if (parked != durable_.end()) {
    entry->inner->service_rehydrate(parked->second.value);
    entry->completed.store(parked->second.completed,
                           std::memory_order_relaxed);
    durable_.erase(parked);
    log_.push_back({LogRecord::Kind::kRehydrate, key});
    ++rehydrates_;
  }
  touch(*entry);
  if (options_.capacity > 0) {
    lru_.push({entry->last_use.load(std::memory_order_relaxed), key});
  }
  entries_.emplace(key, std::move(entry));
}

// Retire the least-recently-touched instance (unique lock held). Safe
// at any moment for evictable protocols: their cross-op state is
// exactly the durable value, so in-flight messages for the evicted key
// simply rehydrate it on delivery and proceed.
void KeyDirectory::evict_lru() {
  for (;;) {
    DCNT_CHECK(!lru_.empty());
    const Stamp top = lru_.top();
    lru_.pop();
    const auto victim = entries_.find(top.key);
    DCNT_CHECK(victim != entries_.end());
    const auto stamp = victim->second->last_use.load(std::memory_order_relaxed);
    if (stamp != top.stamp) {
      // Touched since this record was written: revalidate and retry.
      lru_.push({stamp, top.key});
      continue;
    }
    durable_[victim->first] =
        Durable{victim->second->inner->service_value(),
                victim->second->completed.load(std::memory_order_relaxed)};
    log_.push_back({LogRecord::Kind::kEvict, victim->first});
    ++evicts_;
    entries_.erase(victim);
    return;
  }
}

void KeyDirectory::on_shard_start(std::size_t workers) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  workers_ = workers;
  for (auto& [key, entry] : entries_) entry->inner->on_shard_start(workers);
}

KeyDirectoryStats KeyDirectory::stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  KeyDirectoryStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_;
  s.evicts = evicts_;
  s.rehydrates = rehydrates_;
  return s;
}

std::vector<KeyDirectory::LogRecord> KeyDirectory::log() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return log_;
}

std::size_t KeyDirectory::live_instances() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.size();
}

std::int64_t KeyDirectory::total_completed() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::int64_t total = 0;
  for (const auto& [key, entry] : entries_) {
    total += entry->completed.load(std::memory_order_relaxed);
  }
  for (const auto& [key, parked] : durable_) total += parked.completed;
  return total;
}

void KeyDirectory::for_each_live(
    const std::function<void(KeyId, const Entry&)>& fn) const {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (const auto& [key, entry] : entries_) fn(key, *entry);
}

std::vector<std::pair<KeyId, Value>> KeyDirectory::key_values() const {
  DCNT_CHECK_MSG(evictable_,
                 "key_values() reads service_value(); the configured "
                 "protocol does not expose a durable value");
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::vector<std::pair<KeyId, Value>> out;
  out.reserve(entries_.size() + durable_.size());
  for (const auto& [key, entry] : entries_) {
    out.emplace_back(key, entry->inner->service_value());
  }
  for (const auto& [key, parked] : durable_) {
    out.emplace_back(key, parked.value);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void KeyDirectory::copy_state_from(const KeyDirectory& other) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::shared_lock<std::shared_mutex> other_lock(other.mu_);
  entries_.clear();
  for (const auto& [key, entry] : other.entries_) {
    auto copy = std::make_unique<Entry>();
    copy->inner = entry->inner->clone_counter();
    copy->offset = entry->offset;
    copy->completed.store(entry->completed.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    copy->last_use.store(entry->last_use.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    entries_.emplace(key, std::move(copy));
  }
  durable_ = other.durable_;
  lru_ = other.lru_;
  log_ = other.log_;
  workers_ = other.workers_;
  tick_.store(other.tick_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  hits_.store(other.hits_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  misses_ = other.misses_;
  evicts_ = other.evicts_;
  rehydrates_ = other.rehydrates_;
}

}  // namespace dcnt::service
