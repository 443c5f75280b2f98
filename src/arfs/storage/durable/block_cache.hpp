// Byte-budgeted LRU block cache.
//
// The storage engine uses it to keep *decoded* device blocks in memory so a
// recovery or crash-sweep restore that re-reads an unchanged device can skip
// the decode (CRC walk, varint/string parsing, per-record allocations)
// entirely: it caches whole journal scans content-addressed by (size,
// FNV-1a of the device bytes).
//
// The cache is a performance layer only: every consumer must produce
// bit-identical results on a hit and on a miss, so hit/miss counts live in
// DurabilityStats (never in a digest) and the determinism contract is
// untouched. Values above the byte capacity are simply not cached.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <utility>

namespace arfs::storage::durable {

template <typename V>
class BlockCache {
 public:
  /// 128-bit content address, defined by the user: the journal scan cache
  /// uses (journal size, byte fingerprint).
  struct Key {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    friend bool operator<(const Key& a, const Key& b) {
      return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
    }
    friend bool operator==(const Key& a, const Key& b) {
      return a.hi == b.hi && a.lo == b.lo;
    }
  };

  explicit BlockCache(std::size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// Returns the cached value (bumping its recency) or nullptr. The pointer
  /// is valid until the next insert().
  [[nodiscard]] const V* find(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->value;
  }

  /// Inserts (or replaces) `key`, evicting least-recently-used entries until
  /// the byte budget holds. A value whose charge alone exceeds the capacity
  /// is not cached at all — caching it would just evict everything else.
  /// Returns the number of entries evicted.
  std::uint64_t insert(const Key& key, V value, std::size_t charge) {
    if (charge > capacity_) return 0;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      charge_ -= it->second->charge;
      it->second->value = std::move(value);
      it->second->charge = charge;
      charge_ += charge;
      lru_.splice(lru_.begin(), lru_, it->second);
    } else {
      lru_.push_front(Entry{key, std::move(value), charge});
      index_.emplace(key, lru_.begin());
      charge_ += charge;
    }
    std::uint64_t evicted = 0;
    while (charge_ > capacity_ && lru_.size() > 1) {
      const Entry& victim = lru_.back();
      charge_ -= victim.charge;
      index_.erase(victim.key);
      lru_.pop_back();
      ++evicted;
    }
    return evicted;
  }

  [[nodiscard]] std::size_t charge() const { return charge_; }
  [[nodiscard]] std::size_t entries() const { return lru_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    Key key;
    V value;
    std::size_t charge = 0;
  };

  std::size_t capacity_;
  std::size_t charge_ = 0;
  std::list<Entry> lru_;  ///< Front = most recently used.
  std::map<Key, typename std::list<Entry>::iterator> index_;
};

}  // namespace arfs::storage::durable
