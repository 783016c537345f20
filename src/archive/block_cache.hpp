// Bounded LRU cache of DECODED blocks for the archive serving path, keyed
// by (field index, block index).  A hot-region read that hits skips the
// pread, the CRC pass, and the whole entropy+reconstruction decode — the
// scatter copies straight out of the cached vector.
//
// Thread-safety: one mutex guards the recency list + index map; the cached
// vectors themselves are immutable and handed out as shared_ptr<const ...>,
// so readers scatter from them without holding the lock, and eviction can
// never free a block another thread is still copying from.
//
// Capacity is in decoded BYTES.  Capacity 0 (the default) disables the
// cache outright: get() always misses and put() is a no-op, so a reader
// that never opts in pays one branch per block and nothing else.  An entry
// larger than the whole capacity is never admitted.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.hpp"

namespace sz14::archive {

class BlockCache {
 public:
  /// Resize the budget; shrinking evicts LRU-first until resident bytes
  /// fit.  Safe to call concurrently with get()/put().
  void set_capacity(std::size_t bytes);

  [[nodiscard]] std::size_t capacity() const noexcept {
    return capacity_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept { return capacity() > 0; }

  /// Hit, miss and eviction counts (since construction or reset_stats()),
  /// the decoded bytes resident now and the byte budget.
  [[nodiscard]] Metrics metrics() const;

  void reset_stats() noexcept {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
  }

  /// Lookup; null on miss.  The element type is pinned per field (the
  /// reader validates dtype before decoding), and a stored-type mismatch
  /// is treated as a miss rather than a cast.
  template <typename T>
  [[nodiscard]] std::shared_ptr<const std::vector<T>> get(std::size_t field,
                                                          std::size_t block) {
    return std::static_pointer_cast<const std::vector<T>>(
        get_erased(field, block, sizeof(T)));
  }

  /// Insert (or refresh) a decoded block.  No-op when disabled or when the
  /// entry alone exceeds the capacity.
  template <typename T>
  void put(std::size_t field, std::size_t block,
           std::shared_ptr<const std::vector<T>> data) {
    const std::size_t bytes = data->size() * sizeof(T);
    put_erased(field, block, sizeof(T),
               std::static_pointer_cast<const void>(std::move(data)), bytes);
  }

  /// Drop every entry (stats are kept; use reset_stats() for those).
  void clear();

 private:
  struct Key {
    std::size_t field;
    std::size_t block;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      // Fibonacci-mix the field id so (f, b) and (b, f) don't collide.
      return k.field * 0x9E3779B97F4A7C15ull ^ k.block;
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const void> data;
    std::size_t bytes;
    std::size_t elem_size;
  };

  [[nodiscard]] std::shared_ptr<const void> get_erased(std::size_t field,
                                                       std::size_t block,
                                                       std::size_t elem_size);
  void put_erased(std::size_t field, std::size_t block, std::size_t elem_size,
                  std::shared_ptr<const void> data, std::size_t bytes);

  /// Drop LRU entries until resident bytes fit `budget`.  Caller holds
  /// mutex_; freed vectors are moved into `graveyard` so their (possibly
  /// large) deallocation happens after the lock is released.
  void evict_to(std::size_t budget,
                std::vector<std::shared_ptr<const void>>& graveyard);

  std::mutex mutex_;                // guards lru_ + map_
  std::list<Entry> lru_;            // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_;
  std::atomic<std::size_t> capacity_{0};
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace sz14::archive
