// Single-flight map for the archive serving path: when N threads race to
// decode the SAME (field, block) — the signature load of a hot serving
// daemon, where many clients ask for overlapping regions — exactly one
// thread (the leader) performs the pread+CRC+decode and every concurrent
// follower blocks until the leader publishes, then shares the decoded
// vector.  N concurrent reads of one block cost one decode instead of N.
//
// This sits IN FRONT of the BlockCache: the cache deduplicates *repeat*
// reads across time, the single-flight map deduplicates *simultaneous*
// reads — with both enabled a cold concurrent burst decodes each block
// exactly once (the leader re-probes the cache after winning leadership,
// so a decode finishing between a follower's cache miss and its begin()
// call can never cause a duplicate decode).
//
// Entries exist only while a decode is in flight: begin() inserts, the
// leader's publish() removes.  A leader that fails publishes the exception
// instead, so followers rethrow rather than hang.  Values are type-erased
// (shared_ptr<const void>) exactly like BlockCache storage; the element
// type is pinned per field by the reader's dtype check, so a (field,
// block) key can never be requested at two types concurrently.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/metrics.hpp"

namespace sz14::archive {

class SingleFlight {
 public:
  /// One in-flight decode.  Followers block on `cv` until the leader sets
  /// `done` and either `value` or `error`.
  struct Entry {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const void> value;
    std::exception_ptr error;
  };

  /// Join the flight for (field, block).  Returns the entry and whether
  /// the caller is the leader (first thread in).  A follower is counted in
  /// `coalesced_reads` immediately.  The leader MUST eventually call publish()
  /// exactly once — on every path, including failure.
  [[nodiscard]] std::pair<std::shared_ptr<Entry>, bool> begin(
      std::size_t field, std::size_t block);

  /// Leader hand-off: store the decoded value (or the decode error), wake
  /// every follower, and retire the entry so later reads start a fresh
  /// flight (or hit the cache the leader populated).
  void publish(std::size_t field, std::size_t block, Entry& entry,
               std::shared_ptr<const void> value, std::exception_ptr error);

  /// Follower side: block until the leader publishes; rethrows the
  /// leader's exception, otherwise returns the shared decoded value.
  [[nodiscard]] std::shared_ptr<const void> wait(Entry& entry);

  /// Reads that piggybacked on another thread's in-flight decode since
  /// construction or the last reset.
  [[nodiscard]] Metrics metrics() const;
  void reset_stats() noexcept {
    coalesced_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Key {
    std::size_t field;
    std::size_t block;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return k.field * 0x9E3779B97F4A7C15ull ^ k.block;
    }
  };

  std::mutex mutex_;  // guards inflight_
  std::unordered_map<Key, std::shared_ptr<Entry>, KeyHash> inflight_;
  std::atomic<std::uint64_t> coalesced_{0};
};

}  // namespace sz14::archive
