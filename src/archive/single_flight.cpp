#include "archive/single_flight.hpp"

namespace sz14::archive {

Metrics SingleFlight::metrics() const {
  return {{"coalesced_reads", coalesced_.load(std::memory_order_relaxed)}};
}

std::pair<std::shared_ptr<SingleFlight::Entry>, bool> SingleFlight::begin(
    std::size_t field, std::size_t block) {
  const Key key{field, block};
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = inflight_.find(key);
  if (it != inflight_.end()) {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    return {it->second, false};
  }
  auto entry = std::make_shared<Entry>();
  inflight_.emplace(key, entry);
  return {entry, true};
}

void SingleFlight::publish(std::size_t field, std::size_t block, Entry& entry,
                           std::shared_ptr<const void> value,
                           std::exception_ptr error) {
  // Retire the entry FIRST: a thread arriving after this line starts a new
  // flight (and, with the cache enabled, hits the block the leader just
  // inserted — the reader re-probes under leadership).  Threads that
  // joined earlier hold their own shared_ptr to `entry` and wake below.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(Key{field, block});
  }
  {
    std::lock_guard<std::mutex> lock(entry.m);
    entry.value = std::move(value);
    entry.error = std::move(error);
    entry.done = true;
  }
  entry.cv.notify_all();
}

std::shared_ptr<const void> SingleFlight::wait(Entry& entry) {
  std::unique_lock<std::mutex> lock(entry.m);
  entry.cv.wait(lock, [&] { return entry.done; });
  if (entry.error) std::rethrow_exception(entry.error);
  return entry.value;
}

}  // namespace sz14::archive
