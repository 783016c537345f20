// `sz14 serve` — a long-lived daemon in front of one ArchiveReader.
//
// Architecture (the ROADMAP's serving-daemon item):
//
//   * ONE event thread runs a poll(2) loop over the transport listener,
//     a self-pipe wakeup, and every live session fd — connections are
//     sessions in a bounded table, not threads, so ten thousand idle
//     clients cost ten thousand fds and zero stacks (the event-driven
//     shape argued for in Toro's CCP interpreter paper, vs
//     thread-per-connection).
//   * Decoded requests are dispatched onto the serving ThreadPool; the
//     ArchiveReader borrows the SAME pool, so a read request is one worker
//     task whose block decodes run inline (run_batch reentrancy) — the
//     worker set stays bounded no matter how many clients connect.
//   * Concurrent reads of overlapping regions coalesce: the reader's
//     single-flight map merges simultaneous decodes of one (field, block)
//     and the decoded-block LRU serves repeats, so N clients hammering a
//     hot region cost one pread+CRC+decode per block, not N.
//   * Cheap metadata ops (open/ls/stat/stats) answer inline on the event
//     thread; only block-decoding reads occupy pool workers.
//
// Responses are queued per session and flushed as POLLOUT allows, so one
// slow client never blocks the event loop or a pool worker.  Write access
// to a session's fd belongs to the event thread alone; workers only append
// to the session's outbox and ring the wakeup pipe.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "archive/reader.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"

namespace sz14::serve {

struct ServerConfig {
  std::string transport = "tcp";        ///< transport_table() name
  std::string endpoint = "127.0.0.1:0";  ///< transport-specific address
  std::size_t threads = 0;     ///< serving pool workers (0 = all cores)
  std::size_t max_sessions = 64;  ///< bounded session table
  std::size_t cache_bytes = 0;    ///< decoded-block LRU budget (0 = off)
  bool coalescing = true;         ///< single-flight concurrent decodes
  /// Close sessions with no traffic, no queued output, and no in-flight
  /// request for this long (ms).  0 (the library default) disables
  /// reaping; the CLI sets its own default so abandoned connections don't
  /// pin the bounded session table forever.
  int idle_timeout_ms = 0;
  /// Serve a damaged archive instead of refusing to start: the reader
  /// opens in OpenMode::kDegraded, unrecoverable blocks come back
  /// zero-filled with the response's degraded flag + hole list set (and
  /// read-repairable blocks are still repaired transparently).
  bool degraded = false;
  /// How the reader fetches payload bytes: kMmap decodes straight out of
  /// the page cache (zero-copy, with readahead advice) and silently falls
  /// back to pread when mapping is unavailable; kPread is the classic
  /// staged-read path.  Reader::fetch_mode() reports what actually took.
  FetchMode fetch = FetchMode::kPread;
};

class Server {
 public:
  /// Opens the archive and the serving pool; does not listen yet.
  /// Throws like ArchiveReader on a bad archive.
  explicit Server(const std::string& archive_path, ServerConfig config = {});

  /// stop()s if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the transport endpoint and start the event thread.  Throws on
  /// unknown transport or listen failure.
  void start();

  /// Close the listener, drain in-flight requests, drop every session.
  /// Idempotent.
  void stop();

  /// Graceful shutdown (the SIGTERM path): stop accepting, stop reading
  /// new requests, finish in-flight ones and flush every outbox, then
  /// close.  Sessions still busy when `grace_ms` expires are force-closed.
  /// Blocks until the server is down; idempotent with stop().
  void drain(int grace_ms = 5000);

  /// Resolved listen address (e.g. actual port for tcp "...:0").  Valid
  /// after start().
  [[nodiscard]] const std::string& endpoint() const noexcept {
    return endpoint_;
  }

  /// Counter snapshot (the `stats` op returns exactly this): the
  /// server's own counters as named records, then reader().metrics().
  [[nodiscard]] Metrics stats() const;

  /// The underlying reader — tests use its decode/coalesce counters to
  /// prove coalescing did the work.
  [[nodiscard]] const archive::ArchiveReader& reader() const noexcept {
    return reader_;
  }

 private:
  struct Session;

  void event_loop();
  void accept_pending();
  /// Parse + dispatch whatever `s` has buffered; false = close the session.
  bool service_input(const std::shared_ptr<Session>& s);
  void dispatch(const std::shared_ptr<Session>& s, const Frame& frame);
  void handle_read(const std::shared_ptr<Session>& s, std::uint8_t opcode,
                   const std::vector<std::uint8_t>& body);
  /// Answer the scrub op inline and (when accepted) run the scrub as one
  /// background pool task — a single scrub at a time per server.
  void handle_scrub(const std::shared_ptr<Session>& s,
                    const std::vector<std::uint8_t>& body);
  /// Thread-safe: append a response frame and ring the event loop.
  void enqueue(const std::shared_ptr<Session>& s, std::uint8_t status,
               std::span<const std::uint8_t> body);
  void enqueue_error(const std::shared_ptr<Session>& s, std::uint8_t status,
                     const std::string& message);
  /// Flush as much outbox as the socket takes; false = dead connection.
  bool flush_output(Session& s);
  void close_session(std::uint64_t id);
  void wake() noexcept;
  /// Join the event thread and tear down sessions/listener/pipe (shared
  /// tail of stop() and drain()).
  void teardown();

  ServerConfig config_;
  std::string archive_path_;  // for background scrubs
  ThreadPool pool_;
  archive::ArchiveReader reader_;
  std::unique_ptr<Listener> listener_;
  std::string endpoint_;
  std::thread event_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  /// Drain budget in ms, written before draining_ (release/acquire pair).
  std::atomic<int> drain_grace_ms_{0};
  int wake_pipe_[2] = {-1, -1};

  // Session table: event-thread-owned; stop() touches it only after join.
  std::unordered_map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::uint64_t next_session_id_ = 1;

  std::atomic<std::uint64_t> sessions_accepted_{0};
  std::atomic<std::uint64_t> sessions_rejected_{0};  // over max_sessions
  std::atomic<std::uint64_t> sessions_active_{0};
  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_error_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> sessions_idle_reaped_{0};  // idle timeout
  std::atomic<bool> scrub_running_{false};
  std::atomic<std::uint64_t> scrubs_started_{0};
  std::atomic<std::uint64_t> scrubs_completed_{0};
  std::atomic<std::uint64_t> scrub_blocks_repaired_{0};  // payloads healed
};

}  // namespace sz14::serve
