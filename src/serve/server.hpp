// `sz14 serve` — a long-lived daemon in front of one ArchiveReader.
//
// Architecture (the ROADMAP's serving-daemon item):
//
//   * N event loops, one per serving-pool worker, each a thread running a
//     poll(2) loop over its own self-pipe wakeup and the session fds it
//     owns — connections are sessions in a bounded table, not threads, so
//     ten thousand idle clients cost ten thousand fds and zero stacks (the
//     event-driven shape argued for in Toro's CCP interpreter paper, vs
//     thread-per-connection).  The first loop also polls the transport
//     listener and hands each accepted session to the next loop in turn;
//     a session stays on its loop for life.
//   * A read is answered on its session's loop when every block it
//     touches is in the decoded-block cache (ArchiveReader::probe): no
//     pool hop, no thread wake.  A read with any miss goes to the serving
//     ThreadPool, which decodes only the misses into the partly filled
//     result; the ArchiveReader borrows the SAME pool, so that is one
//     worker task whose block decodes run inline (run_batch reentrancy) —
//     the worker set stays bounded no matter how many clients connect, and
//     a loop never waits on I/O or a decode.
//   * Concurrent reads of overlapping regions coalesce: the reader's
//     single-flight map merges simultaneous decodes of one (field, block)
//     and the decoded-block LRU serves repeats, so N clients hammering a
//     hot region cost one pread+CRC+decode per block, not N.
//   * Cheap metadata ops (open/ls/stat/stats) answer inline on the loop.
//
// Replies take one hop: the thread that finishes a response (a pool worker
// for decoded reads, the loop otherwise) sends it itself when the
// session's outbox is empty — the DCCP "send now, else queue" split.  Any
// bytes the nonblocking socket does not take stay at the outbox front,
// later frames queue behind them, and the session's loop flushes the rest
// as POLLOUT allows, so one slow client never blocks a loop or a pool
// worker.  Every write to a session's fd happens in flush_output() under
// the session's out_mutex, so frames never interleave, and a closed
// (reaped) session is never written.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "archive/reader.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"

namespace sz14::serve {

struct ServerConfig {
  std::string transport = "tcp";        ///< transport_table() name
  std::string endpoint = "127.0.0.1:0";  ///< transport-specific address
  /// Event loops, and serving pool workers, each (0 = all cores).
  std::size_t threads = 0;
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

  /// Bind the transport endpoint and start the event loops.  Throws on
  /// unknown transport, listen failure or no wakeup pipe.
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

  /// One poll(2) event loop: its wake pipe, the sessions it owns, and the
  /// inbox through which the accepting loop hands it new sessions.
  /// `sessions` belongs to the loop's thread (teardown() touches it only
  /// after the join); the destructor closes the pipe.
  struct Loop {
    Loop() = default;
    ~Loop();
    Loop(const Loop&) = delete;
    Loop& operator=(const Loop&) = delete;
    void wake() noexcept;

    int wake_pipe[2] = {-1, -1};
    std::unordered_map<std::uint64_t, std::shared_ptr<Session>> sessions;
    std::mutex inbox_mutex;
    std::vector<std::shared_ptr<Session>> inbox;  // guarded by inbox_mutex
    std::thread thread;
  };

  void event_loop(Loop& loop);
  /// Accept every pending connection and hand each to the next loop in
  /// turn (run by the first loop only).
  void accept_pending();
  /// Parse + dispatch whatever `s` has buffered; false = close the session.
  bool service_input(const std::shared_ptr<Session>& s);
  void dispatch(const std::shared_ptr<Session>& s, const Frame& frame);
  void handle_read(const std::shared_ptr<Session>& s, std::uint8_t opcode,
                   const std::vector<std::uint8_t>& body);
  /// Probe the cache on this loop; reply here when the read is complete,
  /// else decode its misses and reply on the pool.
  template <typename T>
  void serve_read(const std::shared_ptr<Session>& s, const ReadRequest& req);
  template <typename T>
  void reply_read(const std::shared_ptr<Session>& s,
                  const archive::PartialRead<T>& read,
                  const archive::ReadDamage& damage);
  /// Answer the scrub op inline and (when accepted) run the scrub as one
  /// background pool task — a single scrub at a time per server.
  void handle_scrub(const std::shared_ptr<Session>& s,
                    const std::vector<std::uint8_t>& body);
  /// Thread-safe: queue a response frame and, if nothing is queued ahead
  /// of it, send it right away.  Rings the session's loop only when bytes
  /// are left over (socket full) or the send failed, for the POLLOUT
  /// flush.
  void enqueue(const std::shared_ptr<Session>& s, std::uint8_t status,
               std::span<const std::uint8_t> body);
  void enqueue_error(const std::shared_ptr<Session>& s, std::uint8_t status,
                     const std::string& message);
  /// The one write loop: flush as much outbox as the socket takes, with
  /// `s.out_mutex` held by the caller; false = dead connection.  Restarts
  /// the session's idle clock when bytes moved.
  bool flush_output(Session& s, const std::lock_guard<std::mutex>& held);
  void close_session(Loop& loop, std::uint64_t id);
  void wake_all() noexcept;
  /// Join the loops and tear down sessions/listener/pipes (shared tail of
  /// stop() and drain()).
  void teardown();

  ServerConfig config_;
  std::string archive_path_;  // for background scrubs
  ThreadPool pool_;
  archive::ArchiveReader reader_;
  std::unique_ptr<Listener> listener_;  // the first loop's, after start()
  std::string endpoint_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  /// Drain budget in ms, written before draining_ (release/acquire pair).
  std::atomic<int> drain_grace_ms_{0};

  /// One per pool worker, built by start(); loops_[0] accepts.
  std::vector<std::unique_ptr<Loop>> loops_;
  // Accepting-loop-only state.
  std::uint64_t next_session_id_ = 1;
  std::size_t next_loop_ = 0;  // round-robin hand-off

  std::atomic<std::uint64_t> sessions_accepted_{0};
  std::atomic<std::uint64_t> sessions_rejected_{0};  // over max_sessions
  std::atomic<std::uint64_t> sessions_active_{0};  // vs max_sessions
  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_error_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  /// Reply frame bytes, counted whole when enqueue() queues the frame
  /// (before its first write): a session that dies mid-reply is still
  /// counted in full.
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> sessions_idle_reaped_{0};  // idle timeout
  std::atomic<bool> scrub_running_{false};
  std::atomic<std::uint64_t> scrubs_started_{0};
  std::atomic<std::uint64_t> scrubs_completed_{0};
  std::atomic<std::uint64_t> scrub_blocks_repaired_{0};  // payloads healed
};

}  // namespace sz14::serve
