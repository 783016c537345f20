#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "archive/scrub.hpp"
#include "common/failpoint.hpp"
#include "core/format.hpp"

#if !defined(_WIN32)
#include <poll.h>
#include <unistd.h>
#include <fcntl.h>
#endif

namespace sz14::serve {

/// Per-connection state.  The fd and parser belong to the event thread;
/// the outbox is the one cross-thread surface (workers append under
/// out_mutex, the event thread drains).  `closed` gates late worker
/// responses after the session is gone.
struct Server::Session {
  std::uint64_t id = 0;
  std::unique_ptr<Connection> conn;
  FrameParser parser{kMaxRequestBody};
  std::mutex out_mutex;
  std::deque<std::vector<std::uint8_t>> outbox;
  std::size_t out_pos = 0;   // bytes of outbox.front() already written
  bool closing = false;      // flush remaining outbox, then close
  bool input_dead = false;   // framing lost: stop reading
  std::atomic<bool> closed{false};
  /// Read requests handed to the pool whose response has not been queued
  /// yet; a session is never idle-reaped or drain-closed while > 0.
  std::atomic<int> inflight{0};
  /// Last socket readiness (event-thread-only; drives the idle timeout).
  std::chrono::steady_clock::time_point last_activity{};
};

Server::Server(const std::string& archive_path, ServerConfig config)
    : config_(std::move(config)),
      archive_path_(archive_path),
      pool_(config_.threads),
      // The reader borrows the serving pool, so a read request is one
      // worker task whose block decodes run inline (run_batch reentrancy)
      // — the worker set stays bounded.
      reader_(archive_path,
              {.pool = &pool_,
               .open = config_.degraded ? archive::OpenMode::kDegraded
                                        : archive::OpenMode::kStrict,
               .fetch = config_.fetch}) {
  reader_.set_cache_capacity(config_.cache_bytes);
  reader_.set_coalescing(config_.coalescing);
}

Server::~Server() { stop(); }

Metrics Server::stats() const {
  const auto load = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  Metrics m = {{"sessions_accepted", load(sessions_accepted_)},
               {"sessions_rejected", load(sessions_rejected_)},
               {"sessions_active", load(sessions_active_)},
               {"sessions_idle_reaped", load(sessions_idle_reaped_)},
               {"requests_ok", load(requests_ok_)},
               {"requests_error", load(requests_error_)},
               {"bytes_in", load(bytes_in_)},
               {"bytes_out", load(bytes_out_)},
               {"scrubs_started", load(scrubs_started_)},
               {"scrubs_completed", load(scrubs_completed_)},
               {"scrub_blocks_repaired", load(scrub_blocks_repaired_)}};
  const Metrics reader = reader_.metrics();
  m.insert(m.end(), reader.begin(), reader.end());
  return m;
}

#if !defined(_WIN32)

void Server::start() {
  if (running_.load()) throw std::logic_error("serve: server already running");
  const TransportOps* t = transport_by_name(config_.transport);
  if (t == nullptr)
    throw std::invalid_argument("serve: unknown transport '" +
                                config_.transport + "'");
  listener_ = t->listen(config_.endpoint);
  endpoint_ = listener_->endpoint();
  if (::pipe(wake_pipe_) < 0) {
    listener_.reset();
    throw std::runtime_error("serve: cannot create wakeup pipe");
  }
  for (const int fd : wake_pipe_)
    (void)::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  running_.store(true);
  event_thread_ = std::thread([this] { event_loop(); });
}

void Server::stop() {
  if (!running_.exchange(false)) {
    if (!event_thread_.joinable()) return;
  }
  wake();
  teardown();
}

void Server::drain(int grace_ms) {
  if (!running_.load(std::memory_order_acquire)) {
    stop();  // not running (or already stopped): plain teardown
    return;
  }
  drain_grace_ms_.store(grace_ms < 0 ? 0 : grace_ms,
                        std::memory_order_relaxed);
  draining_.store(true, std::memory_order_release);
  wake();
  // The event loop exits on its own once every session drained (or the
  // grace deadline force-closed the stragglers).
  teardown();
  running_.store(false, std::memory_order_relaxed);
  draining_.store(false, std::memory_order_relaxed);
}

void Server::teardown() {
  if (event_thread_.joinable()) event_thread_.join();
  // In-flight read tasks may still be enqueueing; let them finish against
  // live (if already closed, silently dropped) sessions before teardown.
  pool_.wait();
  sessions_.clear();
  sessions_active_.store(0, std::memory_order_relaxed);
  listener_.reset();
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void Server::wake() noexcept {
  if (wake_pipe_[1] >= 0) (void)!::write(wake_pipe_[1], "x", 1);
}

void Server::event_loop() {
  using Clock = std::chrono::steady_clock;
  const auto ms_between = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(to - from)
        .count();
  };
  std::vector<struct pollfd> pfds;
  std::vector<std::uint64_t> ids;  // session id per pollfd slot (0 = none)
  std::vector<std::uint64_t> doomed;
  bool drain_started = false;
  Clock::time_point drain_deadline{};
  while (running_.load(std::memory_order_relaxed)) {
    // Graceful drain: on the first tick after drain() was requested, stop
    // accepting (close the listener — safe here, only this thread uses
    // it) and stop READING every session; what remains is flushing
    // responses for requests already in flight.
    if (!drain_started && draining_.load(std::memory_order_acquire)) {
      drain_started = true;
      drain_deadline =
          Clock::now() + std::chrono::milliseconds(
                             drain_grace_ms_.load(std::memory_order_relaxed));
      listener_.reset();
      for (const auto& [id, s] : sessions_) s->input_dead = true;
    }
    if (drain_started) {
      // Before blocking: close each session the moment it has nothing left
      // to say, and leave the loop when the table is empty or the grace
      // budget is gone.  (Checked after the poll instead, an idle server
      // would sleep through its whole grace budget: nothing rings the
      // wake pipe again once drain() has.)
      doomed.clear();
      const bool expired = Clock::now() >= drain_deadline;
      for (const auto& [id, s] : sessions_) {
        if (expired) {
          doomed.push_back(id);
          continue;
        }
        if (s->inflight.load(std::memory_order_acquire) > 0) continue;
        std::lock_guard<std::mutex> lock(s->out_mutex);
        if (s->outbox.empty()) doomed.push_back(id);
      }
      for (const auto id : doomed) close_session(id);
      if (sessions_.empty()) break;
    }

    pfds.clear();
    ids.clear();
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    ids.push_back(0);
    std::size_t listener_slot = 0;  // 0 = not polled (draining)
    if (listener_) {
      listener_slot = pfds.size();
      pfds.push_back({listener_->fd(), POLLIN, 0});
      ids.push_back(0);
    }
    const std::size_t first_session = pfds.size();
    for (const auto& [id, s] : sessions_) {
      short events = 0;
      if (!s->input_dead) events |= POLLIN;
      bool pending;
      {
        std::lock_guard<std::mutex> lock(s->out_mutex);
        pending = !s->outbox.empty();
      }
      if (pending) events |= POLLOUT;
      pfds.push_back({s->conn->fd(), events, 0});
      ids.push_back(id);
    }

    // Poll timeout: wake for the nearest idle expiry and/or the drain
    // deadline instead of sleeping forever past them.
    int timeout = -1;
    const Clock::time_point now_before = Clock::now();
    if (config_.idle_timeout_ms > 0) {
      for (const auto& [id, s] : sessions_) {
        const long long left =
            config_.idle_timeout_ms -
            ms_between(s->last_activity, now_before);
        const int t = left > 0 ? static_cast<int>(left) : 0;
        timeout = timeout < 0 ? t : std::min(timeout, t);
      }
    }
    if (drain_started) {
      const long long left = ms_between(now_before, drain_deadline);
      const int t = left > 0 ? static_cast<int>(left) : 0;
      timeout = timeout < 0 ? t : std::min(timeout, t);
    }

    if (::poll(pfds.data(), pfds.size(), timeout) < 0) continue;  // EINTR
    if (!running_.load(std::memory_order_relaxed)) break;

    if (pfds[0].revents & POLLIN) {
      std::uint8_t wake_buf[256];
      while (::read(wake_pipe_[0], wake_buf, sizeof wake_buf) > 0) {
      }
    }
    if (listener_slot != 0 && (pfds[listener_slot].revents & POLLIN))
      accept_pending();

    const Clock::time_point now = Clock::now();
    doomed.clear();
    for (std::size_t i = first_session; i < pfds.size(); ++i) {
      const auto it = sessions_.find(ids[i]);
      if (it == sessions_.end()) continue;
      const std::shared_ptr<Session> s = it->second;
      if (pfds[i].revents & (POLLIN | POLLOUT | POLLHUP))
        s->last_activity = now;
      bool alive = (pfds[i].revents & (POLLERR | POLLNVAL)) == 0;
      if (alive && (pfds[i].revents & POLLOUT)) alive = flush_output(*s);
      if (alive && (pfds[i].revents & (POLLIN | POLLHUP)) && !s->input_dead)
        alive = service_input(s);
      if (alive && s->closing) {
        std::lock_guard<std::mutex> lock(s->out_mutex);
        if (s->outbox.empty()) alive = false;  // error frame flushed
      }
      if (!alive) doomed.push_back(ids[i]);
    }
    for (const auto id : doomed) close_session(id);

    // Idle reaping: a session with no traffic for idle_timeout_ms, no
    // queued output, and no in-flight pool work is dead weight in the
    // bounded table — close it and count it.
    if (config_.idle_timeout_ms > 0 && !drain_started) {
      doomed.clear();
      for (const auto& [id, s] : sessions_) {
        if (s->inflight.load(std::memory_order_acquire) > 0) continue;
        {
          std::lock_guard<std::mutex> lock(s->out_mutex);
          if (!s->outbox.empty()) continue;
        }
        if (ms_between(s->last_activity, now) >= config_.idle_timeout_ms)
          doomed.push_back(id);
      }
      for (const auto id : doomed) {
        close_session(id);
        sessions_idle_reaped_.fetch_add(1, std::memory_order_relaxed);
      }
    }

  }
  // Orderly shutdown: drop every session now so client recv sees EOF
  // promptly (stop() clears the table again after the pool drains).
  doomed.clear();
  for (const auto& [id, s] : sessions_) doomed.push_back(id);
  for (const auto id : doomed) close_session(id);
}

void Server::accept_pending() {
  while (auto conn = listener_->accept()) {
    if (sessions_.size() >= config_.max_sessions) {
      // Bounded session table: shed load at accept, before any state or
      // worker time is spent on the connection.
      sessions_rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;  // unique_ptr closes the fd
    }
    auto s = std::make_shared<Session>();
    s->id = next_session_id_++;
    s->conn = std::move(conn);
    s->conn->set_nonblocking(true);
    s->last_activity = std::chrono::steady_clock::now();
    sessions_.emplace(s->id, s);
    sessions_accepted_.fetch_add(1, std::memory_order_relaxed);
    sessions_active_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Server::service_input(const std::shared_ptr<Session>& s) {
  std::uint8_t buf[64 << 10];
  for (;;) {
    std::ptrdiff_t n;
    try {
      n = s->conn->read_some(buf);
    } catch (const std::exception&) {
      return false;  // hard I/O error: drop the session
    }
    if (n < 0) return true;  // drained for now
    if (n == 0) return false;  // orderly EOF
    bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                        std::memory_order_relaxed);
    try {
      s->parser.feed({buf, static_cast<std::size_t>(n)});
    } catch (const ProtocolError& e) {
      // Framing is unrecoverable (bad magic / hostile length): answer once,
      // stop reading, close after the error frame flushes.
      enqueue_error(s, kStatusBadRequest, e.what());
      s->input_dead = true;
      s->closing = true;
      return true;
    }
    Frame frame;
    while (s->parser.next(frame)) dispatch(s, frame);
  }
}

void Server::dispatch(const std::shared_ptr<Session>& s, const Frame& frame) {
  // Failpoint "serve.server.drop_request" (kind=drop): black-hole the
  // request — no response ever — which is how the client-deadline tests
  // manufacture a deterministic request timeout without slowing the loop.
  if (const auto f = fail::trigger("serve.server.drop_request")) {
    if (f->kind == fail::Kind::kDrop) return;
  }
  ByteReader in(frame.body);
  try {
    switch (frame.kind) {
      case kOpOpen: {
        const OpenRequest req = decode_open_request(in);
        if (req.version != kProtocolVersion) {
          enqueue_error(s, kStatusBadRequest,
                        "unsupported protocol version " +
                            std::to_string(req.version));
          return;
        }
        ByteWriter w;
        encode_open_response(
            OpenResponse{kProtocolVersion, reader_.fields().size()}, w);
        enqueue(s, kStatusOk, w.view());
        return;
      }
      case kOpLs: {
        std::vector<archive::FieldStat> fields;
        fields.reserve(reader_.fields().size());
        for (const auto& f : reader_.fields())
          fields.push_back(archive::field_stat(f, /*with_blocks=*/false));
        ByteWriter w;
        encode_ls_response(fields, w);
        enqueue(s, kStatusOk, w.view());
        return;
      }
      case kOpStat: {
        const StatRequest req = decode_stat_request(in);
        const archive::FieldEntry* fe;
        try {
          fe = &reader_.field(req.field);
        } catch (const std::invalid_argument& e) {
          enqueue_error(s, kStatusNotFound, e.what());
          return;
        }
        ByteWriter w;
        archive::encode_field_stat(archive::field_stat(*fe, true), w);
        if (w.size() > kMaxResponseBody) {
          enqueue_error(s, kStatusTooLarge, "stat response exceeds limit");
          return;
        }
        enqueue(s, kStatusOk, w.view());
        return;
      }
      case kOpStats: {
        ByteWriter w;
        encode_stats_response(stats(), w);
        enqueue(s, kStatusOk, w.view());
        return;
      }
      case kOpReadRegion:
      case kOpReadField:
        handle_read(s, frame.kind, frame.body);
        return;
      case kOpScrub:
        handle_scrub(s, frame.body);
        return;
      default:
        enqueue_error(s, kStatusBadRequest,
                      "unknown opcode " + std::to_string(frame.kind));
        return;
    }
  } catch (const ProtocolError& e) {
    // Body decode failed but framing is intact: answer and keep serving.
    enqueue_error(s, kStatusBadRequest, e.what());
  } catch (const std::exception& e) {
    enqueue_error(s, kStatusServerError, e.what());
  }
}

void Server::handle_read(const std::shared_ptr<Session>& s,
                         std::uint8_t opcode,
                         const std::vector<std::uint8_t>& body) {
  ByteReader in(body);
  ReadRequest req = decode_read_request(in);
  if (opcode == kOpReadField) req.region.reset();
  // Name resolution happens here on the event thread so a typo'd field is
  // a cheap kStatusNotFound, not a pool round-trip.
  try {
    (void)reader_.field_index(req.field);
  } catch (const std::invalid_argument& e) {
    enqueue_error(s, kStatusNotFound, e.what());
    return;
  }
  // The decode work goes to the pool; the event loop is free immediately.
  // `inflight` keeps the session off the idle-reap and drain-close lists
  // until the response (or error) is queued.
  s->inflight.fetch_add(1, std::memory_order_acq_rel);
  pool_.submit([this, s, req = std::move(req)] {
    struct InflightGuard {
      Server& server;
      Session& session;
      ~InflightGuard() {
        session.inflight.fetch_sub(1, std::memory_order_acq_rel);
        // Re-ring AFTER the decrement so a draining event loop re-checks
        // the session with inflight already at its final value.
        server.wake();
      }
    } guard{*this, *s};
    try {
      const archive::FieldEntry& fe = reader_.field(req.field);
      ReadResponse resp;
      resp.dtype = fe.dtype;
      resp.shape = req.region ? req.region->shape() : fe.dims;
      // Degraded serving: collect the damage report so the client KNOWS
      // which blocks came back as zero-filled holes (read-repaired blocks
      // are exact and are NOT reported — only true holes are).
      archive::ReadDamage damage;
      archive::ReadDamage* const dmg = config_.degraded ? &damage : nullptr;
      const auto read_as = [&](auto zero) {
        using T = decltype(zero);
        const std::vector<T> v = reader_.read<T>(req.field, req.region, dmg);
        resp.values.resize(v.size() * sizeof(T));
        std::memcpy(resp.values.data(), v.data(), resp.values.size());
      };
      if (fe.dtype == kDtypeF64)
        read_as(0.0);
      else
        read_as(0.0f);
      if (!damage.clean()) {
        resp.degraded = true;
        resp.holes.reserve(damage.holes.size());
        for (const auto& h : damage.holes) resp.holes.push_back(h.block);
      }
      ByteWriter w;
      encode_read_response(resp, w);
      if (w.size() > kMaxResponseBody) {
        enqueue_error(s, kStatusTooLarge, "read response exceeds limit");
        return;
      }
      enqueue(s, kStatusOk, w.view());
    } catch (const std::invalid_argument& e) {
      enqueue_error(s, kStatusBadRequest, e.what());
    } catch (const std::exception& e) {
      enqueue_error(s, kStatusServerError, e.what());
    }
  });
}

void Server::handle_scrub(const std::shared_ptr<Session>& s,
                          const std::vector<std::uint8_t>& body) {
  ByteReader in(body);
  const ScrubRequest req = decode_scrub_request(in);
  // One scrub at a time: the flag is the whole admission control, and the
  // answer goes out inline so the client is never blocked on the scan.
  const bool accepted = !scrub_running_.exchange(true);
  if (accepted) {
    scrubs_started_.fetch_add(1, std::memory_order_relaxed);
    pool_.submit([this, repair = req.repair] {
      try {
        // threads=1: the scrub shares the machine with live serving — it
        // is a background janitor, not a priority customer.
        const archive::ScrubReport r =
            archive::scrub_archive(archive_path_, repair, 1);
        scrub_blocks_repaired_.fetch_add(
            r.blocks_repaired + r.parity_rebuilt, std::memory_order_relaxed);
      } catch (const std::exception&) {
        // A failed scrub (I/O error, injected failpoint) must never take
        // the daemon down; the completed counter still moves so operators
        // can diff started vs repaired.
      }
      scrubs_completed_.fetch_add(1, std::memory_order_relaxed);
      scrub_running_.store(false, std::memory_order_release);
    });
  }
  ByteWriter w;
  encode_scrub_response(ScrubResponse{accepted}, w);
  enqueue(s, kStatusOk, w.view());
}

void Server::enqueue(const std::shared_ptr<Session>& s, std::uint8_t status,
                     std::span<const std::uint8_t> body) {
  auto frame = encode_frame(status, body);
  {
    std::lock_guard<std::mutex> lock(s->out_mutex);
    if (s->closed.load(std::memory_order_relaxed)) return;
    s->outbox.push_back(std::move(frame));
  }
  (status == kStatusOk ? requests_ok_ : requests_error_)
      .fetch_add(1, std::memory_order_relaxed);
  wake();
}

void Server::enqueue_error(const std::shared_ptr<Session>& s,
                           std::uint8_t status, const std::string& message) {
  enqueue(s, status,
          {reinterpret_cast<const std::uint8_t*>(message.data()),
           message.size()});
}

bool Server::flush_output(Session& s) {
  std::lock_guard<std::mutex> lock(s.out_mutex);
  while (!s.outbox.empty()) {
    const auto& front = s.outbox.front();
    const std::span<const std::uint8_t> rest(front.data() + s.out_pos,
                                             front.size() - s.out_pos);
    std::ptrdiff_t n;
    try {
      n = s.conn->write_some(rest);
    } catch (const std::exception&) {
      return false;  // peer vanished
    }
    if (n < 0) break;  // socket full; POLLOUT resumes us
    bytes_out_.fetch_add(static_cast<std::uint64_t>(n),
                         std::memory_order_relaxed);
    s.out_pos += static_cast<std::size_t>(n);
    if (s.out_pos == front.size()) {
      s.outbox.pop_front();
      s.out_pos = 0;
    }
  }
  return true;
}

void Server::close_session(std::uint64_t id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  {
    std::lock_guard<std::mutex> lock(it->second->out_mutex);
    it->second->closed.store(true, std::memory_order_relaxed);
  }
  sessions_.erase(it);
  sessions_active_.fetch_sub(1, std::memory_order_relaxed);
}

#else  // _WIN32

void Server::start() {
  throw std::runtime_error("serve: not supported on this platform "
                           "(POSIX poll/sockets required)");
}
void Server::stop() {}
void Server::drain(int) {}
void Server::teardown() {}
void Server::wake() noexcept {}
void Server::event_loop() {}
void Server::accept_pending() {}
bool Server::service_input(const std::shared_ptr<Session>&) { return false; }
void Server::dispatch(const std::shared_ptr<Session>&, const Frame&) {}
void Server::handle_read(const std::shared_ptr<Session>&, std::uint8_t,
                         const std::vector<std::uint8_t>&) {}
void Server::handle_scrub(const std::shared_ptr<Session>&,
                          const std::vector<std::uint8_t>&) {}
void Server::enqueue(const std::shared_ptr<Session>&, std::uint8_t,
                     std::span<const std::uint8_t>) {}
void Server::enqueue_error(const std::shared_ptr<Session>&, std::uint8_t,
                           const std::string&) {}
bool Server::flush_output(Session&) { return false; }
void Server::close_session(std::uint64_t) {}

#endif

}  // namespace sz14::serve
