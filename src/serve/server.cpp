#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <type_traits>
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

/// Per-connection state.  The parser and the read side of the fd belong to
/// the session's loop; the outbox and the write side are the cross-thread
/// surface: whoever holds out_mutex may run the write loop (a worker
/// sending its own reply, or the loop's POLLOUT flush).  `closed` gates
/// late worker responses after the session is gone.
struct Server::Session {
  std::uint64_t id = 0;
  Loop* loop = nullptr;  // set before the hand-off, fixed for life
  std::unique_ptr<Connection> conn;
  FrameParser parser{kMaxRequestBody};
  std::mutex out_mutex;
  std::deque<std::vector<std::uint8_t>> outbox;
  std::size_t out_pos = 0;   // bytes of outbox.front() already written
  bool closing = false;      // flush remaining outbox, then close
  bool input_dead = false;   // framing lost: stop reading
  std::atomic<bool> closed{false};
  /// Read requests handed to the pool whose response has not been sent or
  /// queued yet; a session is never idle-reaped or drain-closed while > 0.
  std::atomic<int> inflight{0};
  /// Last inbound readiness (the loop's only).
  std::chrono::steady_clock::time_point last_activity{};
  /// Last time the write loop moved bytes, from any thread (stored under
  /// out_mutex).  The idle clock runs from the later of the two.
  std::atomic<std::chrono::steady_clock::time_point> last_reply{};
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
  for (std::size_t i = 0; i < pool_.thread_count(); ++i) {
    Loop& loop = *loops_.emplace_back(std::make_unique<Loop>());
    if (::pipe(loop.wake_pipe) < 0) {
      loops_.clear();
      listener_.reset();
      throw std::runtime_error("serve: cannot create wakeup pipe");
    }
    for (const int fd : loop.wake_pipe)
      (void)::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
  running_.store(true);
  for (const auto& loop : loops_)
    loop->thread = std::thread([this, &l = *loop] { event_loop(l); });
}

void Server::stop() {
  if (!running_.exchange(false) && loops_.empty()) return;
  wake_all();
  teardown();
}

void Server::drain(int grace_ms) {
  if (!running_.load(std::memory_order_acquire)) {
    stop();  // not running (or already stopped): plain teardown
    return;
  }
  drain_grace_ms_.store(grace_ms < 0 ? 0 : grace_ms,
                        std::memory_order_relaxed);
  draining_.store(true);
  wake_all();
  // Each loop exits on its own once its sessions drained (or the grace
  // deadline force-closed the stragglers).
  teardown();
  running_.store(false, std::memory_order_relaxed);
  draining_.store(false, std::memory_order_relaxed);
}

void Server::teardown() {
  for (const auto& loop : loops_)
    if (loop->thread.joinable()) loop->thread.join();
  // In-flight read tasks may still be enqueueing (and ringing their
  // loop's pipe); let them finish against live (if already closed,
  // silently dropped) sessions before the loops go.
  pool_.wait();
  loops_.clear();  // drops every session left in a table or an inbox
  sessions_active_.store(0, std::memory_order_relaxed);
  listener_.reset();
}

Server::Loop::~Loop() {
  for (const int fd : wake_pipe)
    if (fd >= 0) ::close(fd);
}

void Server::Loop::wake() noexcept {
  if (wake_pipe[1] >= 0) (void)!::write(wake_pipe[1], "x", 1);
}

void Server::wake_all() noexcept {
  for (const auto& loop : loops_) loop->wake();
}

void Server::event_loop(Loop& loop) {
  using Clock = std::chrono::steady_clock;
  const auto ms_between = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(to - from)
        .count();
  };
  // The idle clock restarts on inbound readiness and on reply bytes
  // written, which a worker may have sent without this thread seeing it.
  const auto idle_ms = [&](const Session& s, Clock::time_point now) {
    return ms_between(
        std::max(s.last_activity, s.last_reply.load(std::memory_order_relaxed)),
        now);
  };
  auto& sessions = loop.sessions;
  const bool accepts = &loop == loops_.front().get();
  std::vector<struct pollfd> pfds;
  std::vector<std::uint64_t> ids;  // session id per pollfd slot (0 = none)
  std::vector<std::uint64_t> doomed;
  bool drain_started = false;
  Clock::time_point drain_deadline{};
  while (running_.load(std::memory_order_relaxed)) {
    // Sessions the accepting loop handed over since the last tick.
    {
      std::lock_guard<std::mutex> lock(loop.inbox_mutex);
      for (auto& s : loop.inbox) {
        s->input_dead = s->input_dead || drain_started;
        sessions.emplace(s->id, std::move(s));
      }
      loop.inbox.clear();
    }
    // Graceful drain: on the first tick after drain() was requested, stop
    // accepting (the accepting loop closes the listener — safe here, only
    // its thread uses it) and stop READING every session; what remains is
    // flushing responses for requests already in flight.
    if (!drain_started && draining_.load()) {
      drain_started = true;
      drain_deadline =
          Clock::now() + std::chrono::milliseconds(
                             drain_grace_ms_.load(std::memory_order_relaxed));
      if (accepts) listener_.reset();
      for (const auto& [id, s] : sessions) s->input_dead = true;
    }
    if (drain_started) {
      // Before blocking: close each session the moment it has nothing left
      // to say, and leave the loop when the table is empty or the grace
      // budget is gone.  (Checked after the poll instead, an idle server
      // would sleep through its whole grace budget: nothing rings the
      // wake pipe again once drain() has.)  A session handed over after
      // this loop left has sent nothing; teardown() closes it.
      doomed.clear();
      const bool expired = Clock::now() >= drain_deadline;
      for (const auto& [id, s] : sessions) {
        if (expired) {
          doomed.push_back(id);
          continue;
        }
        // seq_cst, like InflightGuard's decrement and draining_ load: either
        // this sees the final 0 or the guard sees draining_ and rings.
        if (s->inflight.load() > 0) continue;
        std::lock_guard<std::mutex> lock(s->out_mutex);
        if (s->outbox.empty()) doomed.push_back(id);
      }
      for (const auto id : doomed) close_session(loop, id);
      if (sessions.empty()) break;
    }

    pfds.clear();
    ids.clear();
    pfds.push_back({loop.wake_pipe[0], POLLIN, 0});
    ids.push_back(0);
    std::size_t listener_slot = 0;  // 0 = not polled (draining)
    if (accepts && listener_) {
      listener_slot = pfds.size();
      pfds.push_back({listener_->fd(), POLLIN, 0});
      ids.push_back(0);
    }
    const std::size_t first_session = pfds.size();
    for (const auto& [id, s] : sessions) {
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
      for (const auto& [id, s] : sessions) {
        const long long left =
            config_.idle_timeout_ms - idle_ms(*s, now_before);
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
      while (::read(loop.wake_pipe[0], wake_buf, sizeof wake_buf) > 0) {
      }
    }
    if (listener_slot != 0 && (pfds[listener_slot].revents & POLLIN))
      accept_pending();

    const Clock::time_point now = Clock::now();
    doomed.clear();
    for (std::size_t i = first_session; i < pfds.size(); ++i) {
      const auto it = sessions.find(ids[i]);
      if (it == sessions.end()) continue;
      const std::shared_ptr<Session> s = it->second;
      if (pfds[i].revents & (POLLIN | POLLHUP)) s->last_activity = now;
      bool alive = (pfds[i].revents & (POLLERR | POLLNVAL)) == 0;
      if (alive && (pfds[i].revents & POLLOUT)) {
        std::lock_guard<std::mutex> lock(s->out_mutex);
        alive = flush_output(*s, lock);
      }
      if (alive && (pfds[i].revents & (POLLIN | POLLHUP)) && !s->input_dead)
        alive = service_input(s);
      if (alive && s->closing) {
        std::lock_guard<std::mutex> lock(s->out_mutex);
        if (s->outbox.empty()) alive = false;  // error frame flushed
      }
      if (!alive) doomed.push_back(ids[i]);
    }
    for (const auto id : doomed) close_session(loop, id);

    // Idle reaping: a session with no traffic for idle_timeout_ms, no
    // queued output, and no in-flight pool work is dead weight in the
    // bounded table — close it and count it.
    if (config_.idle_timeout_ms > 0 && !drain_started) {
      doomed.clear();
      for (const auto& [id, s] : sessions) {
        if (s->inflight.load(std::memory_order_acquire) > 0) continue;
        {
          std::lock_guard<std::mutex> lock(s->out_mutex);
          if (!s->outbox.empty()) continue;
        }
        if (idle_ms(*s, now) >= config_.idle_timeout_ms) doomed.push_back(id);
      }
      for (const auto id : doomed) {
        close_session(loop, id);
        sessions_idle_reaped_.fetch_add(1, std::memory_order_relaxed);
      }
    }

  }
  // Orderly shutdown: drop every session now so client recv sees EOF
  // promptly (teardown() drops the loops after the pool drains).
  doomed.clear();
  for (const auto& [id, s] : sessions) doomed.push_back(id);
  for (const auto id : doomed) close_session(loop, id);
}

void Server::accept_pending() {
  while (auto conn = listener_->accept()) {
    if (sessions_active_.load(std::memory_order_relaxed) >=
        config_.max_sessions) {
      // Bounded session table: shed load at accept, before any state or
      // worker time is spent on the connection.  Only this loop adds
      // sessions, so the count cannot overshoot.
      sessions_rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;  // unique_ptr closes the fd
    }
    auto s = std::make_shared<Session>();
    s->id = next_session_id_++;
    s->loop = loops_[next_loop_++ % loops_.size()].get();
    s->conn = std::move(conn);
    s->conn->set_nonblocking(true);
    s->last_activity = std::chrono::steady_clock::now();
    sessions_accepted_.fetch_add(1, std::memory_order_relaxed);
    sessions_active_.fetch_add(1, std::memory_order_relaxed);
    Loop& to = *s->loop;
    {
      std::lock_guard<std::mutex> lock(to.inbox_mutex);
      to.inbox.push_back(std::move(s));
    }
    to.wake();  // harmless when `to` is this loop: it re-polls at once
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
  const archive::FieldEntry* fe;
  try {
    fe = &reader_.field(req.field);
  } catch (const std::invalid_argument& e) {
    enqueue_error(s, kStatusNotFound, e.what());
    return;
  }
  if (fe->dtype == kDtypeF64)
    serve_read<double>(s, req);
  else
    serve_read<float>(s, req);
}

template <typename T>
void Server::serve_read(const std::shared_ptr<Session>& s,
                        const ReadRequest& req) {
  archive::PartialRead<T> read;
  try {
    read = reader_.probe<T>(req.field, req.region);
  } catch (const std::invalid_argument& e) {
    enqueue_error(s, kStatusBadRequest, e.what());
    return;
  }
  if (read.complete()) {
    reply_read(s, read, {});
    return;
  }
  // The misses go to the pool; the loop is free immediately.  `inflight`
  // keeps the session off the idle-reap and drain-close lists until the
  // response (or error) is queued.
  s->inflight.fetch_add(1, std::memory_order_acq_rel);
  pool_.submit([this, s, read = std::move(read)]() mutable {
    struct InflightGuard {
      Server& server;
      Session& session;
      ~InflightGuard() {
        session.inflight.fetch_sub(1);
        // Drain is the only waiter on the inflight -> 0 edge (idle reaping
        // re-checks on its poll timeout).  Ring AFTER the decrement, both
        // seq_cst, so a draining loop re-checks with inflight at its final
        // value.
        if (server.draining_.load()) session.loop->wake();
      }
    } guard{*this, *s};
    try {
      // Degraded serving: collect the damage report so the client KNOWS
      // which blocks came back as zero-filled holes (read-repaired blocks
      // are exact and are NOT reported — only true holes are).
      archive::ReadDamage damage;
      reader_.decode(read, config_.degraded ? &damage : nullptr);
      reply_read(s, read, damage);
    } catch (const std::invalid_argument& e) {
      enqueue_error(s, kStatusBadRequest, e.what());
    } catch (const std::exception& e) {
      enqueue_error(s, kStatusServerError, e.what());
    }
  });
}

template <typename T>
void Server::reply_read(const std::shared_ptr<Session>& s,
                        const archive::PartialRead<T>& read,
                        const archive::ReadDamage& damage) {
  ReadResponse resp;
  resp.dtype = std::is_same_v<T, double> ? kDtypeF64 : kDtypeF32;
  resp.shape = read.region.shape();
  resp.values.resize(read.out.size() * sizeof(T));
  std::memcpy(resp.values.data(), read.out.data(), resp.values.size());
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
  bool leftover;  // bytes (or a dead peer) for the POLLOUT flush
  {
    std::lock_guard<std::mutex> lock(s->out_mutex);
    if (s->closed.load(std::memory_order_relaxed)) return;
    // Counted before the first byte is written, like the request, so any
    // stats snapshot taken after a client saw a reply includes all of it.
    (status == kStatusOk ? requests_ok_ : requests_error_)
        .fetch_add(1, std::memory_order_relaxed);
    bytes_out_.fetch_add(frame.size(), std::memory_order_relaxed);
    const bool idle_outbox = s->outbox.empty();
    s->outbox.push_back(std::move(frame));
    // Send now, else queue: with nothing ahead of it the frame goes out
    // right here; behind a partial write it waits its turn.
    leftover = !idle_outbox || !flush_output(*s, lock) || !s->outbox.empty();
  }
  if (leftover) s->loop->wake();
}

void Server::enqueue_error(const std::shared_ptr<Session>& s,
                           std::uint8_t status, const std::string& message) {
  enqueue(s, status,
          {reinterpret_cast<const std::uint8_t*>(message.data()),
           message.size()});
}

bool Server::flush_output(Session& s, const std::lock_guard<std::mutex>&) {
  bool wrote = false;
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
    wrote = wrote || n > 0;
    s.out_pos += static_cast<std::size_t>(n);
    if (s.out_pos == front.size()) {
      s.outbox.pop_front();
      s.out_pos = 0;
    }
  }
  if (wrote)
    s.last_reply.store(std::chrono::steady_clock::now(),
                       std::memory_order_relaxed);
  return true;
}

void Server::close_session(Loop& loop, std::uint64_t id) {
  const auto it = loop.sessions.find(id);
  if (it == loop.sessions.end()) return;
  {
    std::lock_guard<std::mutex> lock(it->second->out_mutex);
    it->second->closed.store(true, std::memory_order_relaxed);
  }
  loop.sessions.erase(it);
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
Server::Loop::~Loop() {}
void Server::Loop::wake() noexcept {}
void Server::wake_all() noexcept {}
void Server::event_loop(Loop&) {}
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
bool Server::flush_output(Session&, const std::lock_guard<std::mutex>&) {
  return false;
}
void Server::close_session(Loop&, std::uint64_t) {}

#endif

}  // namespace sz14::serve
