#include "serve/client.hpp"

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "core/format.hpp"

namespace sz14::serve {
namespace {

/// Config timeouts use "0 or negative = wait forever"; poll wants -1.
int poll_budget(int timeout_ms) { return timeout_ms > 0 ? timeout_ms : -1; }

}  // namespace

Client::Client(const std::string& transport, const std::string& endpoint,
               ClientConfig config)
    : transport_name_(transport), endpoint_(endpoint), config_(config),
      rng_(config.jitter_seed) {
  if (transport_by_name(transport) == nullptr)
    throw std::invalid_argument("serve: unknown transport '" + transport +
                                "'");
  for (unsigned attempt = 0;; ++attempt) {
    try {
      redial();
      return;
    } catch (const RemoteError&) {
      throw;  // the server answered and refused us; retrying won't help
    } catch (const ProtocolError&) {
      throw;  // peer speaks garbage; same on every retry
    } catch (const std::exception&) {
      conn_.reset();
      if (attempt >= config_.retries) throw;
      backoff_sleep(attempt);
    }
  }
}

Client::~Client() = default;

void Client::redial() {
  const TransportOps* t = transport_by_name(transport_name_);
  conn_.reset();
  parser_ = FrameParser(kMaxResponseBody);
  try {
    conn_ = t->connect(endpoint_, poll_budget(config_.connect_timeout_ms));
  } catch (const TimeoutError&) {
    throw;
  } catch (const std::invalid_argument&) {
    throw;  // malformed endpoint: permanent, not a connectivity fault
  } catch (const std::exception& e) {
    throw ConnectError("serve: cannot connect to " + transport_name_ + ":" +
                       endpoint_ + ": " + e.what());
  }
  // Handshake under the CONNECT deadline: a listener that accepts but
  // never answers is a dial failure, not a slow request.
  ByteWriter w;
  encode_open_request(OpenRequest{kProtocolVersion}, w);
  try {
    const auto body =
        roundtrip_once(kOpOpen, w.view(), config_.connect_timeout_ms);
    ByteReader in(body);
    const OpenResponse open = decode_open_response(in);
    field_count_ = open.field_count;
  } catch (const TimeoutError&) {
    conn_.reset();
    throw;
  } catch (const RemoteError&) {
    conn_.reset();
    throw;
  } catch (const ProtocolError&) {
    conn_.reset();
    throw;
  } catch (const std::exception& e) {
    conn_.reset();
    throw ConnectError("serve: handshake with " + transport_name_ + ":" +
                       endpoint_ + " failed: " + e.what());
  }
}

std::vector<std::uint8_t> Client::roundtrip_once(
    std::uint8_t opcode, std::span<const std::uint8_t> body,
    int timeout_ms) {
  conn_->send_all(encode_frame(opcode, body), poll_budget(timeout_ms));
  const auto start = std::chrono::steady_clock::now();
  Frame frame;
  while (!parser_.next(frame)) {
    int remaining = -1;
    if (timeout_ms > 0) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      if (elapsed >= timeout_ms)
        throw TimeoutError("serve: request timed out after " +
                           std::to_string(timeout_ms) + " ms");
      remaining = static_cast<int>(timeout_ms - elapsed);
    }
    std::uint8_t buf[64 << 10];
    const std::size_t n = conn_->recv_some(buf, remaining);
    if (n == 0)
      throw std::runtime_error("serve: connection closed mid-response");
    parser_.feed({buf, n});
  }
  if (frame.kind != kStatusOk) {
    const std::string detail(frame.body.begin(), frame.body.end());
    throw RemoteError(frame.kind,
                      std::string("serve: ") + status_name(frame.kind) +
                          (detail.empty() ? "" : ": " + detail));
  }
  return std::move(frame.body);
}

std::vector<std::uint8_t> Client::roundtrip(
    std::uint8_t opcode, std::span<const std::uint8_t> body) {
  for (unsigned attempt = 0;; ++attempt) {
    try {
      if (!conn_) redial();  // reconnect after a previous transport fault
      return roundtrip_once(opcode, body, config_.request_timeout_ms);
    } catch (const RemoteError&) {
      throw;  // an answered request is never reissued
    } catch (const ProtocolError&) {
      conn_.reset();  // framing lost — the connection is unusable
      throw;
    } catch (const std::exception&) {
      // Transport fault (EOF, reset, deadline): every op is an idempotent
      // read, so reconnect + reissue is always safe.
      conn_.reset();
      if (attempt >= config_.retries) throw;
      backoff_sleep(attempt);
    }
  }
}

void Client::backoff_sleep(unsigned attempt) {
  ++reconnects_;
  long long delay =
      config_.backoff_initial_ms > 0 ? config_.backoff_initial_ms : 1;
  for (unsigned i = 0; i < attempt; ++i) {
    delay *= 2;
    if (config_.backoff_max_ms > 0 && delay >= config_.backoff_max_ms) break;
  }
  if (config_.backoff_max_ms > 0 && delay > config_.backoff_max_ms)
    delay = config_.backoff_max_ms;
  // Jitter in [delay/2, delay] so a burst of clients spreads out instead
  // of hammering the endpoint in lockstep.
  const long long floor_ms = delay / 2;
  const long long span = delay - floor_ms + 1;
  const long long jittered =
      floor_ms +
      static_cast<long long>(rng_.below(static_cast<std::uint64_t>(span)));
  std::this_thread::sleep_for(std::chrono::milliseconds(jittered));
}

std::vector<archive::FieldStat> Client::ls() {
  const auto body = roundtrip(kOpLs, {});
  ByteReader in(body);
  return decode_ls_response(in);
}

archive::FieldStat Client::stat(const std::string& field) {
  ByteWriter w;
  encode_stat_request(StatRequest{field}, w);
  const auto body = roundtrip(kOpStat, w.view());
  ByteReader in(body);
  return archive::decode_field_stat(in);
}

Metrics Client::stats() {
  const auto body = roundtrip(kOpStats, {});
  ByteReader in(body);
  return decode_stats_response(in);
}

ReadResponse Client::read_raw(const std::string& field,
                              const std::optional<archive::Region>& region) {
  ByteWriter w;
  encode_read_request(ReadRequest{field, region}, w);
  const auto body =
      roundtrip(region ? kOpReadRegion : kOpReadField, w.view());
  ByteReader in(body);
  ReadResponse resp = decode_read_response(in);
  last_degraded_ = resp.degraded;
  last_holes_ = resp.holes;
  return resp;
}

bool Client::scrub(bool repair) {
  ByteWriter w;
  encode_scrub_request(ScrubRequest{repair}, w);
  const auto body = roundtrip(kOpScrub, w.view());
  ByteReader in(body);
  return decode_scrub_response(in).accepted;
}

template <class T>
std::vector<T> Client::read(const std::string& field,
                            const std::optional<archive::Region>& region) {
  constexpr bool f64 = std::is_same_v<T, double>;
  const ReadResponse resp = read_raw(field, region);
  if (resp.dtype != (f64 ? kDtypeF64 : kDtypeF32))
    throw std::runtime_error(std::string("serve: field is not ") +
                             (f64 ? "f64" : "f32"));
  std::vector<T> out(resp.values.size() / sizeof(T));
  std::memcpy(out.data(), resp.values.data(), resp.values.size());
  return out;
}

template std::vector<float> Client::read<float>(
    const std::string&, const std::optional<archive::Region>&);
template std::vector<double> Client::read<double>(
    const std::string&, const std::optional<archive::Region>&);

}  // namespace sz14::serve
