// Blocking client for the serving daemon.  One Client is one connection:
// it dials through the transport table, performs the version handshake,
// then issues strictly request/response ops.  Not thread-safe — use one
// Client per thread (the server multiplexes fine; this keeps the client
// trivial and mirrors how the CLI and benchmarks actually use it).
//
// Failure model: every op is an idempotent read, so a transport failure or
// deadline expiry (TimeoutError) triggers an automatic reconnect +
// re-handshake + reissue with bounded exponential backoff and jitter, up
// to ClientConfig::retries times.  A server that ANSWERED with a non-OK
// status is never retried — that surfaces immediately as RemoteError
// (status + diagnostic attached), and a dial that keeps failing surfaces
// as ConnectError (refusal) or TimeoutError (deadline), so callers can
// map connect-failure / timeout / protocol error / not-found to distinct
// exit paths without string matching.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "archive/blocking.hpp"
#include "archive/stat_format.hpp"
#include "common/rng.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"

namespace sz14::serve {

/// Could not establish (or re-establish) a connection: refused endpoint,
/// unreachable host, handshake EOF.  Deadline expiries stay TimeoutError.
class ConnectError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The server answered with a non-OK status; `status` is the kStatus* code
/// and the message carries status_name() + the server's diagnostic.
/// Never retried (the request reached the server and was refused).
class RemoteError : public std::runtime_error {
 public:
  RemoteError(std::uint8_t status, const std::string& message)
      : std::runtime_error(message), status_(status) {}
  [[nodiscard]] std::uint8_t status() const noexcept { return status_; }

 private:
  std::uint8_t status_;
};

/// Deadlines and retry policy for one Client.  Zero/negative timeout means
/// "wait forever" (the pre-hardening behavior); retries = 0 disables the
/// reissue loop.
struct ClientConfig {
  int connect_timeout_ms = 5000;    ///< dial + handshake budget per attempt
  int request_timeout_ms = 30000;   ///< per-request response budget
  unsigned retries = 2;             ///< reconnect+reissue attempts on top of
                                    ///< the first try (transport faults only)
  int backoff_initial_ms = 50;      ///< first retry delay (then doubles)
  int backoff_max_ms = 2000;        ///< delay ceiling
  std::uint64_t jitter_seed = 0x9E3779B97F4A7C15ull;  ///< deterministic tests
};

class Client {
 public:
  /// Dial `endpoint` over `transport` and run the open handshake, with
  /// `config`'s deadline and retry policy.  Throws ConnectError /
  /// TimeoutError after the retry budget is exhausted, RemoteError on a
  /// version-mismatch refusal.
  Client(const std::string& transport, const std::string& endpoint,
         ClientConfig config = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Field count reported by the open handshake.
  [[nodiscard]] std::uint64_t field_count() const noexcept {
    return field_count_;
  }

  /// Summary of every field (no per-block rows).
  [[nodiscard]] std::vector<archive::FieldStat> ls();

  /// Full stat for one field, per-block rows included.
  [[nodiscard]] archive::FieldStat stat(const std::string& field);

  /// Server counter snapshot (Server::stats() records).
  [[nodiscard]] Metrics stats();

  /// Decoded values of `region` of `field` (std::nullopt: the whole
  /// field).  T is float for an f32 field and double for an f64 one;
  /// throws std::runtime_error on a mismatch.
  template <class T>
  [[nodiscard]] std::vector<T> read(
      const std::string& field,
      const std::optional<archive::Region>& region = std::nullopt);

  /// read<float>(field, region), kept for perfbench/bench.cpp.
  [[deprecated("perfbench only; ROADMAP item 8")]] [[nodiscard]]
  std::vector<float> read_region(const std::string& field,
                                 const archive::Region& region) {
    return read<float>(field, region);
  }

  /// Raw variant the CLI uses: dtype + shape + LE payload, no typing.
  [[nodiscard]] ReadResponse read_raw(
      const std::string& field,
      const std::optional<archive::Region>& region);

  /// Ask the server to scrub its archive in the background; true =
  /// accepted, false = a scrub is already running (try again later).
  [[nodiscard]] bool scrub(bool repair);

  /// True when the most recent read (typed or raw) was served DEGRADED:
  /// one or more unrecoverable blocks came back zero-filled.  read<T>()
  /// returns a plain vector, so this flag is how a caller notices the
  /// data has holes; last_read_holes() lists them.
  [[nodiscard]] bool last_read_degraded() const noexcept {
    return last_degraded_;
  }
  /// Zero-filled block indices of the most recent degraded read (empty
  /// when last_read_degraded() is false).
  [[nodiscard]] const std::vector<std::uint64_t>& last_read_holes()
      const noexcept {
    return last_holes_;
  }

  /// Escape hatch for robustness tests: the underlying connection.
  [[nodiscard]] Connection& connection() noexcept { return *conn_; }

  /// Reconnects + re-handshakes performed over this client's lifetime
  /// (how many times the retry loop actually fired).
  [[nodiscard]] std::uint64_t reconnects() const noexcept {
    return reconnects_;
  }

 private:
  /// One dial + handshake under the connect deadline; replaces conn_ and
  /// resets the frame parser.
  void redial();

  /// Send one request frame on the current connection, block for one
  /// response frame under `timeout_ms`; RemoteError on any non-OK status.
  std::vector<std::uint8_t> roundtrip_once(std::uint8_t opcode,
                                           std::span<const std::uint8_t> body,
                                           int timeout_ms);

  /// roundtrip_once + the reconnect/backoff retry loop.
  std::vector<std::uint8_t> roundtrip(std::uint8_t opcode,
                                      std::span<const std::uint8_t> body);

  /// Sleep the attempt-th backoff delay (exponential, jittered, capped).
  void backoff_sleep(unsigned attempt);

  std::string transport_name_;
  std::string endpoint_;
  ClientConfig config_;
  Rng rng_;
  std::unique_ptr<Connection> conn_;
  FrameParser parser_{kMaxResponseBody};
  std::uint64_t field_count_ = 0;
  std::uint64_t reconnects_ = 0;
  bool last_degraded_ = false;
  std::vector<std::uint64_t> last_holes_;
};

extern template std::vector<float> Client::read<float>(
    const std::string&, const std::optional<archive::Region>&);
extern template std::vector<double> Client::read<double>(
    const std::string&, const std::optional<archive::Region>&);

}  // namespace sz14::serve
