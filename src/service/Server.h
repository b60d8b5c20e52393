//===-- service/Server.h - ndjson-over-TCP verification daemon --*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `hyperviper serve` daemon: newline-delimited JSON over TCP on
/// 127.0.0.1. One JSON object per line in each direction; requests carry a
/// client-chosen `id` that the matching response echoes, so a client may
/// pipeline. Responses to concurrent requests on one connection come back
/// in completion order.
///
/// Request shape (the verb selects the subsystem; the keys each verb takes
/// are the rows of its option table, service/Options.h):
///
///   {"id":1,"verb":"verify","source":"...","name":"acct.hv","jobs":3}
///   {"id":4,"verb":"stats"}
///
/// Response shape:
///
///   {"id":1,"ok":true,"exit":0,"report":"acct.hv: verified\n",
///    "program_cache_hit":false,"cache":{"alpha_hits":...,...}}
///   {"id":9,"error":{"type":"busy","message":"..."}}
///
/// Error types: `bad-request` (an unparseable line, a missing field, a key
/// the verb does not take, or a value of the wrong type or range; see
/// service/Options.h), `unknown-verb`, `busy` (bounded work queue full —
/// the backpressure contract: the daemon never buffers unboundedly, it
/// refuses), `timeout`, and `shutting-down`.
///
/// The `report` string is byte-identical to the one-shot CLI's combined
/// stderr+stdout output for the same input, cold or warm cache, at any
/// `jobs`, under any interleaving of concurrent clients — the determinism
/// contract the E2E tests enforce. `stats` and `shutdown` are handled
/// inline (never queued), so health checks and shutdown cannot be starved
/// by a full queue.
///
/// Connection lifecycle: every accepted socket sets `TCP_NODELAY` (each
/// response is one complete line, so Nagle's algorithm has nothing to
/// coalesce and would only hold a pipelined answer until the client's
/// delayed ACK) and gets its own reader thread. When the client leaves, the
/// reader drops the connection; its descriptor closes once the last queued
/// response for it has been written, never earlier, so a reused descriptor
/// number cannot carry a late response to another client. A failed
/// `accept` retries (a client that gave up at once, and after a short pause
/// when descriptors or memory run out) or, on any other error, stops the
/// daemon so that it drains and exits rather than keeping an unserved port.
///
/// Shutdown (the `shutdown` verb, or `Server::stop` from a signal watcher)
/// is graceful: stop accepting connections and queueing work, drain every
/// in-flight request, answer it, then return from `run()` so the caller
/// can flush trace/metrics sinks.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_SERVICE_SERVER_H
#define COMMCSL_SERVICE_SERVER_H

#include "service/Json.h"
#include "service/Session.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace commcsl {

/// The serve daemon. Owns a listening socket, per-connection reader
/// threads, a bounded work queue, and the worker pool; delegates request
/// semantics to a `Session`.
class Server {
public:
  /// \p Port 0 binds an ephemeral port (read it back from `port()` — the
  /// tests' race-free pattern). \p Workers bounds how many requests are
  /// *in flight* (each still fans out over the shared ThreadPool
  /// internally). \p MaxQueue bounds the request queue; a line arriving
  /// while it is full is answered with a typed `busy` error immediately.
  explicit Server(SessionOptions SessionOpts, uint16_t Port = 0,
                  unsigned Workers = 2, size_t MaxQueue = 64);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens on 127.0.0.1. Returns false (with `error()` set)
  /// when the port cannot be bound.
  bool start();

  /// The bound port (valid after `start()`; the actual port when 0 was
  /// requested).
  uint16_t port() const { return BoundPort; }

  /// Accepts and serves until `stop()` or a `shutdown` request. Returns
  /// after every in-flight request has been answered and every thread
  /// joined.
  void run();

  /// Thread-safe graceful-shutdown trigger (idempotent). `run()` drains
  /// and returns; this call does not wait for it.
  void stop();

  const std::string &error() const { return Error; }

  /// The session, exposed for in-process tests.
  Session &session() { return Sess; }

private:
  struct Connection;
  /// A validated request waiting for a worker.
  struct QueueItem {
    std::shared_ptr<Connection> Conn;
    std::optional<JsonValue> Id; ///< echoed on the response
    ServiceRequest Request;
  };

  /// An open connection and the thread reading it.
  struct Reader {
    std::shared_ptr<Connection> Conn;
    std::thread Thread;
  };

  void acceptLoop();
  void readerLoop(std::shared_ptr<Connection> Conn);
  void workerLoop();
  void serveLine(const std::shared_ptr<Connection> &Conn,
                 const std::string &Line);
  std::string statsJson() const;

  Session Sess;
  uint16_t RequestedPort;
  unsigned Workers;
  size_t MaxQueue;

  int ListenFd = -1;
  uint16_t BoundPort = 0;
  std::string Error;

  std::atomic<bool> Stopping{false};
  mutable std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<QueueItem> Queue;
  size_t InFlight = 0; ///< items popped but not yet answered

  std::mutex ConnMu;
  std::condition_variable ConnCv;    ///< signalled as each reader leaves
  std::vector<Reader> Readers;       ///< open connections
  std::vector<std::thread> Finished; ///< readers that left, to be joined
};

} // namespace commcsl

#endif // COMMCSL_SERVICE_SERVER_H
