// Placement-as-a-service: the sharded daemon fronting the bounded-memory
// streaming engine (DESIGN.md §13).
//
// Layering: Server (this file) owns the listeners, the shard router and
// the lifecycle; each shard is a serve::Loop (loop.hpp) — one epoll
// thread owning a disjoint set of serve::Session connection state
// machines (session.hpp). ServerOptions::loopThreads picks the shard
// count (0 = one per hardware thread); connections are accepted on loop
// 0 and handed off round-robin via each loop's eventfd wake path, then
// stay pinned to their shard for life. Sessions are independent — only
// the TenantTable and the telemetry registry are shared, both
// thread-safe — so a 4-shard server produces placements bit-identical
// to local StreamEngine runs; the serve differential suite pins this
// for every policy spec and both engines.
//
// The wire protocol is cdbp-serve v2 (serve/protocol.hpp): clients can
// pack many PLACE/DEPART sub-ops into one BATCH frame. Per-tenant counters
// (serve.tenant.<id>.placements/.bytes/.usage) ride the global registry
// and surface through SCRAPE.
//
// Backpressure stays per-connection (session.hpp); graceful drain —
// requestDrain(), async-signal-safe, wired to SIGTERM by cdbp_served —
// fans out to every shard: each loop stops accepting, answers its
// in-flight requests, flushes (bounded by drainTimeoutNanos), closes
// and exits. stats() afterwards shows drained == true.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/loop.hpp"
#include "serve/types.hpp"

namespace cdbp::serve {

class Server {
 public:
  /// Validates the options up front (throws std::invalid_argument), so a
  /// constructed Server always carries a resolved shard count.
  explicit Server(ServerOptions options);

  /// Stops every loop (hard) and joins.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the configured listeners, creates the loop threads and starts
  /// them. Throws std::system_error when a socket call fails.
  void start();

  /// Hands an already-connected stream socket (e.g. one end of a
  /// socketpair) to the next shard round-robin; the owning loop takes
  /// the fd.
  void adoptConnection(int fd);

  /// Graceful shutdown across all shards; async-signal-safe (per-loop
  /// atomic store + eventfd write, over an immutable loop vector).
  void requestDrain() noexcept;

  /// Hard stop: every loop closes everything without flushing. Used by
  /// tests and the destructor; production shutdown is requestDrain().
  void stop() noexcept;

  /// Waits for every loop thread to exit.
  void join();

  /// True while any loop thread is still running.
  bool running() const;

  /// Bound port of the first TCP listener (after start(); 0 when no TCP
  /// address was configured).
  std::uint16_t tcpPort() const;

  /// Counters aggregated across all shards: sums for the monotonic
  /// counters, max for peakWriteBuffered (the bound is per-connection),
  /// draining if any shard drains, drained only when all have.
  ServerStats stats() const;

  /// Copy of the shared tenant map, sorted by tenant id.
  std::vector<TenantSnapshot> tenants() const;

  /// Connections ever registered per shard (accepted + adopted), in
  /// shard order — the round-robin distribution tests read this.
  std::vector<std::uint64_t> shardConnectionCounts() const;

  /// Resolved options (loopThreads filled in); handy for tests.
  const ServerOptions& options() const { return options_; }

 private:
  /// Round-robin shard pick for accepted/adopted connections.
  Loop& nextLoop();

  ServerOptions options_;  // validated; immutable after construction
  TenantTable tenants_;

  // Immutable after start() — requestDrain() iterates it from signal
  // context, so it must never reallocate once the loops are live.
  std::vector<std::unique_ptr<Loop>> loops_;

  std::atomic<std::size_t> nextShard_{0};
  std::atomic<std::uint16_t> boundTcpPort_{0};
  bool started_ = false;
};

}  // namespace cdbp::serve
