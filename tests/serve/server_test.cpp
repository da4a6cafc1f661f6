// End-to-end and robustness tests for the sharded serve daemon
// (DESIGN.md §13).
//
// Most tests adopt one end of a socketpair into the server's event loop —
// no filesystem or port allocation — and drive the other end with
// serve::Client. Single-loop servers where determinism matters; the
// multi-shard tests at the bottom run 4 loop threads and are the tsan
// preset's shard-handoff / concurrent-scrape / drain-under-load coverage.
// Listener coverage (Unix path + loopback TCP) sits in between.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "online/policy_factory.hpp"
#include "serve/client.hpp"
#include "sim/streaming.hpp"
#include "telemetry/telemetry.hpp"

namespace cdbp::serve {
namespace {

constexpr double kMinDuration = 1.0;
constexpr double kMu = 8.0;

HelloFrame makeHello(const std::string& tenant, const std::string& spec) {
  HelloFrame hello;
  hello.version = kProtocolVersion;
  hello.engine = 0;
  hello.minDuration = kMinDuration;
  hello.mu = kMu;
  hello.seed = 42;
  hello.tenant = tenant;
  hello.policySpec = spec;
  return hello;
}

ServerOptions singleLoop() {
  return ServerOptionsBuilder().loopThreads(1).build();
}

/// Server + one adopted socketpair connection, torn down in order.
struct Harness {
  explicit Harness(ServerOptions options = singleLoop()) : server(options) {
    server.start();
    int fds[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    clientFd = fds[0];
    server.adoptConnection(fds[1]);
  }

  /// Adds another adopted connection, returning the client-side fd.
  int adoptAnother() {
    int fds[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server.adoptConnection(fds[1]);
    return fds[0];
  }

  Server server;
  int clientFd = -1;
};

void waitFor(const std::function<bool()>& done) {
  for (int i = 0; i < 2000; ++i) {
    if (done()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "condition not reached within the polling budget";
}

TEST(ServeServer, OptionsValidation) {
  // loopThreads 0 resolves to hardware concurrency (floor 1).
  ServerOptions resolved = ServerOptions{}.validated();
  EXPECT_GE(resolved.loopThreads, 1u);

  ServerOptions bad;
  bad.loopThreads = 257;
  EXPECT_THROW(bad.validated(), std::invalid_argument);
  bad = ServerOptions{};
  bad.writeBufferLimit = 0;
  EXPECT_THROW(bad.validated(), std::invalid_argument);
  bad = ServerOptions{};
  bad.maxFramePayload = 8;
  EXPECT_THROW(bad.validated(), std::invalid_argument);
  bad = ServerOptions{};
  bad.drainTimeoutNanos = 0;
  EXPECT_THROW(bad.validated(), std::invalid_argument);

  EXPECT_THROW(ServerOptionsBuilder().listenOn("tcp:nohost"),
               std::invalid_argument);
  ServerOptions built = ServerOptionsBuilder()
                            .listenOn("unix:/tmp/x.sock")
                            .loopThreads(4)
                            .writeBufferLimit(1024)
                            .build();
  EXPECT_EQ(built.loopThreads, 4u);
  ASSERT_EQ(built.listen.size(), 1u);
  EXPECT_EQ(built.listen[0].path, "/tmp/x.sock");
}

TEST(ServeServer, EndToEndSessionMatchesLocalEngine) {
  Harness h;
  Client client(h.clientFd);

  HelloOkFrame ok = client.hello(makeHello("tenant-a", "cdt-ff"));
  EXPECT_EQ(ok.version, kProtocolVersion);
  EXPECT_EQ(client.negotiatedVersion(), kProtocolVersion);
  EXPECT_GT(ok.tenantId, 0u);

  // The same item sequence through a local StreamEngine: the served
  // placements must match decision for decision.
  PolicyContext context;
  context.minDuration = kMinDuration;
  context.mu = kMu;
  context.seed = 42;
  PolicyPtr local = makePolicy("cdt-ff", context);
  StreamEngine engine(*local);
  EXPECT_EQ(ok.policyName, local->name());

  std::vector<StreamItem> items;
  for (int i = 0; i < 200; ++i) {
    double arrival = 0.25 * i;
    double size = 0.1 + 0.13 * static_cast<double>(i % 7);
    double departure = arrival + kMinDuration + (i % 11);
    items.push_back(StreamItem{size, arrival, departure});
  }
  for (const StreamItem& item : items) {
    PlacedFrame served = client.place(item.size, item.arrival, item.departure);
    StreamEngine::Placement expected = engine.place(item);
    ASSERT_EQ(served.item, expected.item);
    ASSERT_EQ(served.bin, expected.bin);
    ASSERT_EQ(served.openedNewBin != 0, expected.openedNewBin);
    ASSERT_EQ(served.category, expected.category);
  }

  StatsOkFrame stats = client.stats();
  EXPECT_EQ(stats.items, engine.itemsPlaced());
  EXPECT_EQ(stats.binsOpened, engine.binsOpened());
  EXPECT_EQ(stats.openBins, engine.openBins());
  EXPECT_EQ(stats.pendingDepartures, engine.pendingDepartures());

  DepartOkFrame departed = client.departUntil(60.0);
  std::size_t localDrained = engine.drainUntil(60.0);
  EXPECT_EQ(departed.drained, localDrained);
  EXPECT_EQ(departed.openBins, engine.openBins());

  DrainOkFrame drained = client.drain();
  StreamResult result = engine.finish();
  EXPECT_EQ(drained.items, result.items);
  EXPECT_EQ(drained.totalUsage, result.totalUsage);
  EXPECT_EQ(drained.binsOpened, result.binsOpened);
  EXPECT_EQ(drained.maxOpenBins, result.maxOpenBins);
  EXPECT_EQ(drained.categoriesUsed, result.categoriesUsed);
  EXPECT_EQ(drained.lb3, result.lb3);
  EXPECT_EQ(drained.peakOpenItems, result.peakOpenItems);

  ServerStats serverStats = h.server.stats();
  EXPECT_EQ(serverStats.placements, items.size());
  EXPECT_EQ(serverStats.sessionsOpened, 1u);
  EXPECT_EQ(serverStats.sessionsFinished, 1u);
  EXPECT_EQ(serverStats.shedConnections, 0u);

  std::vector<TenantSnapshot> tenants = h.server.tenants();
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_EQ(tenants[0].name, "tenant-a");
  EXPECT_TRUE(tenants[0].finished);
}

TEST(ServeServer, TypedErrorsKeepTheConnectionServing) {
  Harness h;
  Client client(h.clientFd);

  // PLACE before HELLO.
  {
    std::vector<std::uint8_t> bytes;
    appendPlace(bytes, PlaceFrame{0.5, 0.0, 2.0});
    client.sendRaw(bytes);
    OwnedFrame reply = client.readFrame();
    ASSERT_EQ(reply.type, FrameType::kError);
    ErrorFrame error;
    ASSERT_TRUE(decodeError(reply.view(), error));
    EXPECT_EQ(error.code, ErrorCode::kUnknownTenant);
  }

  // BATCH before HELLO: typed rejection too, no disconnect.
  {
    BatchFrame batch;
    BatchOp op;
    op.place = PlaceFrame{0.5, 0.0, 2.0};
    batch.ops = {op};
    std::vector<std::uint8_t> bytes;
    appendBatch(bytes, batch);
    client.sendRaw(bytes);
    OwnedFrame reply = client.readFrame();
    ASSERT_EQ(reply.type, FrameType::kError);
    ErrorFrame error;
    ASSERT_TRUE(decodeError(reply.view(), error));
    EXPECT_EQ(error.code, ErrorCode::kUnknownTenant);
  }

  // Unknown frame type.
  {
    std::vector<std::uint8_t> bytes = {0x01, 0x00, 0x00, 0x00, 0x7E};
    client.sendRaw(bytes);
    OwnedFrame reply = client.readFrame();
    ErrorFrame error;
    ASSERT_TRUE(decodeError(reply.view(), error));
    EXPECT_EQ(error.code, ErrorCode::kUnknownFrameType);
  }

  // Zero-length frame.
  {
    std::vector<std::uint8_t> bytes = {0x00, 0x00, 0x00, 0x00};
    client.sendRaw(bytes);
    OwnedFrame reply = client.readFrame();
    ErrorFrame error;
    ASSERT_TRUE(decodeError(reply.view(), error));
    EXPECT_EQ(error.code, ErrorCode::kMalformedFrame);
  }

  // Truncated HELLO body under a self-consistent length prefix.
  {
    std::vector<std::uint8_t> bytes = {0x03, 0x00, 0x00, 0x00,
                                       0x01,  // kHello
                                       0x01, 0x00};
    client.sendRaw(bytes);
    OwnedFrame reply = client.readFrame();
    ErrorFrame error;
    ASSERT_TRUE(decodeError(reply.view(), error));
    EXPECT_EQ(error.code, ErrorCode::kMalformedFrame);
  }

  // Version below the floor: v0 is rejected (anything >= 2 negotiates).
  {
    HelloFrame hello = makeHello("tenant", "ff");
    hello.version = 0;
    EXPECT_THROW(
        {
          try {
            client.hello(hello);
          } catch (const ServeError& e) {
            EXPECT_EQ(e.code(), ErrorCode::kProtocolVersion);
            throw;
          }
        },
        ServeError);
  }

  // Bad policy spec.
  {
    EXPECT_THROW(
        {
          try {
            client.hello(makeHello("tenant", "no-such-policy(rho=banana)"));
          } catch (const ServeError& e) {
            EXPECT_EQ(e.code(), ErrorCode::kBadPolicySpec);
            throw;
          }
        },
        ServeError);
  }

  // After all of that the connection still opens a working session.
  HelloOkFrame ok = client.hello(makeHello("tenant", "ff"));
  EXPECT_GT(ok.tenantId, 0u);

  // Duplicate HELLO.
  EXPECT_THROW(
      {
        try {
          client.hello(makeHello("tenant-again", "bf"));
        } catch (const ServeError& e) {
          EXPECT_EQ(e.code(), ErrorCode::kDuplicateHello);
          throw;
        }
      },
      ServeError);

  // Bad item: non-positive size is rejected by the engine, session intact.
  EXPECT_THROW(
      {
        try {
          client.place(-1.0, 0.0, 2.0);
        } catch (const ServeError& e) {
          EXPECT_EQ(e.code(), ErrorCode::kBadItem);
          throw;
        }
      },
      ServeError);

  // Accepted placement, then an out-of-order DEPART behind the watermark.
  PlacedFrame placed = client.place(0.5, 5.0, 8.0);
  EXPECT_EQ(placed.bin, 0);
  EXPECT_THROW(
      {
        try {
          client.departUntil(1.0);
        } catch (const ServeError& e) {
          EXPECT_EQ(e.code(), ErrorCode::kOutOfOrder);
          throw;
        }
      },
      ServeError);

  // Out-of-order PLACE behind the watermark.
  EXPECT_THROW(
      {
        try {
          client.place(0.5, 1.0, 9.0);
        } catch (const ServeError& e) {
          EXPECT_EQ(e.code(), ErrorCode::kOutOfOrder);
          throw;
        }
      },
      ServeError);

  // The session still works and finishes cleanly.
  DrainOkFrame drained = client.drain();
  EXPECT_EQ(drained.items, 1u);

  // Requests after DRAIN are typed rejections, not disconnects.
  EXPECT_THROW(
      {
        try {
          client.place(0.5, 9.0, 12.0);
        } catch (const ServeError& e) {
          EXPECT_EQ(e.code(), ErrorCode::kSessionFinished);
          throw;
        }
      },
      ServeError);

  ServerStats stats = h.server.stats();
  EXPECT_GE(stats.errorsSent, 10u);
  EXPECT_EQ(stats.openConnections, 1u);  // never dropped
}

TEST(ServeServer, V1ClientIsRejected) {
  Harness h;
  Client client(h.clientFd);

  HelloFrame hello = makeHello("legacy", "ff");
  hello.version = 1;
  EXPECT_THROW(
      {
        try {
          client.hello(hello);
        } catch (const ServeError& e) {
          EXPECT_EQ(e.code(), ErrorCode::kProtocolVersion);
          throw;
        }
      },
      ServeError);
  EXPECT_EQ(client.negotiatedVersion(), 0);

  // The rejection is typed, not a disconnect: a v2 HELLO on the same
  // connection opens the session.
  EXPECT_EQ(client.hello(makeHello("current", "ff")).version,
            kProtocolVersion);
  EXPECT_EQ(client.place(0.5, 0.0, 4.0).bin, 0);
  EXPECT_EQ(client.drain().items, 1u);
}

TEST(ServeServer, FutureClientVersionCapsAtV2) {
  Harness h;
  Client client(h.clientFd);
  HelloFrame hello = makeHello("from-the-future", "ff");
  hello.version = 9;
  HelloOkFrame ok = client.hello(hello);
  EXPECT_EQ(ok.version, kProtocolVersion);
  BatchOkFrame batched =
      client.batch().place(0.5, 0.0, 2.0).place(0.25, 0.5, 3.0).send();
  EXPECT_EQ(batched.failed, 0);
  EXPECT_EQ(batched.results.size(), 2u);
  client.drain();
}

TEST(ServeServer, BatchMatchesIndividualRequests) {
  Harness h;
  Client batched(h.clientFd);
  Client individual(h.adoptAnother());
  batched.hello(makeHello("batched", "cdt-ff"));
  individual.hello(makeHello("individual", "cdt-ff"));

  BatchOkFrame ok = batched.batch()
                        .place(0.5, 0.0, 4.0)
                        .place(0.25, 1.0, 3.0)
                        .depart(3.5)
                        .place(0.75, 4.0, 9.0)
                        .send();
  ASSERT_EQ(ok.results.size(), 4u);
  EXPECT_EQ(ok.failed, 0);

  PlacedFrame p0 = individual.place(0.5, 0.0, 4.0);
  PlacedFrame p1 = individual.place(0.25, 1.0, 3.0);
  DepartOkFrame d = individual.departUntil(3.5);
  PlacedFrame p2 = individual.place(0.75, 4.0, 9.0);

  EXPECT_EQ(ok.results[0].kind, kBatchOpPlace);
  EXPECT_EQ(ok.results[0].placed.bin, p0.bin);
  EXPECT_EQ(ok.results[1].placed.bin, p1.bin);
  EXPECT_EQ(ok.results[2].kind, kBatchOpDepart);
  EXPECT_EQ(ok.results[2].depart.drained, d.drained);
  EXPECT_EQ(ok.results[2].depart.openBins, d.openBins);
  EXPECT_EQ(ok.results[3].placed.bin, p2.bin);
  EXPECT_EQ(ok.results[3].placed.item, p2.item);

  DrainOkFrame drainedBatch = batched.drain();
  DrainOkFrame drainedIndividual = individual.drain();
  EXPECT_EQ(drainedBatch.items, drainedIndividual.items);
  EXPECT_EQ(drainedBatch.totalUsage, drainedIndividual.totalUsage);
  EXPECT_GE(h.server.stats().batches, 1u);
}

TEST(ServeServer, BatchMidFailureReturnsCompletedPrefix) {
  Harness h;
  Client client(h.clientFd);
  client.hello(makeHello("partial", "ff"));

  BatchOkFrame ok = client.batch()
                        .place(0.5, 0.0, 4.0)
                        .place(-1.0, 1.0, 3.0)  // rejected: bad size
                        .place(0.25, 2.0, 5.0)  // never runs
                        .send();
  EXPECT_EQ(ok.failed, 1);
  EXPECT_EQ(ok.failedIndex, 1u);
  ASSERT_EQ(ok.results.size(), 1u);  // the completed prefix only
  EXPECT_EQ(ok.errorCode, ErrorCode::kBadItem);

  // The session survives a non-fatal mid-batch failure.
  PlacedFrame placed = client.place(0.25, 2.0, 5.0);
  EXPECT_EQ(placed.item, 1u);
  DrainOkFrame drained = client.drain();
  EXPECT_EQ(drained.items, 2u);
}

TEST(ServeServer, BatchBuilderRefusesOversizeAndV1Sessions) {
  Harness h;
  Client client(h.clientFd);

  // Before hello() there is no session: send() must refuse.
  EXPECT_THROW(client.batch().place(0.5, 0.0, 1.0).send(), std::logic_error);

  client.hello(makeHello("caps", "ff"));
  Client::Batch batch = client.batch();
  for (std::size_t i = 0; i <= kMaxBatchOps; ++i) {
    batch.place(0.1, static_cast<double>(i), static_cast<double>(i) + 1.0);
  }
  EXPECT_EQ(batch.size(), kMaxBatchOps + 1);
  EXPECT_THROW(batch.send(), std::logic_error);
  client.drain();
}

TEST(ServeServer, PipelinedWrapperMatchesPlacePath) {
  Harness h;
  Client pipelined(h.clientFd);
  Client individual(h.adoptAnother());
  pipelined.hello(makeHello("wrapper-batch", "cdt-ff"));
  individual.hello(makeHello("wrapper-place", "cdt-ff"));

  // The queue/flush/read wrapper travels as BATCH frames; placements must
  // agree decision for decision with one PLACE round trip per item.
  std::vector<PlacedFrame> fromBatches;
  std::vector<PlacedFrame> fromPlaces;
  constexpr std::size_t kItems = 500;  // > one burst, < kMaxBatchOps
  for (std::size_t i = 0; i < kItems; ++i) {
    double arrival = 0.1 * static_cast<double>(i);
    double size = 0.05 + 0.11 * static_cast<double>(i % 9);
    pipelined.queuePlace(size, arrival, arrival + 3.0);
    fromPlaces.push_back(individual.place(size, arrival, arrival + 3.0));
  }
  pipelined.flushQueued();
  while (pipelined.queued() > 0) fromBatches.push_back(pipelined.readPlaced());

  ASSERT_EQ(fromBatches.size(), kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(fromBatches[i].item, fromPlaces[i].item) << "item " << i;
    ASSERT_EQ(fromBatches[i].bin, fromPlaces[i].bin) << "item " << i;
    ASSERT_EQ(fromBatches[i].openedNewBin, fromPlaces[i].openedNewBin)
        << "item " << i;
    ASSERT_EQ(fromBatches[i].category, fromPlaces[i].category)
        << "item " << i;
  }
  DrainOkFrame drainedBatches = pipelined.drain();
  DrainOkFrame drainedPlaces = individual.drain();
  EXPECT_EQ(drainedBatches.totalUsage, drainedPlaces.totalUsage);
  EXPECT_EQ(drainedBatches.binsOpened, drainedPlaces.binsOpened);
  EXPECT_GE(h.server.stats().batches, 1u);
}

TEST(ServeServer, PipelinedFailureSurfacesAfterCompletedPrefix) {
  Harness h;
  Client client(h.clientFd);
  client.hello(makeHello("pipeline-fail", "ff"));

  client.queuePlace(0.5, 0.0, 4.0);
  client.queuePlace(-1.0, 1.0, 3.0);  // will be rejected mid-batch
  client.queuePlace(0.25, 2.0, 5.0);  // never runs server-side
  client.flushQueued();

  PlacedFrame first = client.readPlaced();
  EXPECT_EQ(first.item, 0u);
  EXPECT_THROW(
      {
        try {
          client.readPlaced();
        } catch (const ServeError& e) {
          EXPECT_EQ(e.code(), ErrorCode::kBadItem);
          throw;
        }
      },
      ServeError);
  EXPECT_EQ(client.queued(), 0u);  // unexecuted ops owe no replies
  DrainOkFrame drained = client.drain();
  EXPECT_EQ(drained.items, 1u);
}

TEST(ServeServer, OversizedFramePrefixShedsTheConnection) {
  Harness h;
  Client client(h.clientFd);
  // Length prefix far above the cap: the server cannot resync past an
  // untrusted length, so it answers kOversizedFrame and closes.
  std::vector<std::uint8_t> bytes = {0xFF, 0xFF, 0xFF, 0x7F, 0x02};
  client.sendRaw(bytes);
  OwnedFrame reply = client.readFrame();
  ErrorFrame error;
  ASSERT_TRUE(decodeError(reply.view(), error));
  EXPECT_EQ(error.code, ErrorCode::kOversizedFrame);
  EXPECT_THROW(client.readFrame(), std::runtime_error);  // EOF follows
  waitFor([&] { return h.server.stats().openConnections == 0; });
}

TEST(ServeServer, BackpressureBoundsServerMemory) {
  ServerOptions options = singleLoop();
  options.writeBufferLimit = 4096;
  Harness h(options);
  Client client(h.clientFd);
  client.hello(makeHello("flood", "ff"));

  // Stop reading replies and flood PLACE frames until the transport
  // clogs. The server must throttle: replies buffer up to the limit, then
  // frame processing stops, then reading stops — memory stays bounded no
  // matter how much the client sends.
  ASSERT_EQ(fcntl(h.clientFd, F_SETFL,
                  fcntl(h.clientFd, F_GETFL, 0) | O_NONBLOCK),
            0);
  std::vector<std::uint8_t> frame;
  appendPlace(frame, PlaceFrame{0.001, 100.0, 200.0});
  std::size_t queuedFrames = 0;
  std::size_t partial = 0;  // bytes of a frame already on the wire
  while (queuedFrames < 200000) {
    ssize_t n = send(h.clientFd, frame.data() + partial,
                     frame.size() - partial, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
      break;  // both kernel buffers and the server's bound are full
    }
    partial += static_cast<std::size_t>(n);
    if (partial == frame.size()) {
      partial = 0;
      ++queuedFrames;
    }
  }
  ASSERT_GT(queuedFrames, 0u);

  // The flood throttled the connection at least once, and the write
  // buffer never grew past the limit plus one reply frame.
  waitFor([&] { return h.server.stats().throttleEvents >= 1; });
  const std::size_t replyBound = 64;  // PLACED/error replies are tiny
  EXPECT_LE(h.server.stats().peakWriteBuffered,
            options.writeBufferLimit + replyBound);
  EXPECT_EQ(h.server.stats().shedConnections, 0u);

  // Resume reading: every queued request gets its reply and the session
  // finishes normally.
  int flags = fcntl(h.clientFd, F_GETFL, 0);
  ASSERT_EQ(fcntl(h.clientFd, F_SETFL, flags & ~O_NONBLOCK), 0);
  for (std::size_t i = 0; i < queuedFrames; ++i) {
    OwnedFrame reply = client.expectFrame(FrameType::kPlaced);
    PlacedFrame placed;
    ASSERT_TRUE(decodePlaced(reply.view(), placed));
  }
  if (partial > 0) {
    // A frame was cut mid-write when the transport clogged. The server
    // has drained by now, so finish it (blocking) to restore framing.
    std::vector<std::uint8_t> rest(frame.begin() +
                                       static_cast<std::ptrdiff_t>(partial),
                                   frame.end());
    client.sendRaw(rest);
    ++queuedFrames;
    OwnedFrame reply = client.expectFrame(FrameType::kPlaced);
    PlacedFrame placed;
    ASSERT_TRUE(decodePlaced(reply.view(), placed));
  }
  DrainOkFrame drained = client.drain();
  EXPECT_EQ(drained.items, queuedFrames);
  EXPECT_LE(h.server.stats().peakWriteBuffered,
            options.writeBufferLimit + replyBound);
}

TEST(ServeServer, GracefulDrainAnswersInFlightRequestsAndExits) {
  Harness h;
  Client client(h.clientFd);
  client.hello(makeHello("draining", "bf"));

  // Pipeline a burst, then request the drain before reading anything:
  // every fully-received request must still be answered.
  constexpr std::size_t kBurst = 500;
  for (std::size_t i = 0; i < kBurst; ++i) {
    double arrival = 0.01 * static_cast<double>(i);
    client.queuePlace(0.2, arrival, arrival + 5.0);
  }
  client.flushQueued();
  // Make sure the burst reached the loop before the drain flag does.
  waitFor([&] { return h.server.stats().placements >= 1; });
  h.server.requestDrain();

  for (std::size_t i = 0; i < kBurst; ++i) {
    PlacedFrame placed = client.readPlaced();
    EXPECT_EQ(placed.item, i);
  }
  // After the replies flush the server closes and the loop exits.
  EXPECT_THROW(client.readFrame(), std::runtime_error);
  h.server.join();
  ServerStats stats = h.server.stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.placements, kBurst);
  EXPECT_FALSE(h.server.running());
}

TEST(ServeServer, ScrapeReturnsLiveTelemetryDuringLoad) {
  Harness h;
  Client client(h.clientFd);
  HelloOkFrame ok = client.hello(makeHello("scraped", "cd-ff"));
  for (int i = 0; i < 50; ++i) {
    client.place(0.3, static_cast<double>(i), static_cast<double>(i) + 3.0);
  }
  std::string text = client.scrape();
  if (telemetry::kEnabled) {
    // Live counters from this very session are visible in the scrape.
    EXPECT_NE(text.find("cdbp_serve_placements"), std::string::npos);
    EXPECT_NE(text.find("cdbp_serve_frames_rx"), std::string::npos);
    // Per-tenant counters (v2): serve.tenant.<id>.placements et al.
    std::string prefix =
        "cdbp_serve_tenant_" + std::to_string(ok.tenantId) + "_";
    EXPECT_NE(text.find(prefix + "placements"), std::string::npos);
    EXPECT_NE(text.find(prefix + "bytes"), std::string::npos);
  } else {
    // Telemetry compiled out: the scrape endpoint still answers.
    EXPECT_TRUE(text.empty());
  }
  client.drain();
}

TEST(ServeServer, TenantsAreIsolated) {
  Harness h;
  Client a(h.clientFd);
  Client b(h.adoptAnother());

  a.hello(makeHello("tenant-a", "ff"));
  b.hello(makeHello("tenant-b", "ff"));

  // Interleaved sessions with identical items: isolation means each
  // tenant's bins fill independently (same decisions in both sessions),
  // not shared.
  for (int i = 0; i < 20; ++i) {
    double arrival = static_cast<double>(i);
    PlacedFrame fromA = a.place(0.4, arrival, arrival + 50.0);
    PlacedFrame fromB = b.place(0.4, arrival, arrival + 50.0);
    ASSERT_EQ(fromA.bin, fromB.bin) << "sessions diverged at item " << i;
  }
  DrainOkFrame drainedA = a.drain();
  DrainOkFrame drainedB = b.drain();
  EXPECT_EQ(drainedA.binsOpened, drainedB.binsOpened);
  EXPECT_EQ(drainedA.totalUsage, drainedB.totalUsage);

  std::vector<TenantSnapshot> tenants = h.server.tenants();
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0].name, "tenant-a");
  EXPECT_EQ(tenants[1].name, "tenant-b");
  EXPECT_EQ(tenants[0].items, 20u);
  EXPECT_EQ(tenants[1].items, 20u);
}

TEST(ServeServer, HalfCloseFlushesPendingRepliesBeforeClosing) {
  Harness h;
  Client client(h.clientFd);
  client.hello(makeHello("half-close", "ff"));
  for (int i = 0; i < 10; ++i) {
    client.queuePlace(0.1, static_cast<double>(i), static_cast<double>(i) + 2.0);
  }
  client.flushQueued();
  // Shut down the write side only: the server must answer what it already
  // received, then close.
  ASSERT_EQ(shutdown(client.fd(), SHUT_WR), 0);
  for (std::size_t i = 0; i < 10; ++i) {
    PlacedFrame placed = client.readPlaced();
    EXPECT_EQ(placed.item, i);
  }
  EXPECT_THROW(client.readFrame(), std::runtime_error);
  waitFor([&] { return h.server.stats().openConnections == 0; });
}

TEST(ServeServer, UnixListenerAcceptsAndServes) {
  std::string path = testing::TempDir() + "cdbp_serve_" +
                     std::to_string(::getpid()) + ".sock";
  Server server(
      ServerOptionsBuilder().listenOn("unix:" + path).loopThreads(1).build());
  server.start();

  Client client = Client::connectUnix(path);
  HelloOkFrame ok = client.hello(makeHello("via-unix", "min-ext"));
  EXPECT_GT(ok.tenantId, 0u);
  PlacedFrame placed = client.place(0.5, 0.0, 4.0);
  EXPECT_EQ(placed.bin, 0);
  DrainOkFrame drained = client.drain();
  EXPECT_EQ(drained.items, 1u);
  server.stop();
  server.join();
  ::unlink(path.c_str());
}

TEST(ServeServer, TcpListenerBindsEphemeralPortAndServes) {
  Server server(ServerOptionsBuilder()
                    .listenOn("tcp:127.0.0.1:0")
                    .loopThreads(2)
                    .build());
  server.start();
  ASSERT_GT(server.tcpPort(), 0);

  Client client = Client::connectTcp("127.0.0.1", server.tcpPort());
  client.hello(makeHello("via-tcp", "ff"));
  PlacedFrame placed = client.place(0.25, 0.0, 2.0);
  EXPECT_EQ(placed.bin, 0);
  EXPECT_EQ(server.stats().connectionsAccepted, 1u);
  client.drain();
  server.stop();
  server.join();
}

// --- multi-shard coverage (the tsan preset's priority filter pulls
// these in via the 'Serve' name fragment) ----------------------------------

TEST(ServeServer, ShardHandoffDistributesConnectionsRoundRobin) {
  Server server(ServerOptionsBuilder().loopThreads(4).build());
  server.start();

  std::vector<Client> clients;
  for (int i = 0; i < 8; ++i) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server.adoptConnection(fds[1]);
    clients.emplace_back(fds[0]);
  }
  // Drive every session concurrently: the handoff queue and the eventfd
  // wake path see real cross-thread traffic.
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      Client& client = clients[i];
      client.hello(makeHello("shard-" + std::to_string(i), "ff"));
      for (int j = 0; j < 50; ++j) {
        client.place(0.2, static_cast<double>(j),
                     static_cast<double>(j) + 4.0);
      }
      client.drain();
    });
  }
  for (std::thread& t : threads) t.join();

  // 8 connections over 4 shards round-robin: exactly 2 each.
  std::vector<std::uint64_t> perShard = server.shardConnectionCounts();
  ASSERT_EQ(perShard.size(), 4u);
  for (std::size_t s = 0; s < perShard.size(); ++s) {
    EXPECT_EQ(perShard[s], 2u) << "shard " << s;
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.placements, 8u * 50u);
  EXPECT_EQ(stats.sessionsFinished, 8u);
  server.stop();
  server.join();
}

TEST(ServeServer, MultiShardHalfCloseFlushesEveryConnection) {
  Server server(ServerOptionsBuilder().loopThreads(4).build());
  server.start();

  std::vector<Client> clients;
  for (int i = 0; i < 8; ++i) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server.adoptConnection(fds[1]);
    clients.emplace_back(fds[0]);
  }
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i].hello(makeHello("hc-" + std::to_string(i), "ff"));
    for (int j = 0; j < 10; ++j) {
      clients[i].queuePlace(0.1, static_cast<double>(j),
                            static_cast<double>(j) + 2.0);
    }
    clients[i].flushQueued();
    ASSERT_EQ(shutdown(clients[i].fd(), SHUT_WR), 0);
  }
  for (Client& client : clients) {
    for (std::size_t j = 0; j < 10; ++j) {
      PlacedFrame placed = client.readPlaced();
      EXPECT_EQ(placed.item, j);
    }
    EXPECT_THROW(client.readFrame(), std::runtime_error);
  }
  waitFor([&] { return server.stats().openConnections == 0; });
  EXPECT_EQ(server.stats().placements, 8u * 10u);
  server.stop();
  server.join();
}

TEST(ServeServer, ConcurrentScrapeWhilePlacing) {
  Server server(ServerOptionsBuilder().loopThreads(4).build());
  server.start();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scrapesDone{0};
  std::vector<std::thread> threads;
  // Two placer sessions and two scraper sessions, all concurrent, each
  // pinned to a different shard by the round-robin router.
  for (int i = 0; i < 2; ++i) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server.adoptConnection(fds[1]);
    threads.emplace_back([fd = fds[0], i, &stop] {
      Client client(fd);
      client.hello(makeHello("placer-" + std::to_string(i), "cdt-ff"));
      double arrival = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        client.place(0.3, arrival, arrival + 5.0);
        arrival += 0.25;
      }
      client.drain();
    });
  }
  for (int i = 0; i < 2; ++i) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server.adoptConnection(fds[1]);
    threads.emplace_back([fd = fds[0], &stop, &scrapesDone] {
      Client client(fd);
      int scrapes = 0;
      while (!stop.load(std::memory_order_relaxed) && scrapes < 200) {
        std::string text = client.scrape();
        if (telemetry::kEnabled) {
          EXPECT_FALSE(text.empty());
        }
        ++scrapes;
        scrapesDone.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  EXPECT_GT(scrapesDone.load(), 0u);
  EXPECT_GT(server.stats().placements, 0u);
  server.stop();
  server.join();
}

TEST(ServeServer, DrainUnderLoadAcrossShards) {
  Server server(ServerOptionsBuilder().loopThreads(4).build());
  server.start();

  std::atomic<std::uint64_t> clientReads{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server.adoptConnection(fds[1]);
    threads.emplace_back([fd = fds[0], i, &clientReads] {
      try {
        Client client(fd);
        client.hello(makeHello("load-" + std::to_string(i), "ff"));
        double arrival = 0;
        while (true) {
          for (int j = 0; j < 64; ++j) {
            client.queuePlace(0.2, arrival, arrival + 5.0);
            arrival += 0.01;
          }
          client.flushQueued();
          while (client.queued() > 0) {
            client.readPlaced();
            clientReads.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } catch (const std::exception&) {
        // The drain closed the connection mid-burst: expected.
      }
    });
  }
  waitFor([&] { return server.stats().placements >= 512; });
  server.requestDrain();
  for (std::thread& t : threads) t.join();
  server.join();

  ServerStats stats = server.stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_TRUE(stats.drained);
  EXPECT_FALSE(server.running());
  // Every reply the clients managed to read was for an executed
  // placement; the server may have executed more (replies cut by the
  // close or never read after a send failure).
  EXPECT_LE(clientReads.load(), stats.placements);
  EXPECT_GE(stats.placements, 512u);
}

}  // namespace
}  // namespace cdbp::serve
