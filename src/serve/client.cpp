#include "serve/client.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>
#include <utility>

namespace cdbp::serve {

namespace {

[[noreturn]] void throwErrno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

Client::Client(int fd, ClientOptions options) : fd_(fd), options_(options) {}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      options_(other.options_),
      negotiatedVersion_(other.negotiatedVersion_),
      rbuf_(std::move(other.rbuf_)),
      rpos_(other.rpos_),
      pendingOps_(std::move(other.pendingOps_)),
      inflightBatchOps_(std::move(other.inflightBatchOps_)),
      placedBacklog_(std::move(other.placedBacklog_)),
      pendingFailure_(std::move(other.pendingFailure_)),
      owedReplies_(other.owedReplies_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    options_ = other.options_;
    negotiatedVersion_ = other.negotiatedVersion_;
    rbuf_ = std::move(other.rbuf_);
    rpos_ = other.rpos_;
    pendingOps_ = std::move(other.pendingOps_);
    inflightBatchOps_ = std::move(other.inflightBatchOps_);
    placedBacklog_ = std::move(other.placedBacklog_);
    pendingFailure_ = std::move(other.pendingFailure_);
    owedReplies_ = other.owedReplies_;
  }
  return *this;
}

Client Client::connect(const Address& address, ClientOptions options) {
  return Client(connectStream(address), options);
}

Client Client::connectUnix(const std::string& path, ClientOptions options) {
  Address address;
  address.kind = Address::Kind::kUnix;
  address.path = path;
  return connect(address, options);
}

Client Client::connectTcp(const std::string& host, std::uint16_t port,
                          ClientOptions options) {
  Address address;
  address.kind = Address::Kind::kTcp;
  address.host = host;
  address.port = port;
  return connect(address, options);
}

void Client::sendAll(const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    ssize_t n = send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throwErrno("send");
  }
}

void Client::sendRaw(const std::vector<std::uint8_t>& bytes) {
  sendAll(bytes.data(), bytes.size());
}

OwnedFrame Client::readFrame() {
  while (true) {
    FrameView frame;
    std::size_t consumed = 0;
    ExtractStatus status =
        extractFrame(rbuf_.data() + rpos_, rbuf_.size() - rpos_,
                     options_.maxFramePayload, frame, consumed);
    if (status == ExtractStatus::kFrame) {
      OwnedFrame owned;
      owned.type = frame.type;
      owned.payload.assign(frame.payload, frame.payload + frame.payloadSize);
      rpos_ += consumed;
      if (rpos_ == rbuf_.size()) {
        rbuf_.clear();
        rpos_ = 0;
      }
      return owned;
    }
    if (status == ExtractStatus::kOversized) {
      throw std::runtime_error("reply frame exceeds the client payload cap");
    }
    std::uint8_t chunk[64 * 1024];
    ssize_t got = recv(fd_, chunk, sizeof(chunk), 0);
    if (got > 0) {
      rbuf_.insert(rbuf_.end(), chunk, chunk + got);
      continue;
    }
    if (got == 0) {
      throw std::runtime_error("server closed the connection mid-reply");
    }
    if (errno == EINTR) continue;
    throwErrno("recv");
  }
}

OwnedFrame Client::expectFrame(FrameType expected) {
  OwnedFrame frame = readFrame();
  if (frame.type == FrameType::kError) {
    ErrorFrame error;
    if (!decodeError(frame.view(), error)) {
      throw std::runtime_error("undecodable error reply");
    }
    throw ServeError(error.code, error.message);
  }
  if (frame.type != expected) {
    throw std::runtime_error(
        "unexpected reply type " +
        std::to_string(static_cast<unsigned>(frame.type)));
  }
  return frame;
}

HelloOkFrame Client::hello(const HelloFrame& helloIn) {
  std::vector<std::uint8_t> bytes;
  appendHello(bytes, helloIn);
  sendAll(bytes.data(), bytes.size());
  HelloOkFrame ok;
  if (!decodeHelloOk(expectFrame(FrameType::kHelloOk).view(), ok)) {
    throw std::runtime_error("undecodable HELLO_OK reply");
  }
  negotiatedVersion_ = ok.version;
  return ok;
}

PlacedFrame Client::place(double size, double arrival, double departure) {
  std::vector<std::uint8_t> bytes;
  appendPlace(bytes, PlaceFrame{size, arrival, departure});
  sendAll(bytes.data(), bytes.size());
  PlacedFrame placed;
  if (!decodePlaced(expectFrame(FrameType::kPlaced).view(), placed)) {
    throw std::runtime_error("undecodable PLACED reply");
  }
  return placed;
}

DepartOkFrame Client::departUntil(double time) {
  std::vector<std::uint8_t> bytes;
  appendDepart(bytes, DepartFrame{time});
  sendAll(bytes.data(), bytes.size());
  DepartOkFrame ok;
  if (!decodeDepartOk(expectFrame(FrameType::kDepartOk).view(), ok)) {
    throw std::runtime_error("undecodable DEPART_OK reply");
  }
  return ok;
}

StatsOkFrame Client::stats() {
  std::vector<std::uint8_t> bytes;
  appendStats(bytes);
  sendAll(bytes.data(), bytes.size());
  StatsOkFrame ok;
  if (!decodeStatsOk(expectFrame(FrameType::kStatsOk).view(), ok)) {
    throw std::runtime_error("undecodable STATS_OK reply");
  }
  return ok;
}

DrainOkFrame Client::drain() {
  std::vector<std::uint8_t> bytes;
  appendDrain(bytes);
  sendAll(bytes.data(), bytes.size());
  DrainOkFrame ok;
  if (!decodeDrainOk(expectFrame(FrameType::kDrainOk).view(), ok)) {
    throw std::runtime_error("undecodable DRAIN_OK reply");
  }
  return ok;
}

std::string Client::scrape() {
  std::vector<std::uint8_t> bytes;
  appendScrape(bytes);
  sendAll(bytes.data(), bytes.size());
  ScrapeOkFrame ok;
  if (!decodeScrapeOk(expectFrame(FrameType::kScrapeOk).view(), ok)) {
    throw std::runtime_error("undecodable SCRAPE_OK reply");
  }
  return ok.text;
}

// --- batch builder ---------------------------------------------------------

Client::Batch& Client::Batch::place(double size, double arrival,
                                    double departure) {
  BatchOp op;
  op.kind = kBatchOpPlace;
  op.place = PlaceFrame{size, arrival, departure};
  frame_.ops.push_back(op);
  return *this;
}

Client::Batch& Client::Batch::depart(double time) {
  BatchOp op;
  op.kind = kBatchOpDepart;
  op.depart = DepartFrame{time};
  frame_.ops.push_back(op);
  return *this;
}

BatchOkFrame Client::Batch::send() { return client_->sendBatch(frame_); }

BatchOkFrame Client::sendBatch(const BatchFrame& frame) {
  if (negotiatedVersion_ == 0) {
    throw std::logic_error("BATCH requires a session; call hello() first");
  }
  if (frame.ops.size() > kMaxBatchOps) {
    throw std::logic_error("BATCH of " + std::to_string(frame.ops.size()) +
                           " ops exceeds kMaxBatchOps");
  }
  std::vector<std::uint8_t> bytes;
  appendBatch(bytes, frame);
  sendAll(bytes.data(), bytes.size());
  BatchOkFrame ok;
  if (!decodeBatchOk(expectFrame(FrameType::kBatchOk).view(), ok)) {
    throw std::runtime_error("undecodable BATCH_OK reply");
  }
  return ok;
}

// --- pipelined wrapper -----------------------------------------------------

void Client::queuePlace(double size, double arrival, double departure) {
  BatchOp op;
  op.kind = kBatchOpPlace;
  op.place = PlaceFrame{size, arrival, departure};
  pendingOps_.push_back(op);
  ++owedReplies_;
}

void Client::flushQueued() {
  if (pendingOps_.empty()) return;
  // Pack the staged ops into BATCH frames, kMaxBatchOps at a time, and
  // remember each frame's op count for reply accounting.
  std::vector<std::uint8_t> bytes;
  for (std::size_t at = 0; at < pendingOps_.size();) {
    std::size_t take = pendingOps_.size() - at;
    if (take > kMaxBatchOps) take = kMaxBatchOps;
    BatchFrame frame;
    frame.ops.assign(pendingOps_.begin() + static_cast<std::ptrdiff_t>(at),
                     pendingOps_.begin() +
                         static_cast<std::ptrdiff_t>(at + take));
    appendBatch(bytes, frame);
    inflightBatchOps_.push_back(take);
    at += take;
  }
  pendingOps_.clear();
  sendAll(bytes.data(), bytes.size());
}

PlacedFrame Client::readPlaced() {
  while (placedBacklog_.empty()) {
    if (pendingFailure_.has_value()) {
      ErrorFrame failure = std::move(*pendingFailure_);
      pendingFailure_.reset();
      throw ServeError(failure.code, failure.message);
    }
    if (owedReplies_ == 0) {
      throw std::logic_error("readPlaced() with no queued PLACE outstanding");
    }
    if (inflightBatchOps_.empty()) {
      throw std::logic_error("readPlaced() before flushQueued()");
    }
    std::size_t ops = inflightBatchOps_.front();
    inflightBatchOps_.pop_front();
    BatchOkFrame ok;
    if (!decodeBatchOk(expectFrame(FrameType::kBatchOk).view(), ok)) {
      throw std::runtime_error("undecodable BATCH_OK reply");
    }
    for (const BatchResultEntry& entry : ok.results) {
      if (entry.kind == kBatchOpPlace) placedBacklog_.push_back(entry.placed);
    }
    if (ok.failed != 0) {
      // Ops past the failure never ran; stop owing replies for them. The
      // failure itself surfaces once the completed prefix is consumed.
      owedReplies_ -= ops - ok.results.size();
      ErrorFrame failure;
      failure.code = ok.errorCode;
      failure.message = ok.errorMessage;
      pendingFailure_ = std::move(failure);
    }
  }
  PlacedFrame placed = placedBacklog_.front();
  placedBacklog_.pop_front();
  --owedReplies_;
  return placed;
}

}  // namespace cdbp::serve
