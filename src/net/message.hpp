// Wire format of the message-passing layer: framed, tagged messages.
//
// Every frame is a fixed 32-byte header followed by `bytes` of payload.
// The header carries the message tag, the sender's rank and a 32-bit id
// whose meaning depends on the tag:
//
//   Data    id = producer task index in the (deterministically rebuilt)
//           TaskGraph. Since the graph assigns each tile version a unique
//           writer, the producer id *is* the (tile, version) key: the
//           receiver derives which tile regions the payload holds from the
//           producer's KernelOp, and which local tasks it releases from the
//           graph's successor lists. Under tree broadcasts a frame's src is
//           the rank that *forwarded* it (its tree parent), not necessarily
//           the producer's rank — the id alone identifies the payload.
//   Gather  id = sender rank; payload holds the sender's final-version tile
//           regions and T factors (the end-of-run collect onto rank 0).
//   Stats   id = sender rank; payload is a DistRankStats block.
//   Bye     id = sender rank; empty payload (rank 0's shutdown release).
//   Abort   id = sender rank; empty payload (peer hit an error; tear down).
//   SyncPing/SyncPong
//           id = round number; the clock-alignment handshake at mesh setup
//           (net/clock_sync.hpp). Ping carries the sender's local send
//           time; Pong echoes it plus the responder's receive/send times.
//   Telemetry
//           id = sender rank; payload is a DistTelemetry heartbeat shipped
//           periodically to rank 0 while the DAG executes.
//   SubmitQR .. ErrorReply
//           the QR-as-a-service request/response protocol; id = the
//           client-chosen request or stream id. Payload layouts live in
//           serve/protocol.hpp — the frame format and versioning below are
//           shared with the rank mesh unchanged.
//
// The header is serialized explicitly little-endian and carries its own
// version and size, so a peer built against a different wire revision — or
// one whose native byte order differs — is rejected loudly at the first
// frame instead of corrupting state silently. Payload scalars (tile
// doubles, POD stats blocks) still travel in native order; the transport
// handshake (net/transport.hpp) verifies both sides agree on that order
// before any frame flows.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/check.hpp"

namespace hqr::net {

enum class Tag : std::uint32_t {
  Data = 1,
  Gather = 2,
  Stats = 3,
  Bye = 4,
  Abort = 5,
  SyncPing = 6,
  SyncPong = 7,
  Telemetry = 8,
  // --- QR-as-a-service request/response tags (serve/protocol.hpp) ---
  SubmitQR = 9,      // id = request id; one factorization request
  SubmitBatch = 10,  // id = request id; many small QRs, one worker each
  StreamOpen = 11,   // id = stream id; open a streaming TSQR session
  StreamAppend = 12, // id = stream id; a block of rows for the session
  StreamQuery = 13,  // id = stream id; ask for the current R (empty payload)
  StreamClose = 14,  // id = stream id; final R then session teardown
  Cancel = 15,       // id = request id to abandon
  Shutdown = 16,     // id unused; graceful server stop (drain, then exit)
  Status = 17,       // id unused; ask for server-wide counters
  Result = 18,       // id = request id; R (and optionally Q) of one request
  BatchResult = 19,  // id = request id; the R of every problem in a batch
  StreamR = 20,      // id = stream id; R snapshot of a streaming session
  StatusReply = 21,  // id unused; ServerStatus counter block
  ErrorReply = 22,   // id = offending request id; typed error + message
};

// Number of tag slots (tag values index per-tag counters directly; slot 0
// is unused).
inline constexpr int kTagCount = 23;

inline int tag_index(Tag t) { return static_cast<int>(t); }

// True when the raw header tag names a Tag this build understands; frames
// with anything else are rejected before the value is cast to Tag.
inline bool valid_tag(std::uint32_t raw) { return raw >= 1 && raw < kTagCount; }

inline const char* tag_name(Tag t) {
  switch (t) {
    case Tag::Data: return "Data";
    case Tag::Gather: return "Gather";
    case Tag::Stats: return "Stats";
    case Tag::Bye: return "Bye";
    case Tag::Abort: return "Abort";
    case Tag::SyncPing: return "SyncPing";
    case Tag::SyncPong: return "SyncPong";
    case Tag::Telemetry: return "Telemetry";
    case Tag::SubmitQR: return "SubmitQR";
    case Tag::SubmitBatch: return "SubmitBatch";
    case Tag::StreamOpen: return "StreamOpen";
    case Tag::StreamAppend: return "StreamAppend";
    case Tag::StreamQuery: return "StreamQuery";
    case Tag::StreamClose: return "StreamClose";
    case Tag::Cancel: return "Cancel";
    case Tag::Shutdown: return "Shutdown";
    case Tag::Status: return "Status";
    case Tag::Result: return "Result";
    case Tag::BatchResult: return "BatchResult";
    case Tag::StreamR: return "StreamR";
    case Tag::StatusReply: return "StatusReply";
    case Tag::ErrorReply: return "ErrorReply";
  }
  return "Unknown";
}

inline constexpr std::uint32_t kMagic = 0x4851524d;  // "HQRM"
// What kMagic looks like when a peer serialized it with the opposite byte
// order (an old memcpy-framed build): detected and reported as an
// endianness mismatch rather than a generic bad frame.
inline constexpr std::uint32_t kMagicSwapped = 0x4d525148;

// Bumped whenever the header layout or the meaning of a field changes.
inline constexpr std::uint16_t kWireVersion = 2;
// Serialized header size; rides in the header itself so a peer with a
// larger (newer) layout is rejected instead of desynchronizing the stream.
inline constexpr std::size_t kFrameHeaderBytes = 32;

struct FrameHeader {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kWireVersion;
  std::uint16_t header_bytes = static_cast<std::uint16_t>(kFrameHeaderBytes);
  std::uint32_t tag = 0;
  std::int32_t src = -1;
  std::int32_t id = -1;
  std::uint32_t reserved = 0;  // keeps `bytes` 8-aligned; always zero
  std::uint64_t bytes = 0;     // payload length
};

namespace wire {

inline void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
inline void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}
inline void put_u64(std::uint8_t* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}
inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
inline std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

}  // namespace wire

// Explicit little-endian serialization: identical bytes on every host, so
// the header itself can never be the thing that differs between peers.
inline void encode_header(const FrameHeader& h,
                          std::uint8_t out[kFrameHeaderBytes]) {
  wire::put_u32(out + 0, h.magic);
  wire::put_u16(out + 4, h.version);
  wire::put_u16(out + 6, h.header_bytes);
  wire::put_u32(out + 8, h.tag);
  wire::put_u32(out + 12, static_cast<std::uint32_t>(h.src));
  wire::put_u32(out + 16, static_cast<std::uint32_t>(h.id));
  wire::put_u32(out + 20, h.reserved);
  wire::put_u64(out + 24, h.bytes);
}

inline FrameHeader decode_header(const std::uint8_t in[kFrameHeaderBytes]) {
  FrameHeader h;
  h.magic = wire::get_u32(in + 0);
  h.version = wire::get_u16(in + 4);
  h.header_bytes = wire::get_u16(in + 6);
  h.tag = wire::get_u32(in + 8);
  h.src = static_cast<std::int32_t>(wire::get_u32(in + 12));
  h.id = static_cast<std::int32_t>(wire::get_u32(in + 16));
  h.reserved = wire::get_u32(in + 20);
  h.bytes = wire::get_u64(in + 24);
  return h;
}

// A frame's payload as the socket writes it: packed once, at its exact
// size, and shared by every frame that ships it (each broadcast child, each
// relay, each SentTileLog replay) instead of copied into each. The frame
// header is written separately from it and names no destination, so one
// buffer serves every copy. Null means an empty payload.
using Payload = std::shared_ptr<const std::vector<std::uint8_t>>;

// A fully received message, as handed to the progress-loop handler.
struct Message {
  Tag tag = Tag::Data;
  int src = -1;
  std::int32_t id = -1;
  std::vector<std::uint8_t> payload;
};

// Append-only little helper for building payloads of doubles/integers.
class PayloadWriter {
 public:
  explicit PayloadWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void raw(const void* p, std::size_t n) {
    if (n == 0) return;  // p may be null for an empty matrix payload
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  void f64(const double* p, std::size_t count) {
    raw(p, count * sizeof(double));
  }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }

 private:
  std::vector<std::uint8_t>& out_;
};

// Sequential reader over a received payload. Every read is bounds-checked
// against the buffer — a truncated or malformed frame throws hqr::Error
// instead of reading past the payload; callers verify totals with
// remaining().
class PayloadReader {
 public:
  explicit PayloadReader(const std::vector<std::uint8_t>& in) : in_(in) {}

  void raw(void* p, std::size_t n) {
    HQR_CHECK(n <= in_.size() - pos_,
              "malformed payload: read of " << n << " bytes at offset " << pos_
                                            << " overruns " << in_.size()
                                            << "-byte buffer");
    if (n != 0) std::memcpy(p, in_.data() + pos_, n);  // p may be null if n==0
    pos_ += n;
  }
  void f64(double* p, std::size_t count) { raw(p, count * sizeof(double)); }
  void skip(std::size_t n) {
    HQR_CHECK(n <= in_.size() - pos_,
              "malformed payload: skip of " << n << " bytes at offset " << pos_
                                            << " overruns " << in_.size()
                                            << "-byte buffer");
    pos_ += n;
  }
  std::int64_t i64() {
    std::int64_t v;
    raw(&v, sizeof(v));
    return v;
  }
  std::size_t remaining() const { return in_.size() - pos_; }

 private:
  const std::vector<std::uint8_t>& in_;
  std::size_t pos_ = 0;
};

}  // namespace hqr::net
