#include "exec/transport.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/rng.hpp"

namespace parcl::exec::transport {

const char* to_string(FrameType type) noexcept {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kHelloAck: return "HELLO_ACK";
    case FrameType::kSubmit: return "SUBMIT";
    case FrameType::kStdout: return "STDOUT";
    case FrameType::kStderr: return "STDERR";
    case FrameType::kResult: return "RESULT";
    case FrameType::kAck: return "ACK";
    case FrameType::kHeartbeat: return "HEARTBEAT";
    case FrameType::kKill: return "KILL";
    case FrameType::kDrain: return "DRAIN";
    case FrameType::kBye: return "BYE";
    case FrameType::kClientHello: return "CLIENT_HELLO";
    case FrameType::kReject: return "REJECT";
  }
  return "?";
}

const char* to_string(RejectCode code) noexcept {
  switch (code) {
    case RejectCode::kQueueFull: return "QUEUE_FULL";
    case RejectCode::kServerFull: return "SERVER_FULL";
    case RejectCode::kPressure: return "PRESSURE";
    case RejectCode::kDraining: return "DRAINING";
    case RejectCode::kBadRequest: return "BAD_REQUEST";
    case RejectCode::kEvicted: return "EVICTED";
  }
  return "?";
}

namespace {

bool known_type(std::uint8_t byte) noexcept {
  return byte >= static_cast<std::uint8_t>(FrameType::kHello) &&
         byte <= static_cast<std::uint8_t>(FrameType::kReject);
}

/// Appends the low `bytes` bytes of `v`, little-endian.
void append_le(std::string& out, std::uint64_t v, std::size_t bytes) {
  char le[8];
  for (std::size_t i = 0; i < bytes; ++i) le[i] = static_cast<char>(v >> (8 * i));
  out.append(le, bytes);
}

/// Appends a frame's header: u32 payload length + u8 type.
void append_header(std::string& out, FrameType type, std::size_t payload_size) {
  util::require(payload_size <= kMaxFramePayload, "frame payload over limit");
  append_le(out, payload_size, 4);
  out += static_cast<char>(type);
}

/// Wraps a payload into a full frame: header + payload.
std::string frame_bytes(FrameType type, const std::string& payload) {
  std::string out;
  out.reserve(5 + payload.size());
  append_header(out, type, payload.size());
  out += payload;
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// WireWriter / WireReader
// ---------------------------------------------------------------------------

void WireWriter::u8(std::uint8_t v) { out_ += static_cast<char>(v); }

void WireWriter::u32(std::uint32_t v) { append_le(out_, v, 4); }

void WireWriter::u64(std::uint64_t v) { append_le(out_, v, 8); }

void WireWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::str(const std::string& v) {
  util::require(v.size() <= kMaxFramePayload, "string field over frame limit");
  u32(static_cast<std::uint32_t>(v.size()));
  out_ += v;
}

void WireReader::need(std::size_t n) const {
  if (size_ - pos_ < n) {
    throw ProtocolError("payload truncated: need " + std::to_string(n) +
                        " bytes, have " + std::to_string(size_ - pos_));
  }
}

std::uint8_t WireReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t WireReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data_[pos_++])) << shift;
  }
  return v;
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_++])) << shift;
  }
  return v;
}

double WireReader::f64() {
  std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::str() {
  std::uint32_t len = u32();
  // A length that exceeds what is physically left is corrupt; checking
  // before allocating keeps a hostile prefix from requesting gigabytes.
  need(len);
  std::string v(data_ + pos_, len);
  pos_ += len;
  return v;
}

void WireReader::expect_end() const {
  if (pos_ != size_) {
    throw ProtocolError("trailing garbage: " + std::to_string(size_ - pos_) +
                        " unparsed payload bytes");
  }
}

// ---------------------------------------------------------------------------
// Typed payload encode/decode
// ---------------------------------------------------------------------------

namespace {

void put_result(WireWriter& w, const ResultFrame& r) {
  w.u64(r.seq);
  w.u32(static_cast<std::uint32_t>(r.exit_code));
  w.u32(static_cast<std::uint32_t>(r.term_signal));
  w.f64(r.start_time);
  w.f64(r.end_time);
  w.u64(r.stdout_chunks);
  w.u64(r.stderr_chunks);
}

ResultFrame get_result(WireReader& r) {
  ResultFrame out;
  out.seq = r.u64();
  out.exit_code = static_cast<std::int32_t>(r.u32());
  out.term_signal = static_cast<std::int32_t>(r.u32());
  out.start_time = r.f64();
  out.end_time = r.f64();
  out.stdout_chunks = r.u64();
  out.stderr_chunks = r.u64();
  return out;
}

/// Caps a declared element count by what the payload could physically hold
/// (each element needs at least `min_bytes`), so a corrupt count fails as a
/// truncation instead of a giant reserve().
std::uint64_t checked_count(std::uint64_t declared, std::size_t remaining,
                            std::size_t min_bytes) {
  if (min_bytes != 0 && declared > remaining / min_bytes) {
    throw ProtocolError("element count " + std::to_string(declared) +
                        " impossible for " + std::to_string(remaining) +
                        " payload bytes");
  }
  return declared;
}

void check_type(const Frame& frame, FrameType expected) {
  if (frame.type != expected) {
    throw ProtocolError(std::string("expected ") + to_string(expected) +
                        " frame, got " + to_string(frame.type));
  }
}

}  // namespace

std::string encode_hello(const HelloFrame& f) {
  WireWriter w;
  w.u32(f.version);
  w.f64(f.worker_now);
  w.u32(static_cast<std::uint32_t>(f.running.size()));
  for (std::uint64_t seq : f.running) w.u64(seq);
  w.u32(static_cast<std::uint32_t>(f.completed_unacked.size()));
  for (const ResultFrame& r : f.completed_unacked) put_result(w, r);
  return frame_bytes(FrameType::kHello, w.take());
}

HelloFrame decode_hello(const Frame& frame) {
  check_type(frame, FrameType::kHello);
  WireReader r(frame.payload);
  HelloFrame f;
  f.version = r.u32();
  f.worker_now = r.f64();
  std::uint64_t running = checked_count(r.u32(), r.remaining(), 8);
  f.running.reserve(running);
  for (std::uint64_t i = 0; i < running; ++i) f.running.push_back(r.u64());
  std::uint64_t completed = checked_count(r.u32(), r.remaining(), 40);
  f.completed_unacked.reserve(completed);
  for (std::uint64_t i = 0; i < completed; ++i) {
    f.completed_unacked.push_back(get_result(r));
  }
  r.expect_end();
  return f;
}

std::string encode_hello_ack(const HelloAckFrame& f) {
  WireWriter w;
  w.u32(f.version);
  return frame_bytes(FrameType::kHelloAck, w.take());
}

HelloAckFrame decode_hello_ack(const Frame& frame) {
  check_type(frame, FrameType::kHelloAck);
  WireReader r(frame.payload);
  HelloAckFrame f;
  f.version = r.u32();
  r.expect_end();
  return f;
}

std::string encode_submit(const SubmitFrame& f) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(f.jobs.size()));
  for (const JobSpec& job : f.jobs) {
    w.u64(job.seq);
    w.str(job.command);
    w.u64(job.slot);
    w.u8(static_cast<std::uint8_t>((job.use_shell ? 1 : 0) |
                                   (job.capture_output ? 2 : 0) |
                                   (job.has_stdin ? 4 : 0)));
    w.str(job.stdin_data);
    w.u32(static_cast<std::uint32_t>(job.env.size()));
    for (const auto& [key, value] : job.env) {
      w.str(key);
      w.str(value);
    }
  }
  return frame_bytes(FrameType::kSubmit, w.take());
}

SubmitFrame decode_submit(const Frame& frame) {
  check_type(frame, FrameType::kSubmit);
  WireReader r(frame.payload);
  SubmitFrame f;
  std::uint64_t count = checked_count(r.u32(), r.remaining(), 26);
  f.jobs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    JobSpec job;
    job.seq = r.u64();
    job.command = r.str();
    job.slot = r.u64();
    std::uint8_t flags = r.u8();
    if ((flags & ~std::uint8_t{7}) != 0) {
      throw ProtocolError("unknown SUBMIT flag bits");
    }
    job.use_shell = (flags & 1) != 0;
    job.capture_output = (flags & 2) != 0;
    job.has_stdin = (flags & 4) != 0;
    job.stdin_data = r.str();
    std::uint64_t env_count = checked_count(r.u32(), r.remaining(), 8);
    for (std::uint64_t e = 0; e < env_count; ++e) {
      std::string key = r.str();
      std::string value = r.str();
      job.env.emplace_back(std::move(key), std::move(value));
    }
    f.jobs.push_back(std::move(job));
  }
  r.expect_end();
  return f;
}

namespace {

void append_chunk(std::string& out, FrameType type, std::uint64_t seq,
                  std::uint64_t index, std::string_view data) {
  util::require(type == FrameType::kStdout || type == FrameType::kStderr,
                "chunk frames are STDOUT or STDERR");
  append_header(out, type, 20 + data.size());
  append_le(out, seq, 8);
  append_le(out, index, 8);
  append_le(out, data.size(), 4);
  out.append(data);
}

void append_result(std::string& out, const ResultFrame& f) {
  WireWriter w;
  put_result(w, f);
  append_header(out, FrameType::kResult, w.bytes().size());
  out += w.bytes();
}

}  // namespace

std::string encode_chunk(FrameType type, const ChunkFrame& f) {
  std::string out;
  append_chunk(out, type, f.seq, f.index, f.data);
  return out;
}

ChunkFrame decode_chunk(const Frame& frame) {
  if (frame.type != FrameType::kStdout && frame.type != FrameType::kStderr) {
    throw ProtocolError(std::string("expected STDOUT/STDERR frame, got ") +
                        to_string(frame.type));
  }
  WireReader r(frame.payload);
  ChunkFrame f;
  f.seq = r.u64();
  f.index = r.u64();
  f.data = r.str();
  r.expect_end();
  return f;
}

std::string encode_result(const ResultFrame& f) {
  std::string out;
  append_result(out, f);
  return out;
}

ResultFrame decode_result(const Frame& frame) {
  check_type(frame, FrameType::kResult);
  WireReader r(frame.payload);
  ResultFrame f = get_result(r);
  r.expect_end();
  return f;
}

std::string encode_ack(const AckFrame& f) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(f.seqs.size()));
  for (std::uint64_t seq : f.seqs) w.u64(seq);
  return frame_bytes(FrameType::kAck, w.take());
}

AckFrame decode_ack(const Frame& frame) {
  check_type(frame, FrameType::kAck);
  WireReader r(frame.payload);
  AckFrame f;
  std::uint64_t count = checked_count(r.u32(), r.remaining(), 8);
  f.seqs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) f.seqs.push_back(r.u64());
  r.expect_end();
  return f;
}

std::string encode_heartbeat(const HeartbeatFrame& f) {
  WireWriter w;
  w.u64(f.beat);
  w.f64(f.worker_now);
  w.u64(f.running);
  return frame_bytes(FrameType::kHeartbeat, w.take());
}

HeartbeatFrame decode_heartbeat(const Frame& frame) {
  check_type(frame, FrameType::kHeartbeat);
  WireReader r(frame.payload);
  HeartbeatFrame f;
  f.beat = r.u64();
  f.worker_now = r.f64();
  f.running = r.u64();
  r.expect_end();
  return f;
}

std::string encode_kill(const KillFrame& f) {
  WireWriter w;
  w.u64(f.seq);
  w.u32(static_cast<std::uint32_t>(f.signal));
  w.u8(f.force ? 1 : 0);
  return frame_bytes(FrameType::kKill, w.take());
}

KillFrame decode_kill(const Frame& frame) {
  check_type(frame, FrameType::kKill);
  WireReader r(frame.payload);
  KillFrame f;
  f.seq = r.u64();
  f.signal = static_cast<std::int32_t>(r.u32());
  std::uint8_t force = r.u8();
  if (force > 1) throw ProtocolError("KILL force flag out of range");
  f.force = force != 0;
  r.expect_end();
  return f;
}

std::string encode_drain() { return frame_bytes(FrameType::kDrain, ""); }

std::string encode_bye() { return frame_bytes(FrameType::kBye, ""); }

std::string encode_client_hello(const ClientHelloFrame& f) {
  WireWriter w;
  w.u32(f.version);
  w.str(f.tenant);
  w.f64(f.weight);
  w.str(f.token);
  return frame_bytes(FrameType::kClientHello, w.take());
}

ClientHelloFrame decode_client_hello(const Frame& frame) {
  check_type(frame, FrameType::kClientHello);
  WireReader r(frame.payload);
  ClientHelloFrame f;
  f.version = r.u32();
  f.tenant = r.str();
  f.weight = r.f64();
  // v1 hellos carried no token. Tolerate its absence so an old client gets
  // the friendly version-mismatch REJECT instead of a protocol drop.
  f.token = r.remaining() > 0 ? r.str() : "";
  r.expect_end();
  return f;
}

std::string encode_reject(const RejectFrame& f) {
  WireWriter w;
  w.u64(f.seq);
  w.u8(static_cast<std::uint8_t>(f.code));
  w.f64(f.retry_after);
  w.str(f.message);
  return frame_bytes(FrameType::kReject, w.take());
}

RejectFrame decode_reject(const Frame& frame) {
  check_type(frame, FrameType::kReject);
  WireReader r(frame.payload);
  RejectFrame f;
  f.seq = r.u64();
  std::uint8_t code = r.u8();
  if (code < static_cast<std::uint8_t>(RejectCode::kQueueFull) ||
      code > static_cast<std::uint8_t>(RejectCode::kEvicted)) {
    throw ProtocolError("REJECT code " + std::to_string(int(code)) +
                        " out of range");
  }
  f.code = static_cast<RejectCode>(code);
  f.retry_after = r.f64();
  f.message = r.str();
  r.expect_end();
  return f;
}

// ---------------------------------------------------------------------------
// FrameDecoder
// ---------------------------------------------------------------------------

void FrameDecoder::feed(const char* data, std::size_t size) {
  if (poisoned_) throw ProtocolError("decoder poisoned by an earlier error");
  buffer_.append(data, size);
}

void FrameDecoder::compact() {
  // Reclaim consumed prefix once it dominates the buffer, so a long-lived
  // connection does not grow the buffer without bound.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
}

std::optional<Frame> FrameDecoder::next() {
  if (poisoned_) throw ProtocolError("decoder poisoned by an earlier error");
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 5) return std::nullopt;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buffer_.data()) + consumed_;
  std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                      (static_cast<std::uint32_t>(p[1]) << 8) |
                      (static_cast<std::uint32_t>(p[2]) << 16) |
                      (static_cast<std::uint32_t>(p[3]) << 24);
  if (len > kMaxFramePayload) {
    poisoned_ = true;
    throw ProtocolError("length prefix " + std::to_string(len) +
                        " exceeds the frame limit");
  }
  if (!known_type(p[4])) {
    poisoned_ = true;
    throw ProtocolError("unknown frame type " + std::to_string(int(p[4])));
  }
  if (available < 5 + static_cast<std::size_t>(len)) return std::nullopt;
  Frame frame;
  frame.type = static_cast<FrameType>(p[4]);
  frame.payload.assign(buffer_.data() + consumed_ + 5, len);
  consumed_ += 5 + len;
  compact();
  return frame;
}

// ---------------------------------------------------------------------------
// The link
// ---------------------------------------------------------------------------

ssize_t write_some(int fd, std::string_view bytes) {
  while (true) {
    ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, bytes.data(), bytes.size());
    if (n >= 0 || errno != EINTR) return n;
  }
}

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    ssize_t n = write_some(fd, bytes);
    if (n < 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

ReadStatus read_some(int fd, FrameDecoder& decoder) {
  char buffer[64 * 1024];
  while (true) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n > 0) {
      decoder.feed(buffer, static_cast<std::size_t>(n));
      return ReadStatus::kData;
    }
    if (n == 0) return ReadStatus::kEnd;
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK ? ReadStatus::kWouldBlock
                                                   : ReadStatus::kError;
  }
}

namespace {

/// Appends `data` as `type` chunk frames of `seq`; returns how many.
std::uint64_t append_chunks(std::string& out, FrameType type, std::uint64_t seq,
                            std::string_view data) {
  std::uint64_t index = 0;
  for (std::size_t offset = 0; offset < data.size(); offset += kChunkBytes, ++index) {
    append_chunk(out, type, seq, index, data.substr(offset, kChunkBytes));
  }
  return index;
}

/// The chunks joined in index order.
std::string join(std::map<std::uint64_t, std::string>& chunks) {
  if (chunks.size() == 1) return std::move(chunks.begin()->second);
  std::string out;
  for (auto& [index, data] : chunks) out += data;
  return out;
}

}  // namespace

void append_job_frames(std::string& out, ResultFrame& result,
                       std::string_view stdout_data, std::string_view stderr_data) {
  result.stdout_chunks = append_chunks(out, FrameType::kStdout, result.seq, stdout_data);
  result.stderr_chunks = append_chunks(out, FrameType::kStderr, result.seq, stderr_data);
  append_result(out, result);
}

bool OutputAssembler::add(FrameType type, ChunkFrame chunk) {
  Chunks& job = jobs_[chunk.seq];
  auto& stream = type == FrameType::kStdout ? job.out : job.err;
  return stream.try_emplace(chunk.index, std::move(chunk.data)).second;
}

std::optional<JobOutput> OutputAssembler::take(const ResultFrame& result) {
  // Held indices are distinct, so `count` of them ending at count - 1 are
  // exactly 0 .. count - 1.
  auto complete = [](const std::map<std::uint64_t, std::string>& chunks,
                     std::uint64_t count) {
    return chunks.size() == count && (count == 0 || chunks.rbegin()->first == count - 1);
  };
  Chunks& job = jobs_[result.seq];
  if (!complete(job.out, result.stdout_chunks) ||
      !complete(job.err, result.stderr_chunks)) {
    return std::nullopt;
  }
  JobOutput output{join(job.out), join(job.err)};
  jobs_.erase(result.seq);
  return output;
}

// ---------------------------------------------------------------------------
// FrameFaultFilter
// ---------------------------------------------------------------------------

bool TransportFaultPlan::inert() const noexcept {
  return drop_prob <= 0.0 && duplicate_prob <= 0.0 && reorder_prob <= 0.0 &&
         delay_prob <= 0.0 && kill_connection_after == 0;
}

FrameFaultFilter::FrameFaultFilter(TransportFaultPlan plan) : plan_(plan) {
  kill_armed_ = plan_.kill_connection_after != 0;
}

bool FrameFaultFilter::protected_type(FrameType type) const noexcept {
  // Losing the handshake or the farewell has no retransmit path; those
  // failure modes are modelled as connection kills, not frame faults.
  return type == FrameType::kHello || type == FrameType::kHelloAck ||
         type == FrameType::kBye;
}

void FrameFaultFilter::filter(Frame frame, double now, std::vector<Frame>& out) {
  if (kill_armed_ && !kill_fired_ &&
      counters_.frames_seen >= plan_.kill_connection_after) {
    // The link is already severed at the scheduled cut; frames read past it
    // were written to a connection that no longer exists and never arrive.
    return;
  }
  ++counters_.frames_seen;
  std::uint64_t ordinal = ordinal_++;
  if (protected_type(frame.type) || plan_.inert()) {
    release_due(now, out);
    out.push_back(std::move(frame));
    return;
  }
  // One decision stream per frame ordinal, classes drawn in a fixed order
  // (FaultPlan's convention) so schedules replay bit-for-bit.
  util::Rng rng(plan_.seed * 0x9e3779b97f4a7c15ULL + ordinal + 1);
  bool drop = rng.bernoulli(plan_.drop_prob);
  bool duplicate = rng.bernoulli(plan_.duplicate_prob);
  bool reorder = rng.bernoulli(plan_.reorder_prob);
  bool delay = rng.bernoulli(plan_.delay_prob);
  double delay_s = rng.uniform(plan_.delay_min_seconds,
                               std::max(plan_.delay_min_seconds, plan_.delay_max_seconds));
  release_due(now, out);
  if (drop) {
    ++counters_.dropped;
    return;
  }
  if (delay) {
    ++counters_.delayed;
    held_.push_back({std::move(frame), now + delay_s});
    return;
  }
  if (reorder) {
    // Held with no release time: it rides out until the next frame passes,
    // which inverts the pair — the minimal reorder.
    ++counters_.reordered;
    held_.push_back({std::move(frame), now});
    return;
  }
  out.push_back(frame);
  if (duplicate) {
    ++counters_.duplicated;
    out.push_back(std::move(frame));
  }
}

void FrameFaultFilter::release_due(double now, std::vector<Frame>& out) {
  for (auto it = held_.begin(); it != held_.end();) {
    if (it->release_at <= now) {
      out.push_back(std::move(it->frame));
      it = held_.erase(it);
    } else {
      ++it;
    }
  }
}

bool FrameFaultFilter::kill_due() {
  if (!kill_armed_ || kill_fired_) return false;
  if (counters_.frames_seen >= plan_.kill_connection_after) {
    kill_fired_ = true;
    ++counters_.connection_kills;
    return true;
  }
  return false;
}

void FrameFaultFilter::reset_connection() { held_.clear(); }

}  // namespace parcl::exec::transport
