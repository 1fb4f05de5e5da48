// Framed binary protocol between a PilotExecutor and a per-host persistent
// worker agent (`parcl --worker`).
//
// At paper scale the per-job ssh/wrapper spawn *is* the multi-host dispatch
// ceiling (Figs 1/3: 9,408 Frontier nodes): every attempt pays a full
// connection + shell start before the payload even execs. The pilot design
// (Parsl's HighThroughputExecutor interchange/worker pipeline) replaces
// that with ONE long-lived agent per host and a multiplexed byte stream
// carrying batched submissions, streamed output chunks, results,
// heartbeats, and kill/drain control — so steady-state dispatch costs one
// frame, not one process tree.
//
// Wire format (all integers little-endian):
//
//   +----------------+--------+-----------------+
//   | u32 payload_len| u8 type| payload bytes   |
//   +----------------+--------+-----------------+
//
//   type        dir            payload
//   ----------- -------------- ------------------------------------------
//   HELLO       worker->pilot  version, worker clock, journal: running
//                              seqs + completed-but-unacked results
//   HELLO_ACK   pilot->worker  version (handshake complete)
//   SUBMIT      pilot->worker  batch of jobs (seq, command, env, stdin)
//   STDOUT      worker->pilot  seq-tagged chunk (job, chunk index, bytes)
//   STDERR      worker->pilot  seq-tagged chunk
//   RESULT      worker->pilot  final status + expected chunk counts
//   ACK         pilot->worker  delivered seqs (worker drops its journal
//                              entries; unacked results are re-sent)
//   HEARTBEAT   worker->pilot  beat counter, worker clock, running count
//   KILL        pilot->worker  seq, signal, force
//   DRAIN       pilot->worker  finish in-flight, then BYE and exit
//   BYE         worker->pilot  drained; connection about to close
//
// Exactly-once is the pilot's job, not the wire's: a RESULT (with its
// chunks) is retransmitted with every heartbeat until ACKed, so frames may
// legitimately arrive duplicated or out of order after a reconnect — the
// pilot dedupes by (seq, stream, chunk index) and by completed-seq set.
// The codec itself is defensive: length prefixes are bounded, every read
// is bounds-checked, and any malformed byte stream raises ProtocolError
// instead of crashing or over-reading (the conformance/fuzz suite in
// tests/transport_protocol_test.cpp holds it to that under ASan).
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace parcl::exec::transport {

/// Bumped on any incompatible wire change. HELLO carries the worker's
/// version; the pilot rejects a mismatch outright (no downgrade path — both
/// ends ship in one binary).
constexpr std::uint32_t kProtocolVersion = 2;

/// Hard ceiling on a frame payload. Output chunks are cut well below this
/// (kChunkBytes); anything larger in a length prefix is a corrupt or
/// hostile stream and is rejected before any allocation.
constexpr std::uint32_t kMaxFramePayload = 16u << 20;

/// The most output bytes one STDOUT/STDERR chunk frame carries
/// (append_job_frames).
constexpr std::size_t kChunkBytes = 64 * 1024;

/// A malformed frame or payload: truncated, oversized, unknown type, or a
/// field that runs past the payload end.
class ProtocolError : public util::Error {
 public:
  explicit ProtocolError(const std::string& what)
      : util::Error("transport protocol error: " + what) {}
};

enum class FrameType : std::uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kSubmit = 3,
  kStdout = 4,
  kStderr = 5,
  kResult = 6,
  kAck = 7,
  kHeartbeat = 8,
  kKill = 9,
  kDrain = 10,
  kBye = 11,
  // Job-service (`parcl --server` / `--client`) additions. The service
  // reuses SUBMIT/ACK/RESULT/STDOUT/STDERR/DRAIN/BYE verbatim; these two
  // cover what the pilot protocol had no need for: a tenant introducing
  // itself, and an explicit admission rejection instead of buffering.
  kClientHello = 12,
  kReject = 13,
};

const char* to_string(FrameType type) noexcept;

/// One decoded frame: the type byte plus its raw payload.
struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::string payload;
};

// ---------------------------------------------------------------------------
// Bounds-checked payload (de)serialization.
// ---------------------------------------------------------------------------

class WireWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);  // IEEE-754 bits via u64
  /// u32 length prefix + bytes.
  void str(const std::string& v);

  const std::string& bytes() const noexcept { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Reads the exact encodings WireWriter produces. Every accessor checks the
/// remaining byte count first and throws ProtocolError instead of reading
/// past the end; string lengths are additionally capped by the payload size
/// so a hostile length prefix cannot trigger a huge allocation.
class WireReader {
 public:
  WireReader(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::string& payload)
      : WireReader(payload.data(), payload.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();

  std::size_t remaining() const noexcept { return size_ - pos_; }
  /// Call once a payload is fully parsed: trailing garbage is a protocol
  /// error too (it hides framing bugs).
  void expect_end() const;

 private:
  void need(std::size_t n) const;

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Typed payloads.
// ---------------------------------------------------------------------------

/// One job inside a SUBMIT batch. `seq` is the engine's per-attempt job id;
/// the worker runs the command through its own LocalExecutor and tags every
/// response frame with this seq.
struct JobSpec {
  std::uint64_t seq = 0;
  std::string command;
  std::uint64_t slot = 0;  // worker-local 1-based slot ({%} stability)
  bool use_shell = true;
  bool capture_output = true;
  bool has_stdin = false;
  std::string stdin_data;
  std::vector<std::pair<std::string, std::string>> env;
};

/// Final status of one job, sent after its last output chunk. The chunk
/// counts let the pilot detect and wait out chunks still in flight (or
/// dropped — the journal retransmit closes the gap).
struct ResultFrame {
  std::uint64_t seq = 0;
  std::int32_t exit_code = 0;
  std::int32_t term_signal = 0;
  double start_time = 0.0;  // the worker's inner executor's clock
  double end_time = 0.0;
  std::uint64_t stdout_chunks = 0;
  std::uint64_t stderr_chunks = 0;
};

/// Worker's opening frame on every (re)attach: protocol version, the inner
/// executor's clock (the one RESULT times are on) for the pilot's offset,
/// and the journal — seqs still running plus results completed but never
/// ACKed. A fresh worker sends an empty journal; a surviving worker's
/// journal is what makes reconnect-and-reconcile exact.
struct HelloFrame {
  std::uint32_t version = kProtocolVersion;
  double worker_now = 0.0;
  std::vector<std::uint64_t> running;
  std::vector<ResultFrame> completed_unacked;
};

struct HelloAckFrame {
  std::uint32_t version = kProtocolVersion;
};

struct SubmitFrame {
  std::vector<JobSpec> jobs;
};

/// Seq-tagged output chunk. `index` orders chunks within one (seq, stream)
/// and makes duplicates (journal retransmits, chaotic links) idempotent.
struct ChunkFrame {
  std::uint64_t seq = 0;
  std::uint64_t index = 0;
  std::string data;
};

struct AckFrame {
  std::vector<std::uint64_t> seqs;
};

struct HeartbeatFrame {
  std::uint64_t beat = 0;
  double worker_now = 0.0;
  std::uint64_t running = 0;
};

struct KillFrame {
  std::uint64_t seq = 0;
  std::int32_t signal = 0;  // 0 = polite kill(force=false)
  bool force = false;
};

// ---------------------------------------------------------------------------
// Job-service frames (`parcl --server` / `parcl --client`).
// ---------------------------------------------------------------------------

/// Why the server refused a SUBMIT (or the connection). Carried in a REJECT
/// frame together with a retry hint; clients map these onto exit codes and
/// backoff behaviour.
enum class RejectCode : std::uint8_t {
  kQueueFull = 1,   // this tenant's bounded intake queue is full
  kServerFull = 2,  // global intake bound reached
  kPressure = 3,    // admission gate closed (--memfree/--load at the edge)
  kDraining = 4,    // server is in drain; no new work accepted
  kBadRequest = 5,  // malformed or oversized submission
  kEvicted = 6,     // tenant throttled/evicted for misbehaviour
};

const char* to_string(RejectCode code) noexcept;

/// Client's opening frame: protocol version plus the tenant identity and
/// fair-share weight it is asking for. The server answers with HELLO_ACK
/// (admitted) or REJECT (version mismatch, eviction, drain).
struct ClientHelloFrame {
  std::uint32_t version = kProtocolVersion;
  std::string tenant;
  double weight = 1.0;
  /// Shared-secret authentication (--token). The server compares it against
  /// its own configured token before admitting the tenant; required
  /// whenever the server listens beyond loopback, since an admitted client
  /// gets arbitrary command execution as the server user.
  std::string token;
};

/// Explicit admission rejection. `seq` names the refused client-side job
/// seq (0 when the rejection applies to the connection as a whole, e.g. a
/// handshake refusal). `retry_after` is the server's backoff hint in
/// seconds; 0 means "do not retry" (bad request, eviction).
struct RejectFrame {
  std::uint64_t seq = 0;
  RejectCode code = RejectCode::kBadRequest;
  double retry_after = 0.0;
  std::string message;
};

// Encoders produce the full frame (length prefix + type + payload).
std::string encode_hello(const HelloFrame& f);
std::string encode_hello_ack(const HelloAckFrame& f);
std::string encode_submit(const SubmitFrame& f);
std::string encode_chunk(FrameType type, const ChunkFrame& f);  // kStdout/kStderr
std::string encode_result(const ResultFrame& f);
std::string encode_ack(const AckFrame& f);
std::string encode_heartbeat(const HeartbeatFrame& f);
std::string encode_kill(const KillFrame& f);
std::string encode_drain();
std::string encode_bye();
std::string encode_client_hello(const ClientHelloFrame& f);
std::string encode_reject(const RejectFrame& f);

// Decoders parse a Frame's payload; they throw ProtocolError on any
// truncation, overrun, or trailing garbage.
HelloFrame decode_hello(const Frame& frame);
HelloAckFrame decode_hello_ack(const Frame& frame);
SubmitFrame decode_submit(const Frame& frame);
ChunkFrame decode_chunk(const Frame& frame);
ResultFrame decode_result(const Frame& frame);
AckFrame decode_ack(const Frame& frame);
HeartbeatFrame decode_heartbeat(const Frame& frame);
KillFrame decode_kill(const Frame& frame);
ClientHelloFrame decode_client_hello(const Frame& frame);
RejectFrame decode_reject(const Frame& frame);

/// Incremental frame reassembly over an arbitrary byte stream. feed() any
/// number of bytes; next() yields complete frames in order. The decoder
/// validates the length prefix against kMaxFramePayload and the type byte
/// against the known set *before* buffering the payload, so a corrupt
/// stream fails fast and bounded.
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t size);
  void feed(const std::string& bytes) { feed(bytes.data(), bytes.size()); }

  /// Next complete frame, or nullopt when more bytes are needed. Throws
  /// ProtocolError on a malformed prefix or unknown type; the decoder is
  /// then poisoned (every later call throws) — the connection must be torn
  /// down, there is no resynchronization in a length-prefixed stream.
  std::optional<Frame> next();

  /// Bytes buffered but not yet returned as frames.
  std::size_t pending_bytes() const noexcept { return buffer_.size() - consumed_; }

 private:
  void compact();

  std::string buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already parsed
  bool poisoned_ = false;
};

// ---------------------------------------------------------------------------
// The link: the server, the client, the pilot and the worker write, read
// and carry a job's output only through these; each keeps its own wait
// and its own frame dispatch.
// ---------------------------------------------------------------------------

/// Writes what `fd` takes now, and never raises SIGPIPE on a socket: send()
/// with MSG_NOSIGNAL, or write() when `fd` is not a socket (a pipe: the
/// worker's stdio under ssh, where parcl's main ignores SIGPIPE).
/// Retries EINTR. Returns the bytes written, or -1 with errno set.
ssize_t write_some(int fd, std::string_view bytes);

/// Writes all of `bytes` to a blocking fd. False once a write fails.
bool write_all(int fd, std::string_view bytes);

enum class ReadStatus { kData, kWouldBlock, kEnd, kError };

/// One read() of up to 64 KiB from `fd` into `decoder`, retrying EINTR.
ReadStatus read_some(int fd, FrameDecoder& decoder);

/// Appends a finished job's STDOUT chunks, then its STDERR chunks
/// (kChunkBytes each, indexed from 0), then `result` with the chunk counts
/// it fills in.
void append_job_frames(std::string& out, ResultFrame& result,
                       std::string_view stdout_data, std::string_view stderr_data);

struct JobOutput {
  std::string stdout_data;
  std::string stderr_data;
};

/// Rebuilds jobs' output from chunks keyed by (seq, stream, index), in
/// whatever order and however often they arrive.
class OutputAssembler {
 public:
  /// False, holding nothing, when the chunk is already held.
  bool add(FrameType type, ChunkFrame chunk);
  /// The job's output once every chunk `result` counts is held (they are
  /// then dropped); nullopt while one is missing.
  std::optional<JobOutput> take(const ResultFrame& result);
  void forget(std::uint64_t seq) { jobs_.erase(seq); }

 private:
  struct Chunks {
    std::map<std::uint64_t, std::string> out, err;
  };
  std::map<std::uint64_t, Chunks> jobs_;
};

// ---------------------------------------------------------------------------
// Deterministic transport-fault injection (the chaos rig's frame layer).
// ---------------------------------------------------------------------------

/// Seeded fault schedule applied to worker->pilot frames as the pilot
/// receives them, mirroring FaultPlan's style: each class is drawn
/// independently per frame from a stream keyed on (seed, frame ordinal), so
/// a schedule replays bit-for-bit. Control frames that the protocol cannot
/// recover from losing (HELLO, HELLO_ACK, BYE) are exempt from drop/dup/
/// reorder — loss of those is modelled by kill_connection_after instead.
struct TransportFaultPlan {
  std::uint64_t seed = 0;
  double drop_prob = 0.0;       // frame silently discarded
  double duplicate_prob = 0.0;  // frame delivered twice
  double reorder_prob = 0.0;    // frame held back past the next frame
  double delay_prob = 0.0;      // frame held for [delay_min, delay_max] s
  double delay_min_seconds = 0.0;
  double delay_max_seconds = 0.0;
  /// After this many inbound frames, the connection is killed once (0 =
  /// never): the pilot sees EOF mid-run and must reconnect-and-reconcile.
  std::uint64_t kill_connection_after = 0;
  /// True when every probability is zero and no kill is scheduled.
  bool inert() const noexcept;
};

struct TransportFaultCounters {
  std::uint64_t frames_seen = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t delayed = 0;
  std::uint64_t connection_kills = 0;
};

/// Applies a TransportFaultPlan at frame granularity. The pilot feeds every
/// decoded inbound frame through filter(); the filter returns the frames to
/// actually process now (possibly none, possibly several once held frames
/// come due). kill_due() reports a scheduled mid-run connection kill.
class FrameFaultFilter {
 public:
  explicit FrameFaultFilter(TransportFaultPlan plan);

  /// Feeds one received frame; appends the frames to process to `out`.
  void filter(Frame frame, double now, std::vector<Frame>& out);
  /// Appends any held (delayed/reordered) frames that are due.
  void release_due(double now, std::vector<Frame>& out);
  /// True once the scheduled connection kill should fire; latches off so
  /// the kill happens exactly once per plan.
  bool kill_due();
  /// Drops all held frames (connection torn down: in-flight frames die).
  void reset_connection();

  const TransportFaultCounters& counters() const noexcept { return counters_; }

 private:
  struct Held {
    Frame frame;
    double release_at = 0.0;
  };
  bool protected_type(FrameType type) const noexcept;

  TransportFaultPlan plan_;
  TransportFaultCounters counters_;
  std::uint64_t ordinal_ = 0;
  bool kill_fired_ = false;
  bool kill_armed_ = false;
  std::deque<Held> held_;
};

}  // namespace parcl::exec::transport
