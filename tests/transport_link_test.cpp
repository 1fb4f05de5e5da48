// The link half of exec/transport: the writer that never raises SIGPIPE on
// a socket, the read step into a FrameDecoder, the encoder that turns a
// finished job into chunk and RESULT frames, and the assembler that turns
// them back into the job's output.
#include "exec/transport.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <string>
#include <vector>

namespace parcl::exec::transport {
namespace {

std::vector<Frame> decode_all(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes);
  std::vector<Frame> frames;
  while (std::optional<Frame> frame = decoder.next()) frames.push_back(std::move(*frame));
  return frames;
}

/// One frame as the wire format spells it: u32 payload length, u8 type,
/// payload.
std::string frame_of(FrameType type, WireWriter payload) {
  WireWriter header;
  header.u32(static_cast<std::uint32_t>(payload.bytes().size()));
  header.u8(static_cast<std::uint8_t>(type));
  return header.take() + payload.take();
}

/// The sequence the server and the worker each built by hand before the
/// encoder: a chunk frame (seq, index, data) per kChunkBytes slice, stdout
/// then stderr, then the RESULT with the counts.
std::string hand_built(ResultFrame result, const std::string& out,
                       const std::string& err) {
  std::string bytes;
  auto chunks = [&](FrameType type, const std::string& data) {
    std::uint64_t index = 0;
    for (std::size_t offset = 0; offset < data.size(); offset += kChunkBytes) {
      WireWriter chunk;
      chunk.u64(result.seq);
      chunk.u64(index++);
      chunk.str(data.substr(offset, kChunkBytes));
      bytes += frame_of(type, std::move(chunk));
    }
    return index;
  };
  result.stdout_chunks = chunks(FrameType::kStdout, out);
  result.stderr_chunks = chunks(FrameType::kStderr, err);
  WireWriter payload;
  payload.u64(result.seq);
  payload.u32(static_cast<std::uint32_t>(result.exit_code));
  payload.u32(static_cast<std::uint32_t>(result.term_signal));
  payload.f64(result.start_time);
  payload.f64(result.end_time);
  payload.u64(result.stdout_chunks);
  payload.u64(result.stderr_chunks);
  bytes += frame_of(FrameType::kResult, std::move(payload));
  return bytes;
}

std::string pattern(std::size_t size, char seed) {
  std::string data(size, '\0');
  for (std::size_t i = 0; i < size; ++i) data[i] = static_cast<char>(seed + i % 251);
  return data;
}

TEST(TransportLink, JobFramesMatchTheHandBuiltSequence) {
  const std::size_t sizes[] = {0, 1, kChunkBytes, kChunkBytes + 1};
  for (std::size_t out_size : sizes) {
    for (std::size_t err_size : sizes) {
      SCOPED_TRACE("stdout " + std::to_string(out_size) + ", stderr " +
                   std::to_string(err_size));
      ResultFrame result;
      result.seq = 77;
      result.exit_code = 3;
      result.term_signal = 0;
      result.start_time = 1.25;
      result.end_time = 2.5;
      const std::string out = pattern(out_size, 'a');
      const std::string err = pattern(err_size, 'A');
      const std::string expected = hand_built(result, out, err);
      std::string bytes = "prefix";  // appends, keeping what is there
      append_job_frames(bytes, result, out, err);
      EXPECT_EQ(bytes, "prefix" + expected);
      EXPECT_EQ(result.stdout_chunks, (out_size + kChunkBytes - 1) / kChunkBytes);
      EXPECT_EQ(result.stderr_chunks, (err_size + kChunkBytes - 1) / kChunkBytes);
    }
  }
}

TEST(TransportLink, AssemblerTakesEachByteOnceWhateverTheOrder) {
  ResultFrame first;
  first.seq = 5;
  ResultFrame second;
  second.seq = 6;
  const std::string out = pattern(2 * kChunkBytes + 9, 'x');
  const std::string err = pattern(kChunkBytes + 1, 'y');
  std::string bytes;
  append_job_frames(bytes, first, out, err);
  append_job_frames(bytes, second, "", "only stderr");
  std::vector<Frame> frames = decode_all(bytes);
  ASSERT_EQ(frames.size(), 8u);  // 3 + 2 + RESULT, then 1 + RESULT

  OutputAssembler assembler;
  // Newest first, each chunk twice: the second copy is reported, not held.
  for (auto frame = frames.rbegin(); frame != frames.rend(); ++frame) {
    if (frame->type == FrameType::kResult) continue;
    EXPECT_TRUE(assembler.add(frame->type, decode_chunk(*frame)));
    EXPECT_FALSE(assembler.add(frame->type, decode_chunk(*frame)));
  }
  std::optional<JobOutput> got = assembler.take(decode_result(frames[7]));
  ASSERT_TRUE(got);
  EXPECT_EQ(got->stdout_data, "");
  EXPECT_EQ(got->stderr_data, "only stderr");
  got = assembler.take(decode_result(frames[5]));
  ASSERT_TRUE(got);
  EXPECT_EQ(got->stdout_data, out);
  EXPECT_EQ(got->stderr_data, err);
  // Taken means gone: the chunks are not held twice.
  EXPECT_FALSE(assembler.take(decode_result(frames[5])));
}

TEST(TransportLink, AssemblerWaitsForEveryCountedChunk) {
  ResultFrame result;
  result.seq = 9;
  std::string bytes;
  append_job_frames(bytes, result, pattern(kChunkBytes + 1, 'q'), "");
  std::vector<Frame> frames = decode_all(bytes);
  ASSERT_EQ(frames.size(), 3u);
  OutputAssembler assembler;
  const ResultFrame counts = decode_result(frames[2]);
  EXPECT_FALSE(assembler.take(counts)) << "no chunk held yet";
  ASSERT_TRUE(assembler.add(frames[1].type, decode_chunk(frames[1])));
  EXPECT_FALSE(assembler.take(counts)) << "chunk 0 still missing";
  ASSERT_TRUE(assembler.add(frames[0].type, decode_chunk(frames[0])));
  std::optional<JobOutput> got = assembler.take(counts);
  ASSERT_TRUE(got);
  EXPECT_EQ(got->stdout_data, pattern(kChunkBytes + 1, 'q'));

  // A job with no output needs no chunk; forget() drops a job's chunks.
  ResultFrame quiet;
  quiet.seq = 10;
  EXPECT_TRUE(assembler.take(quiet));
  ChunkFrame stray;
  stray.seq = 11;
  stray.data = "x";
  ASSERT_TRUE(assembler.add(FrameType::kStdout, stray));
  assembler.forget(11);
  EXPECT_TRUE(assembler.add(FrameType::kStdout, stray)) << "forgotten chunks are gone";
}

TEST(TransportLink, WriteToAClosedPeerFailsWithoutSigpipe) {
  // With SIGPIPE at its default action, a plain write() here would end the
  // test process.
  struct sigaction deflt {}, saved {};
  deflt.sa_handler = SIG_DFL;
  ASSERT_EQ(::sigaction(SIGPIPE, &deflt, &saved), 0);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
  ::close(sv[1]);
  errno = 0;
  EXPECT_FALSE(write_all(sv[0], encode_bye()));
  EXPECT_EQ(errno, EPIPE);
  EXPECT_EQ(write_some(sv[0], "x"), -1);
  ::close(sv[0]);
  ::sigaction(SIGPIPE, &saved, nullptr);
}

TEST(TransportLink, WriterFallsBackToWriteOnAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string frame = encode_drain();
  EXPECT_TRUE(write_all(fds[1], frame));
  ::close(fds[1]);
  FrameDecoder decoder;
  EXPECT_EQ(read_some(fds[0], decoder), ReadStatus::kData);
  EXPECT_EQ(decoder.pending_bytes(), frame.size());
  std::optional<Frame> back = decoder.next();
  ASSERT_TRUE(back);
  EXPECT_EQ(back->type, FrameType::kDrain);
  EXPECT_EQ(read_some(fds[0], decoder), ReadStatus::kEnd);
  ::close(fds[0]);
}

TEST(TransportLink, ReadStepReportsWouldBlockDataAndEnd) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0, sv), 0);
  FrameDecoder decoder;
  EXPECT_EQ(read_some(sv[0], decoder), ReadStatus::kWouldBlock);
  const std::string bytes = encode_heartbeat({}) + encode_bye();
  ASSERT_TRUE(write_all(sv[1], bytes));
  EXPECT_EQ(read_some(sv[0], decoder), ReadStatus::kData);
  EXPECT_EQ(decoder.pending_bytes(), bytes.size());
  EXPECT_EQ(decoder.next()->type, FrameType::kHeartbeat);
  EXPECT_EQ(decoder.next()->type, FrameType::kBye);
  ::close(sv[1]);
  EXPECT_EQ(read_some(sv[0], decoder), ReadStatus::kEnd);
  EXPECT_EQ(read_some(-1, decoder), ReadStatus::kError);
  ::close(sv[0]);
}

}  // namespace
}  // namespace parcl::exec::transport
