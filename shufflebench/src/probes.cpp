#include "probes.h"

#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/compress.h"
#include "jbs/mof_supplier.h"
#include "jbs/protocol.h"
#include "transport/transport.h"
#include "workload.h"

namespace shufflebench {
namespace {

using jbs::Frame;
using jbs::Status;

constexpr uint8_t kEchoFrame = 1;
constexpr uint8_t kPushFrame = 2;
constexpr size_t kPushBytes = 128 * 1024;
constexpr int64_t kReplayNs = 150'000'000;  // per replay probe

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Times `op` `n` times and returns the median in microseconds; stops at the
// first failure.
template <typename Op>
Status MedianUs(int n, Op op, double* out) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int64_t start = NowNs();
    Status status = op();
    if (!status.ok()) return status;
    samples.push_back(Us(NowNs() - start));
  }
  *out = Median(std::move(samples));
  return Status::Ok();
}

// Runs `op` over `chunks` round-robin for at least kReplayNs; returns the
// rate in MB/s of the bytes `op` reports.
template <typename Op>
double ReplayMbs(const std::vector<std::vector<uint8_t>>& chunks, Op op) {
  uint64_t bytes = 0;
  const int64_t start = NowNs();
  int64_t elapsed = 0;
  for (size_t i = 0; elapsed < kReplayNs; i = (i + 1) % chunks.size()) {
    bytes += op(i);
    elapsed = NowNs() - start;
  }
  return static_cast<double>(bytes) / 1e6 / (static_cast<double>(elapsed) / 1e9);
}

}  // namespace

Status ProbeTransport(SpanLog& spans, ProbeResults* out) {
  auto transport = jbs::net::MakeTcpTransport();
  auto server_or = transport->CreateServer();
  if (!server_or.ok()) return server_or.status();
  std::unique_ptr<jbs::net::ServerEndpoint> server = std::move(server_or).value();
  auto push_buffer = std::make_shared<std::vector<uint8_t>>(kPushBytes, 0x5A);

  jbs::net::ServerEndpoint* endpoint = server.get();
  jbs::net::ServerEndpoint::Handlers handlers;
  handlers.on_frame = [endpoint, push_buffer](jbs::net::ConnId conn,
                                              Frame frame) {
    if (frame.type == kPushFrame) {
      Frame push;
      push.type = kPushFrame;
      push.ext = std::span<const uint8_t>(*push_buffer);
      (void)endpoint->SendAsync(conn, std::move(push), push_buffer);
      return;
    }
    (void)endpoint->SendAsync(conn, std::move(frame));
  };
  if (Status status = server->Start(handlers); !status.ok()) return status;
  const uint16_t port = server->port();

  Status status;
  {
    ScopedSpan span(spans, "probe.transport.Connect", 0, 0);
    status = MedianUs(
        100,
        [&]() -> Status {
          auto conn = transport->Connect("127.0.0.1", port);
          if (!conn.ok()) return conn.status();
          (*conn)->Close();
          return Status::Ok();
        },
        &out->connect_us);
  }
  auto conn_or = transport->Connect("127.0.0.1", port);
  if (status.ok() && !conn_or.ok()) status = conn_or.status();
  if (status.ok()) {
    jbs::net::Connection& conn = **conn_or;
    const auto round_trip = [&conn](uint8_t type, size_t request_bytes,
                                    size_t reply_bytes) -> Status {
      Frame frame;
      frame.type = type;
      frame.payload.assign(request_bytes, 0x42);
      if (Status sent = conn.Send(frame); !sent.ok()) return sent;
      auto reply = conn.Receive();
      if (!reply.ok()) return reply.status();
      if (reply->payload.size() != reply_bytes) {
        return jbs::Internal("probe reply has " +
                             std::to_string(reply->payload.size()) + " bytes");
      }
      return Status::Ok();
    };
    {
      ScopedSpan span(spans, "probe.transport.echo", 0, 0);
      status = MedianUs(
          500, [&] { return round_trip(kEchoFrame, 64, 64); },
          &out->echo_rtt_us);
    }
    if (status.ok()) {
      ScopedSpan span(spans, "probe.transport.chunk_push", 0, 0);
      status = MedianUs(
          200, [&] { return round_trip(kPushFrame, 1, kPushBytes); },
          &out->chunk_push_us);
    }
    conn.Close();
  }
  server->Stop();
  return status;
}

Status ProbeOneChunk(const jbs::mr::MofHandle& handle, int partition,
                     SpanLog& spans, ProbeResults* out) {
  namespace shuffle = jbs::shuffle;
  auto transport = jbs::net::MakeTcpTransport();
  shuffle::MofSupplier::Options options;
  options.transport = transport.get();
  shuffle::MofSupplier supplier(options);
  if (Status status = supplier.Start(); !status.ok()) return status;
  Status status = supplier.PublishMof(handle);
  auto conn_or = transport->Connect("127.0.0.1", supplier.port());
  if (status.ok() && !conn_or.ok()) status = conn_or.status();
  if (status.ok()) {
    jbs::net::Connection& conn = **conn_or;
    status = conn.Send(shuffle::EncodeHello(shuffle::Hello{}));
    const shuffle::FetchRequest request{
        .map_task = handle.map_task,
        .partition = partition,
        .offset = 0,
        .max_len = static_cast<uint32_t>(kBufferSize - shuffle::kDataHeaderSize)};
    if (status.ok()) {
      ScopedSpan span(spans, "probe.jbs.supplier.one_chunk", 0, 0);
      status = MedianUs(
          300,
          [&]() -> Status {
            if (Status sent = conn.Send(shuffle::EncodeRequest(request));
                !sent.ok()) {
              return sent;
            }
            auto reply = conn.Receive();
            if (!reply.ok()) return reply.status();
            if (reply->type != shuffle::kFetchData) {
              return jbs::Internal("one-chunk probe got frame type " +
                                   std::to_string(reply->type));
            }
            return Status::Ok();
          },
          &out->one_chunk_rtt_us);
    }
    conn.Close();
  }
  supplier.Stop();
  return status;
}

Status ProbeReplay(const std::vector<std::vector<uint8_t>>& chunks,
                   SpanLog& spans, ProbeResults* out) {
  if (chunks.empty()) return jbs::InvalidArgument("no chunk bytes to replay");
  {
    ScopedSpan span(spans, "probe.common.Crc32", 0, 0);
    out->crc32_mbs = ReplayMbs(chunks, [&](size_t i) {
      (void)jbs::Crc32(chunks[i]);  // out of line: cannot be elided
      return chunks[i].size();
    });
  }
  std::vector<std::vector<uint8_t>> compressed;
  {
    ScopedSpan span(spans, "probe.common.Compress", 0, 0);
    out->compress_mbs = ReplayMbs(chunks, [&](size_t i) {
      std::vector<uint8_t> packed = jbs::Compress(chunks[i]);
      if (compressed.size() < chunks.size()) compressed.push_back(std::move(packed));
      return chunks[i].size();
    });
  }
  // Compress ran at least one full pass unless a pass outlasts the probe.
  while (compressed.size() < chunks.size()) {
    compressed.push_back(jbs::Compress(chunks[compressed.size()]));
  }
  for (size_t i = 0; i < chunks.size(); ++i) {
    auto raw = jbs::Decompress(compressed[i]);
    if (!raw.ok() || *raw != chunks[i]) {
      return jbs::Internal("replayed Decompress does not round-trip");
    }
  }
  {
    ScopedSpan span(spans, "probe.common.Decompress", 0, 0);
    out->decompress_mbs = ReplayMbs(compressed, [&](size_t i) -> uint64_t {
      auto raw = jbs::Decompress(compressed[i]);
      return raw.ok() ? raw->size() : 0;
    });
  }
  return Status::Ok();
}

}  // namespace shufflebench
