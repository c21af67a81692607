// Per-layer probes run after the timed phase of a traced run: transport
// round trips against a benchmark-owned endpoint, a one-chunk fetch against
// a fresh MofSupplier, and replays of the common layer's functions over the
// workload's own chunk bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "mapred/mof.h"
#include "spans.h"

namespace shufflebench {

struct ProbeResults {
  double connect_us = 0;        // TcpTransport Connect, median
  double echo_rtt_us = 0;       // 64 B frame there and back, median
  double chunk_push_us = 0;     // request -> one 128 KB zero-copy frame, median
  double one_chunk_rtt_us = 0;  // FetchRequest -> FetchData, median
  double crc32_mbs = 0;
  double compress_mbs = 0;      // input bytes per second
  double decompress_mbs = 0;    // output bytes per second
};

jbs::Status ProbeTransport(SpanLog& spans, ProbeResults* out);

/// Serves `handle` from a fresh MofSupplier and times hello + one-chunk
/// FetchRequests for `partition` over a raw Connection.
jbs::Status ProbeOneChunk(const jbs::mr::MofHandle& handle, int partition,
                          SpanLog& spans, ProbeResults* out);

/// Crc32 / Compress / Decompress over `chunks`.
jbs::Status ProbeReplay(const std::vector<std::vector<uint8_t>>& chunks,
                        SpanLog& spans, ProbeResults* out);

}  // namespace shufflebench
