// Benchmark-side tracing: spans recorded around calls into each layer's
// public functions, kept in memory and written out when the run ends, plus
// the small statistics helpers the report needs.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace shufflebench {

int64_t NowNs();  // steady clock

struct Span {
  const char* name = "";  // static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t call = 0;    // reduce call (or set-up / probe step) id
};

/// Thread-safe in-memory span store. A disabled log records nothing and
/// hands out id 0, so untraced runs pay one branch per span site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);
  std::vector<Span> spans() const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Records [construction, destruction) as one span when the log is enabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint64_t parent, uint64_t call);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  SpanLog& log_;
  Span span_;
};

struct LedgerRow {
  std::string name;
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;  // total minus the part of each span its children cover
};

/// Per span name: count, total time and self time. A span's self time is
/// its duration minus the union of its children's intervals clipped to it,
/// so overlapping children are not subtracted twice. Rows are sorted by
/// self time, largest first.
std::vector<LedgerRow> SelfTimeLedger(const std::vector<Span>& spans);

/// Writes one JSON object per span, one per line.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

/// Nearest-rank percentile `q` (0..100] of `values` (need not be sorted).
double Percentile(std::vector<double> values, double q);

/// Samples strictly above the nearest-rank percentile `q` of n samples.
size_t SamplesBeyond(size_t n, double q);

/// The highest of p50/p90/p99/p99.9 that has at least `min_beyond` samples
/// beyond it among `n`, or 0 when even p50 has fewer.
double HighestReportablePercentile(size_t n, size_t min_beyond = 10);

double Median(std::vector<double> values);

/// One finished call: when it started and ended, and the bytes it delivered.
struct Completion {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;
};

/// Bytes per second in each whole window of `window_ns` that starts at
/// `start_ns` or a multiple of `window_ns` after it and ends by `stop_ns`.
/// A call's bytes are spread evenly over its duration, so each window gets
/// the share of the call it overlaps.
std::vector<double> WindowRates(const std::vector<Completion>& completions,
                                int64_t start_ns, int64_t stop_ns,
                                int64_t window_ns);

}  // namespace shufflebench
