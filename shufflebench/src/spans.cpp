#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <unordered_map>
#include <utility>

namespace shufflebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(SpanLog& log, const char* name, uint64_t parent,
                       uint64_t call)
    : log_(log) {
  if (!log_.enabled()) return;
  span_.name = name;
  span_.id = log_.NextId();
  span_.parent = parent;
  span_.call = call;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!log_.enabled()) return;
  span_.end_ns = NowNs();
  log_.Record(span_);
}

std::vector<LedgerRow> SelfTimeLedger(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, LedgerRow> rows;
  for (const Span& span : spans) {
    const int64_t duration = span.end_ns - span.start_ns;
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> covered;
    if (auto it = children.find(span.id); it != children.end()) {
      for (const Span* child : it->second) {
        const int64_t lo = std::max(child->start_ns, span.start_ns);
        const int64_t hi = std::min(child->end_ns, span.end_ns);
        if (lo < hi) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : covered) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered_ns += run_hi - run_lo;

    LedgerRow& row = rows[span.name];
    row.name = span.name;
    row.count += 1;
    row.total_ms += static_cast<double>(duration) / 1e6;
    row.self_ms += static_cast<double>(duration - covered_ns) / 1e6;
  }
  std::vector<LedgerRow> out;
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  std::sort(out.begin(), out.end(), [](const LedgerRow& a, const LedgerRow& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& span : spans) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"call\":" << span.call
        << "}\n";
  }
  return static_cast<bool>(out);
}

static size_t NearestRank(size_t n, double q) {
  // The epsilon keeps q = 99.9 on n = 10000 at rank 9990: 99.9 has no exact
  // binary form and the product lands a hair above the integer.
  const double rank = std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

double HighestReportablePercentile(size_t n, size_t min_beyond) {
  for (double q : {99.9, 99.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, q) >= min_beyond) return q;
  }
  return 0;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50); }

std::vector<double> WindowRates(const std::vector<Completion>& completions,
                                int64_t start_ns, int64_t stop_ns,
                                int64_t window_ns) {
  if (window_ns <= 0 || stop_ns < start_ns) return {};
  const int64_t windows = (stop_ns - start_ns) / window_ns;
  std::vector<double> bytes(static_cast<size_t>(windows), 0);
  for (const Completion& c : completions) {
    const int64_t duration = std::max<int64_t>(1, c.end_ns - c.start_ns);
    const int64_t from = std::max(c.start_ns, start_ns);
    const int64_t to = std::min(std::max(c.end_ns, c.start_ns + 1),
                                start_ns + windows * window_ns);
    for (int64_t w = (from - start_ns) / window_ns;
         from < to && start_ns + w * window_ns < to; ++w) {
      const int64_t lo = std::max(from, start_ns + w * window_ns);
      const int64_t hi = std::min(to, start_ns + (w + 1) * window_ns);
      bytes[static_cast<size_t>(w)] += static_cast<double>(c.bytes) *
                                       static_cast<double>(hi - lo) /
                                       static_cast<double>(duration);
    }
  }
  for (double& b : bytes) b /= static_cast<double>(window_ns) / 1e9;
  return bytes;
}

}  // namespace shufflebench
