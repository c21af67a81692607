// Tests of the benchmark's own logic: the percentile-reporting rule, the
// windowed throughput, self time with overlapping children, the output
// digest, and the generator's determinism. Run: .bench_build/shufflebench/shufflebench_selftest
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "digest.h"
#include "spans.h"
#include "workload.h"

namespace sb = shufflebench;

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool Near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

void TestPercentileRule() {
  // p99 needs 10 samples beyond it: n = 1000 qualifies, n = 999 does not.
  Check(sb::SamplesBeyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  Check(sb::HighestReportablePercentile(1000) == 99, "p99 at n=1000");
  Check(sb::HighestReportablePercentile(999) == 90, "p90 at n=999");
  Check(sb::HighestReportablePercentile(10000) == 99.9, "p99.9 at n=10000");
  Check(sb::HighestReportablePercentile(9999) == 99, "p99 at n=9999");
  Check(sb::HighestReportablePercentile(100) == 90, "p90 at n=100");
  Check(sb::HighestReportablePercentile(19) == 0, "nothing at n=19");
  Check(sb::HighestReportablePercentile(20) == 50, "p50 at n=20");
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  Check(sb::Percentile(values, 50) == 50, "nearest-rank p50 of 1..100");
  Check(sb::Percentile(values, 99) == 99, "nearest-rank p99 of 1..100");
}

void TestWindowRates() {
  // Windows of 1 s from t = 10 s to a stop at 13.5 s: three whole windows.
  const int64_t s = 1'000'000'000;
  const std::vector<sb::Completion> calls = {
      {.start_ns = 8 * s, .end_ns = 9 * s, .bytes = 1000},  // before the start
      {.start_ns = 9 * s, .end_ns = 11 * s, .bytes = 400},  // half inside
      {.start_ns = 10 * s, .end_ns = 10 * s, .bytes = 30},  // instant
      {.start_ns = 10 * s + s / 2, .end_ns = 12 * s + s / 2, .bytes = 200},
      {.start_ns = 13 * s, .end_ns = 14 * s, .bytes = 80},  // partial window
  };
  const std::vector<double> rates = sb::WindowRates(calls, 10 * s, 13 * s + s / 2, s);
  // Window 0: 200 of the first + 30 + 50 of the spread one; window 1: 100;
  // window 2: 50. The call ending after the last whole window is left out.
  Check(rates.size() == 3, "only whole windows before the stop");
  Check(rates.size() == 3 && Near(rates[0], 280) && Near(rates[1], 100) &&
            Near(rates[2], 50),
        "a call's bytes are shared by the windows it overlaps");
  // Half-second windows: [10, 10.5) s holds 100 + 30 B, 260 B/s.
  Check(Near(sb::WindowRates(calls, 10 * s, 13 * s + s / 2, s / 2)[0], 260),
        "rates are per second");
  Check(sb::WindowRates(calls, 10 * s, 10 * s + s / 2, s).empty(),
        "no window shorter than the phase");
}

sb::Span MakeSpan(const char* name, int64_t start, int64_t end, uint64_t id,
                  uint64_t parent) {
  return {.name = name, .start_ns = start, .end_ns = end, .id = id,
          .parent = parent, .call = 1};
}

double SelfMs(const std::vector<sb::LedgerRow>& rows, const std::string& name) {
  for (const sb::LedgerRow& row : rows) {
    if (row.name == name) return row.self_ms;
  }
  return -1;
}

void TestSelfTime() {
  // Parent [0, 10ms); children [1, 5) and [3, 7) overlap, [9, 12) sticks
  // out past the parent. Covered = [1, 7) + [9, 10) = 7 ms, self = 3 ms.
  const int64_t ms = 1'000'000;
  std::vector<sb::Span> spans = {
      MakeSpan("parent", 0, 10 * ms, 1, 0),
      MakeSpan("child", 1 * ms, 5 * ms, 2, 1),
      MakeSpan("child", 3 * ms, 7 * ms, 3, 1),
      MakeSpan("child", 9 * ms, 12 * ms, 4, 1),
      MakeSpan("grandchild", 2 * ms, 3 * ms, 5, 2),
  };
  const auto rows = sb::SelfTimeLedger(spans);
  Check(Near(SelfMs(rows, "parent"), 3), "parent self time counts overlap once");
  // child self: 4 - 1 (grandchild) + 4 + 3 = 10 ms.
  Check(Near(SelfMs(rows, "child"), 10), "child self time minus grandchild");
  Check(Near(SelfMs(rows, "grandchild"), 1), "leaf self time is its duration");
  // A child entirely covering its parent leaves zero self time.
  const auto nested = sb::SelfTimeLedger({MakeSpan("outer", 0, 5, 1, 0),
                                          MakeSpan("inner", 0, 5, 2, 1),
                                          MakeSpan("inner", 1, 4, 3, 1)});
  Check(Near(SelfMs(nested, "outer"), 0), "fully covered parent has no self time");
}

sb::StreamDigest DigestOf(const std::vector<jbs::mr::Record>& records) {
  sb::StreamDigest digest;
  for (const auto& r : records) digest.Add(r.key, r.value);
  return digest;
}

void TestDigest() {
  // Two map outputs sharing key "b": the merge must keep map 0's "b"
  // records (in their order) before map 1's.
  const std::vector<std::vector<jbs::mr::Record>> sources = {
      {{"a", "m0-1"}, {"b", "m0-2"}, {"b", "m0-3"}, {"d", "m0-4"}},
      {{"b", "m1-1"}, {"c", "m1-2"}},
  };
  std::vector<jbs::mr::Record> merged = {{"a", "m0-1"}, {"b", "m0-2"},
                                         {"b", "m0-3"}, {"b", "m1-1"},
                                         {"c", "m1-2"}, {"d", "m0-4"}};
  const sb::StreamDigest reference = sb::ReferenceDigest(sources);
  Check(DigestOf(merged) == reference, "stable merge order matches reference");
  Check(reference.records() == 6, "reference counts every record");

  std::vector<jbs::mr::Record> swapped = merged;
  std::swap(swapped[2], swapped[3]);  // equal keys, sources out of order
  Check(!(DigestOf(swapped) == reference), "swapped equal-key pair is caught");

  std::vector<jbs::mr::Record> dropped = merged;
  dropped.erase(dropped.begin() + 4);
  Check(!(DigestOf(dropped) == reference), "dropped record is caught");

  std::vector<jbs::mr::Record> altered = merged;
  altered[5].value = "m0-5";
  Check(!(DigestOf(altered) == reference), "altered value is caught");
}

void TestGenerator() {
  for (const sb::WorkloadSpec& spec : sb::Workloads()) {
    const sb::SegmentGenerator a(spec, 7);
    const sb::SegmentGenerator b(spec, 7);
    const sb::SegmentGenerator c(spec, 8);
    const auto seg = a.Generate(1, 2);
    bool sorted = true;
    for (size_t i = 1; i < seg.size(); ++i) sorted &= !(seg[i].key < seg[i - 1].key);
    Check(seg.size() == static_cast<size_t>(spec.records_per_segment) && sorted,
          spec.name + ": segment sorted and sized");
    Check(seg == b.Generate(1, 2), spec.name + ": same seed, same records");
    Check(!(seg == c.Generate(1, 2)), spec.name + ": other seed, other records");
  }
  // terasort-http serves exactly terasort-bulk's inputs.
  const sb::SegmentGenerator bulk(*sb::FindWorkload("terasort-bulk"), 3);
  const sb::SegmentGenerator http(*sb::FindWorkload("terasort-http"), 3);
  Check(bulk.Generate(0, 5) == http.Generate(0, 5),
        "terasort-http inputs equal terasort-bulk inputs");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestWindowRates();
  TestSelfTime();
  TestDigest();
  TestGenerator();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}
