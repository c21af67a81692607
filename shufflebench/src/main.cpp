// End-to-end shuffle benchmark. Four in-process supplier nodes serve seeded
// MOFs over TCP loopback to a closed loop of reducer threads; each reducer
// call runs ShuffleClient::FetchAndMerge and drains the merged stream, and
// every merged partition is checked against a reference digest computed
// from the generated records.
//
//   shufflebench --workload terasort-bulk --seed 1 --seconds 10 --trace 0
//
// Prints one "name = value unit" line per metric and, last, a line
// "RESULT {json}" with every metric (run.py turns it into the benchmark
// result). Exits 1 if any call failed, any digest mismatched or, in a traced
// run, the untraced and traced phases disagree on a deterministic count.
#include <sys/resource.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/http_shuffle.h"
#include "common/framing.h"
#include "digest.h"
#include "jbs/mof_supplier.h"
#include "jbs/net_merger.h"
#include "jbs/protocol.h"
#include "mapred/ifile.h"
#include "mapred/mof.h"
#include "probes.h"
#include "spans.h"
#include "transport/transport.h"
#include "workload.h"

namespace shufflebench {
namespace {

namespace fs = std::filesystem;
namespace mr = jbs::mr;
namespace shuffle = jbs::shuffle;
namespace baseline = jbs::baseline;
using jbs::Status;

constexpr int kSetups = 5;  // set-ups per run; setup_s is their median
// shuffle_mbs is the median of the phase's throughput in windows this long,
// so a stretch of the run slowed by other load on the machine moves it only
// once it covers half the phase.
constexpr int64_t kRateWindowNs = 500'000'000;
constexpr size_t kMinRateWindows = 3;  // fewer: the whole phase's rate
// Upper bounds on what a run can consume, used to size the map-id aliases
// published up front (see Deployment): logical bytes and calls per second.
constexpr double kMaxBytesPerSec = 3e9;
constexpr double kMaxCallsPerSec = 30000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path workdir;
};

bool ParseArgs(int argc, char** argv, Args* args) try {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->workdir.empty() &&
         args->seconds > 0;
} catch (const std::exception&) {  // std::stoull / std::stod on a bad value
  return false;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Accumulates the wall time of program calls (set-up excludes the
// benchmark's own record generation between them).
class CallTimer {
 public:
  explicit CallTimer(int64_t* total_ns) : total_ns_(total_ns), start_(NowNs()) {}
  ~CallTimer() { *total_ns_ += NowNs() - start_; }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  int64_t* total_ns_;
  int64_t start_;
};

struct SetupTimes {
  int64_t mof_write_ns = 0;
  int64_t start_ns = 0;    // server construction + Start
  int64_t publish_ns = 0;  // every PublishMof
  double total_s() const { return Seconds(mof_write_ns + start_ns + publish_ns); }
};

// The serving side of one run: one MOF per supplier node, published under
// `rounds` map ids (round k serves map m as map k * kSuppliers + m). Every
// round therefore fetches each chunk under a key no earlier round used, so
// the supplier's per-chunk memos see only the hits a real job would.
struct Deployment {
  std::unique_ptr<jbs::net::Transport> transport;  // outlives the servers
  std::vector<std::unique_ptr<shuffle::MofSupplier>> suppliers;
  std::vector<std::unique_ptr<baseline::HttpShuffleServer>> http_servers;
  std::vector<mr::MofHandle> handles;  // one per map, as written
  std::vector<uint16_t> ports;

  std::vector<mr::MofLocation> Sources(int round) const {
    std::vector<mr::MofLocation> sources;
    for (int m = 0; m < kSuppliers; ++m) {
      sources.push_back({.map_task = round * kSuppliers + m,
                         .node = m,
                         .host = "127.0.0.1",
                         .port = ports[static_cast<size_t>(m)]});
    }
    return sources;
  }
};

Status SyncFile(const fs::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return jbs::IoError("open " + path.string());
  const int rc = ::fdatasync(fd);
  ::close(fd);
  return rc == 0 ? Status::Ok() : jbs::IoError("fdatasync " + path.string());
}

// Writes the MOFs and starts the servers. `partition_bytes[p]` receives the
// logical (uncompressed IFile) bytes one call for partition p delivers.
jbs::StatusOr<std::unique_ptr<Deployment>> Deploy(
    const WorkloadSpec& spec, const SegmentGenerator& generator,
    const fs::path& dir, int rounds, SpanLog& spans, SetupTimes* times,
    std::vector<uint64_t>* partition_bytes) {
  auto dep = std::make_unique<Deployment>();
  partition_bytes->assign(static_cast<size_t>(spec.partitions), 0);
  for (int m = 0; m < kSuppliers; ++m) {
    mr::MofWriter writer(dir / ("map" + std::to_string(m)));
    for (int p = 0; p < spec.partitions; ++p) {
      const std::vector<mr::Record> records = generator.Generate(m, p);
      CallTimer timer(&times->mof_write_ns);
      ScopedSpan span(spans, "mapred.MofWriter", 0, 0);
      mr::IFileWriter segment_writer;
      for (const mr::Record& record : records) {
        segment_writer.Append(record.key, record.value);
      }
      const std::vector<uint8_t> segment = segment_writer.Finish();
      (*partition_bytes)[static_cast<size_t>(p)] += segment.size();
      JBS_RETURN_IF_ERROR(writer.AppendSegment(segment, records.size()));
    }
    jbs::StatusOr<mr::MofHandle> handle = [&] {
      CallTimer timer(&times->mof_write_ns);
      ScopedSpan span(spans, "mapred.MofWriter", 0, 0);
      return writer.Finish(m, m);
    }();
    JBS_RETURN_IF_ERROR(handle.status());
    dep->handles.push_back(*handle);
  }
  // Flush outside the timed calls, so writeback cannot land in the timed
  // phase; the pages stay cached (the workloads run on a warm cache).
  for (const mr::MofHandle& handle : dep->handles) {
    JBS_RETURN_IF_ERROR(SyncFile(handle.data_path));
    JBS_RETURN_IF_ERROR(SyncFile(handle.index_path));
  }

  const auto publish = [&](mr::ShuffleServer& server, int m) -> Status {
    CallTimer timer(&times->publish_ns);
    ScopedSpan span(spans, spec.http ? "baseline.HttpShuffleServer.PublishMof"
                                     : "jbs.supplier.PublishMof",
                    0, 0);
    for (int k = 0; k < rounds; ++k) {
      mr::MofHandle alias = dep->handles[static_cast<size_t>(m)];
      alias.map_task = k * kSuppliers + m;
      JBS_RETURN_IF_ERROR(server.PublishMof(alias));
    }
    return Status::Ok();
  };
  if (!spec.http) dep->transport = jbs::net::MakeTcpTransport();
  for (int m = 0; m < kSuppliers; ++m) {
    mr::ShuffleServer* server = nullptr;
    {
      CallTimer timer(&times->start_ns);
      if (spec.http) {
        ScopedSpan span(spans, "baseline.HttpShuffleServer.Start", 0, 0);
        dep->http_servers.push_back(std::make_unique<baseline::HttpShuffleServer>(
            baseline::HttpShuffleServer::Options{
                .penalty = baseline::JvmPenalty::None()}));
        server = dep->http_servers.back().get();
        JBS_RETURN_IF_ERROR(server->Start());
      } else {
        ScopedSpan span(spans, "jbs.supplier.Start", 0, 0);
        shuffle::MofSupplier::Options options;
        options.transport = dep->transport.get();
        options.wire_compress = spec.wire_compress;
        dep->suppliers.push_back(std::make_unique<shuffle::MofSupplier>(options));
        server = dep->suppliers.back().get();
        JBS_RETURN_IF_ERROR(server->Start());
      }
    }
    dep->ports.push_back(server->port());
    JBS_RETURN_IF_ERROR(publish(*server, m));
  }
  return dep;
}

struct Plan {
  const WorkloadSpec* spec = nullptr;
  const Deployment* deployment = nullptr;
  std::vector<StreamDigest> reference;   // per partition
  std::vector<uint64_t> partition_bytes;  // logical bytes per call
};

struct PhaseResult {
  int rounds = 0;
  uint64_t calls = 0;
  uint64_t failed = 0;
  uint64_t records = 0;
  uint64_t logical_bytes = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> call_ms;
  std::vector<double> window_mbs;          // see kRateWindowNs
  std::vector<double> fetch_and_merge_ms;  // traced phase only
  double drain_s = 0;                      // traced phase only
  double drain_cpu_s = 0;                  // traced phase only
  std::vector<std::string> errors;         // first few failure reasons

  double logical_mb() const { return static_cast<double>(logical_bytes) / 1e6; }
  double whole_mbs() const { return wall_s > 0 ? logical_mb() / wall_s : 0; }
  double mbs() const {
    return window_mbs.size() >= kMinRateWindows ? Median(window_mbs) : whole_mbs();
  }

  // Folds in one reducer's tallies (rounds, wall and CPU time are the
  // phase's, not a reducer's).
  void Add(PhaseResult&& other) {
    calls += other.calls;
    failed += other.failed;
    records += other.records;
    logical_bytes += other.logical_bytes;
    call_ms.insert(call_ms.end(), other.call_ms.begin(), other.call_ms.end());
    fetch_and_merge_ms.insert(fetch_and_merge_ms.end(),
                              other.fetch_and_merge_ms.begin(),
                              other.fetch_and_merge_ms.end());
    drain_s += other.drain_s;
    drain_cpu_s += other.drain_cpu_s;
    for (std::string& e : other.errors) {
      if (errors.size() < 5) errors.push_back(std::move(e));
    }
  }
};

// One reducer thread's tallies, merged after the phase.
struct ReducerTally {
  PhaseResult result;
  std::vector<Completion> completions;  // successful calls
  int64_t last_end_ns = 0;
  int64_t drain_ns = 0;
  int64_t drain_cpu_ns = 0;
};

void ReduceCall(mr::ShuffleClient& client, const Plan& plan, int round,
                int partition, uint64_t call, SpanLog& spans,
                ReducerTally* tally) {
  const bool traced = spans.enabled();
  const char* fam_name = plan.spec->http ? "baseline.MofCopierClient.FetchAndMerge"
                                         : "jbs.merger.FetchAndMerge";
  std::string error;
  StreamDigest digest;
  const int64_t start = NowNs();
  {
    ScopedSpan root(spans, "bench.reduce_call", 0, call);
    jbs::StatusOr<std::unique_ptr<mr::RecordStream>> stream = [&] {
      ScopedSpan span(spans, fam_name, root.id(), call);
      return client.FetchAndMerge(partition, plan.deployment->Sources(round));
    }();
    const int64_t merged = NowNs();
    if (traced) {
      tally->result.fetch_and_merge_ms.push_back(
          static_cast<double>(merged - start) / 1e6);
    }
    if (!stream.ok()) {
      error = stream.status().ToString();
    } else {
      ScopedSpan span(spans, "mapred.RecordStream.drain", root.id(), call);
      const int64_t cpu_start = traced ? ThreadCpuNs() : 0;
      std::unique_ptr<mr::RecordStream> records = std::move(stream).value();
      mr::Record record;
      while (records->Next(&record)) digest.Add(record.key, record.value);
      if (!records->status().ok()) {
        error = "stream: " + records->status().ToString();
      } else if (!(digest == plan.reference[static_cast<size_t>(partition)])) {
        error = "digest mismatch on partition " + std::to_string(partition) +
                " (" + std::to_string(digest.records()) + " records, expected " +
                std::to_string(
                    plan.reference[static_cast<size_t>(partition)].records()) +
                ")";
      }
      records.reset();  // freeing the segments is part of the call
      if (traced) {
        tally->drain_cpu_ns += ThreadCpuNs() - cpu_start;
        tally->drain_ns += NowNs() - merged;
      }
    }
  }
  const int64_t end = NowNs();
  PhaseResult& result = tally->result;
  result.calls += 1;
  result.call_ms.push_back(static_cast<double>(end - start) / 1e6);
  tally->last_end_ns = end;
  if (!error.empty()) {
    result.failed += 1;
    if (result.errors.size() < 3) result.errors.push_back(error);
    return;
  }
  const uint64_t bytes = plan.partition_bytes[static_cast<size_t>(partition)];
  result.records += digest.records();
  result.logical_bytes += bytes;
  tally->completions.push_back({start, end, bytes});
}

// Decides when a phase stops so that every reducer completes the same
// rounds: once the deadline has passed, no round starts beyond the highest
// one some reducer has already started (and at least one round runs).
class RoundGate {
 public:
  RoundGate(int first_round, int end_round, int64_t deadline_ns)
      : first_round_(first_round),
        stop_round_(end_round),
        max_started_(first_round - 1),
        deadline_ns_(deadline_ns) {}

  /// True if the calling reducer should run `round`.
  bool Begin(int round) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_ && max_started_ >= first_round_ && NowNs() >= deadline_ns_) {
      stopping_ = true;
      stop_round_ = std::min(stop_round_, max_started_ + 1);
    }
    if (round >= stop_round_) return false;
    max_started_ = std::max(max_started_, round);
    return true;
  }

  /// Rounds every reducer completed, once all have returned.
  int rounds() const { return stop_round_ - first_round_; }

 private:
  const int first_round_;
  std::mutex mu_;
  int stop_round_;  // guarded by mu_
  int max_started_;  // guarded by mu_
  bool stopping_ = false;  // guarded by mu_
  const int64_t deadline_ns_;
};

// Closed loop: each reducer issues its next call only after draining the
// previous stream, and partitions go to reducers round-robin. Reducers are
// not synchronized between rounds; RoundGate makes them all stop after the
// same round, so every phase is a whole number of identical rounds.
// Runs rounds [first_round, end_round) until `seconds` have passed.
PhaseResult RunPhase(mr::ShuffleClient& client, const Plan& plan,
                     int first_round, int end_round, double seconds,
                     SpanLog& spans, std::atomic<uint64_t>* call_ids) {
  PhaseResult total;
  if (first_round >= end_round) return total;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  RoundGate gate(first_round, end_round, deadline);
  std::vector<ReducerTally> tallies(kReducers);
  const double cpu_start = ProcessCpuSeconds();
  std::vector<std::thread> reducers;
  for (int t = 0; t < kReducers; ++t) {
    reducers.emplace_back([&, t] {
      for (int round = first_round; gate.Begin(round); ++round) {
        for (int p = t; p < plan.spec->partitions; p += kReducers) {
          ReduceCall(client, plan, round, p, call_ids->fetch_add(1) + 1, spans,
                     &tallies[static_cast<size_t>(t)]);
        }
      }
    });
  }
  for (std::thread& reducer : reducers) reducer.join();
  total.cpu_s = ProcessCpuSeconds() - cpu_start;
  total.rounds = gate.rounds();
  int64_t end = start;
  std::vector<Completion> completions;
  for (ReducerTally& tally : tallies) {
    end = std::max(end, tally.last_end_ns);
    tally.result.drain_s = Seconds(tally.drain_ns);
    tally.result.drain_cpu_s = Seconds(tally.drain_cpu_ns);
    total.Add(std::move(tally.result));
    completions.insert(completions.end(), tally.completions.begin(),
                       tally.completions.end());
  }
  total.wall_s = Seconds(end - start);
  // Windows end by the deadline: after it, reducers that finished the last
  // round idle while the others complete it.
  for (double rate : WindowRates(completions, start, std::min(end, deadline),
                                 kRateWindowNs)) {
    total.window_mbs.push_back(rate / 1e6);
  }
  return total;
}

// Program counters that accumulate over a run; phases report differences.
using Counters = std::map<std::string, double>;

Counters ReadCounters(const mr::ShuffleClient& client, const Deployment& dep) {
  Counters c;
  c["copy_bytes"] = static_cast<double>(jbs::PayloadCopyBytes());
  if (const auto* merger = dynamic_cast<const shuffle::NetMerger*>(&client)) {
    const shuffle::NetMerger::MergerStats s = merger->merger_stats();
    c["m.fetches"] = static_cast<double>(s.fetches);
    c["m.chunks"] = static_cast<double>(s.chunks);
    c["m.node_switches"] = static_cast<double>(s.node_switches);
    c["m.retries"] = static_cast<double>(s.fetch_retries);
    c["m.pushbacks"] = static_cast<double>(s.pushbacks);
    c["m.chunks_corrupt"] = static_cast<double>(s.chunks_corrupt);
    c["m.fetch_errors"] = static_cast<double>(s.fetch_errors);
    c["m.connections_opened"] = static_cast<double>(s.connections_opened);
    const jbs::net::ConnectionManager::Stats conn = merger->connection_stats();
    c["t.conn_hits"] = static_cast<double>(conn.hits);
    c["t.conn_misses"] = static_cast<double>(conn.misses);
    c["t.dial_failures"] = static_cast<double>(conn.dial_failures);
  }
  if (const auto* copier =
          dynamic_cast<const baseline::MofCopierClient*>(&client)) {
    c["b.connections_opened"] =
        static_cast<double>(copier->stats().connections_opened);
    c["b.spills"] = static_cast<double>(copier->spills());
  }
  for (const auto& server : dep.http_servers) {
    c["b.requests"] += static_cast<double>(server->stats().requests);
  }
  const jbs::MetricLabels labels{{"server", "mofsupplier"}};
  for (const auto& supplier : dep.suppliers) {
    const shuffle::MofSupplier::SupplierStats s = supplier->supplier_stats();
    const auto registry = [&](const char* name) {
      return static_cast<double>(
          supplier->metrics().GetCounter(name, labels)->value());
    };
    c["s.requests"] += static_cast<double>(s.requests);
    c["s.batches"] += static_cast<double>(s.batches);
    c["s.group_switches"] += static_cast<double>(s.group_switches);
    c["s.shed"] += static_cast<double>(s.shed);
    c["s.bytes_logical"] += static_cast<double>(s.bytes_logical);
    c["s.bytes_wire"] += static_cast<double>(s.bytes_wire);
    c["s.chunks_compressed"] += static_cast<double>(s.chunks_compressed);
    c["s.compress_bailouts"] += static_cast<double>(s.compress_bailouts);
    c["s.fd_hits"] += static_cast<double>(s.fd.hits);
    c["s.fd_misses"] += static_cast<double>(s.fd.misses);
    c["s.index_hits"] += static_cast<double>(s.index.hits);
    c["s.index_misses"] += static_cast<double>(s.index.misses);
    c["s.crc_hits"] += registry("jbs_mofsupplier_crc_cache_hits_total");
    c["s.crc_misses"] += registry("jbs_mofsupplier_crc_cache_misses_total");
    c["s.compress_hits"] += registry("jbs_mofsupplier_compress_cache_hits_total");
    c["s.compress_misses"] +=
        registry("jbs_mofsupplier_compress_cache_misses_total");
    c["s.latency_sum"] += s.request_latency_ms.sum();
    c["s.latency_count"] += static_cast<double>(s.request_latency_ms.count());
    c["s.latency_max"] = std::max(c["s.latency_max"], s.request_latency_ms.max());
  }
  return c;
}

// Reads the counters once they have settled: a supplier counts a chunk
// after handing it to the transport, which can be after the merger has
// received it, so the last increments of a phase may trail its end.
Counters SettledCounters(const mr::ShuffleClient& client, const Deployment& dep) {
  Counters c = ReadCounters(client, dep);
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Counters again = ReadCounters(client, dep);
    if (again == c) break;
    c = std::move(again);
  }
  return c;
}

Counters Delta(const Counters& before, const Counters& after) {
  Counters d;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    d[name] = value - (it == before.end() ? 0.0 : it->second);
  }
  return d;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// The totals behind the quantities that must repeat exactly for a fixed
// seed: mapred.records_merged, jbs.merger.chunks,
// jbs.supplier.wire_bytes_per_logical_byte (wire over logical bytes) and
// common.payload_copy_bytes_per_mb (copy bytes over logical bytes).
Counters DeterministicTotals(const PhaseResult& phase, const Counters& c) {
  const auto get = [&](const char* name) {
    auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  return {{"mapred.records_merged", static_cast<double>(phase.records)},
          {"mapred.logical_bytes", static_cast<double>(phase.logical_bytes)},
          {"jbs.merger.chunks", get("m.chunks")},
          {"jbs.supplier.bytes_wire", get("s.bytes_wire")},
          {"jbs.supplier.bytes_logical", get("s.bytes_logical")},
          {"common.payload_copy_bytes", get("copy_bytes")}};
}

// Every round is the same work, so two phases of one run must agree on each
// deterministic total per round. Totals are whole numbers well below 2^53,
// so they are compared cross-multiplied by the other phase's rounds, exactly.
std::vector<std::string> CountDifferences(const PhaseResult& a, const Counters& ca,
                                          const PhaseResult& b, const Counters& cb) {
  if (a.rounds == 0 || b.rounds == 0) return {"a phase ran no whole round"};
  const Counters ta = DeterministicTotals(a, ca);
  const Counters tb = DeterministicTotals(b, cb);
  std::vector<std::string> diffs;
  for (const auto& [name, va] : ta) {
    const double vb = tb.at(name);
    if (va * b.rounds != vb * a.rounds) {
      std::ostringstream line;
      line.precision(17);
      line << name << ": " << va / a.rounds << " per round untraced, "
           << vb / b.rounds << " traced";
      diffs.push_back(line.str());
    }
  }
  return diffs;
}

// Ordered metric list: printed as lines, then as the RESULT object.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
    char line[160];
    std::snprintf(line, sizeof line, "  %-44s %16.6f %s", name.c_str(), value,
                  unit.c_str());
    std::cout << line << "\n";
  }
  std::string Json() const {
    std::ostringstream out;
    out.precision(17);
    out << "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      out << (i ? ", " : "") << "\"" << metrics_[i].name
          << "\": {\"value\": " << metrics_[i].value << ", \"unit\": \""
          << metrics_[i].unit << "\"}";
    }
    out << "}";
    return out.str();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// Chunk-sized pieces of map 0's MOF data file (at most 8 MB), for the
// replay probes.
std::vector<std::vector<uint8_t>> ReplayChunks(const mr::MofHandle& handle) {
  std::ifstream in(handle.data_path, std::ios::binary);
  std::vector<std::vector<uint8_t>> chunks;
  const size_t chunk = kBufferSize - shuffle::kDataHeaderSize;
  for (size_t total = 0; total < (8u << 20); total += chunk) {
    std::vector<uint8_t> bytes(chunk);
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(chunk));
    bytes.resize(static_cast<size_t>(in.gcount()));
    if (bytes.empty()) break;
    chunks.push_back(std::move(bytes));
  }
  return chunks;
}

void PrintLedger(const std::vector<Span>& spans) {
  std::cout << "per-layer self-time ledger (traced phase, set-up and probes):\n";
  char line[200];
  std::snprintf(line, sizeof line, "  %-42s %9s %12s %12s\n", "span", "count",
                "total_ms", "self_ms");
  std::cout << line;
  for (const LedgerRow& row : SelfTimeLedger(spans)) {
    std::snprintf(line, sizeof line, "  %-42s %9llu %12.3f %12.3f\n",
                  row.name.c_str(), static_cast<unsigned long long>(row.count),
                  row.total_ms, row.self_ms);
    std::cout << line;
  }
}

std::unique_ptr<mr::ShuffleClient> MakeClient(const WorkloadSpec& spec,
                                              const Deployment& dep,
                                              const fs::path& workdir) {
  if (spec.http) {
    baseline::MofCopierClient::Options options;
    options.penalty = baseline::JvmPenalty::None();
    options.spill_dir = workdir / "spill";
    return std::make_unique<baseline::MofCopierClient>(options);
  }
  shuffle::NetMerger::Options options;
  options.transport = dep.transport.get();
  options.chunk_size = kBufferSize - shuffle::kDataHeaderSize;
  return std::make_unique<shuffle::NetMerger>(options);
}

// What one run measured on its last deployment.
struct Measurement {
  PhaseResult warmup;
  PhaseResult main;    // tracing off
  PhaseResult traced;  // traced runs only
  Counters main_counters;    // program counters over `main`, traced runs only
  Counters traced_counters;  // program counters over the traced phase
  Counters totals;           // program counters at the end of the run
};

// Serves `dep` to a fresh client: an untimed warm-up round, then the timed
// phase. A traced run splits its time, first half untraced and second half
// traced, so the difference in throughput is the cost of tracing; the
// probes run after both.
Measurement Measure(const Args& args, const Deployment& dep, Plan& plan,
                    int rounds, SpanLog& spans, ProbeResults* probes,
                    std::vector<std::string>* probe_errors) {
  Measurement out;
  plan.deployment = &dep;
  std::unique_ptr<mr::ShuffleClient> client =
      MakeClient(*plan.spec, dep, args.workdir);
  std::atomic<uint64_t> call_ids{0};
  SpanLog untraced(false);
  out.warmup = RunPhase(*client, plan, 0, 1, 0, untraced, &call_ids);
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const Counters before_main =
      args.trace ? SettledCounters(*client, dep) : Counters{};
  out.main = RunPhase(*client, plan, 1, rounds, untraced_seconds, untraced,
                      &call_ids);
  if (args.trace) {
    const Counters before = SettledCounters(*client, dep);
    out.main_counters = Delta(before_main, before);
    out.traced = RunPhase(*client, plan, 1 + out.main.rounds, rounds,
                          args.seconds / 2, spans, &call_ids);
    out.traced_counters = Delta(before, SettledCounters(*client, dep));
  }
  if (1 + out.main.rounds + out.traced.rounds >= rounds) {
    std::cout << "note: all " << rounds
              << " published rounds used before the time was up\n";
  }
  out.totals = ReadCounters(*client, dep);
  if (args.trace) {
    const auto note = [&](const char* what, const Status& s) {
      if (!s.ok()) probe_errors->push_back(std::string(what) + ": " + s.ToString());
    };
    note("transport probe", ProbeTransport(spans, probes));
    note("one-chunk probe", ProbeOneChunk(dep.handles[0], 0, spans, probes));
    note("replay probe", ProbeReplay(ReplayChunks(dep.handles[0]), spans, probes));
  }
  client->Stop();
  plan.deployment = nullptr;
  return out;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::error_code ec;
  fs::remove_all(args.workdir, ec);
  fs::create_directories(args.workdir / "spill");
  std::cout << "workload " << spec->name << " seed " << args.seed << " seconds "
            << args.seconds << " trace " << args.trace << "\n";

  // Inputs and their reference digests (benchmark work, never timed).
  const SegmentGenerator generator(*spec, args.seed);
  Plan plan;
  plan.spec = spec;
  for (int p = 0; p < spec->partitions; ++p) {
    std::vector<std::vector<mr::Record>> sources;
    for (int m = 0; m < kSuppliers; ++m) sources.push_back(generator.Generate(m, p));
    plan.reference.push_back(ReferenceDigest(sources));
  }

  // Map-id aliases: enough rounds for the fastest plausible run.
  const double round_bytes_estimate = static_cast<double>(spec->partitions) *
                                      kSuppliers * spec->records_per_segment *
                                      (spec->shape == Shape::kTeraSort ? 102 : 80);
  const double rounds_per_sec =
      std::min(kMaxBytesPerSec / round_bytes_estimate,
               kMaxCallsPerSec / spec->partitions);
  const int rounds = 2 + static_cast<int>(std::ceil(args.seconds * rounds_per_sec));

  // Set up kSetups times (setup_s is their median); the last deployment
  // serves the timed phase. One span log holds set-up, run and probe spans.
  SpanLog spans(args.trace);
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  SetupTimes setup;
  for (int k = 0; k < kSetups; ++k) {
    dep.reset();  // stops the previous set-up's servers first
    setup = SetupTimes{};
    auto deployed = Deploy(*spec, generator, args.workdir, rounds, spans,
                           &setup, &plan.partition_bytes);
    if (!deployed.ok()) {
      std::cerr << "set-up failed: " << deployed.status().ToString() << "\n";
      fs::remove_all(args.workdir, ec);
      return 1;
    }
    dep = std::move(deployed).value();
    setup_s.push_back(setup.total_s());
  }

  ProbeResults probes;
  std::vector<std::string> probe_errors;
  Measurement m = Measure(args, *dep, plan, rounds, spans, &probes, &probe_errors);
  dep.reset();
  const PhaseResult& main = m.main;
  const PhaseResult& traced = m.traced;

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) * 1024 / 1e6;

  const uint64_t attempted = m.warmup.calls + main.calls + traced.calls;
  const uint64_t failed = m.warmup.failed + main.failed + traced.failed;
  std::cout << main.calls << " calls in " << main.rounds << " rounds, "
            << main.wall_s << " s timed";
  if (args.trace) {
    std::cout << "; traced " << traced.calls << " in " << traced.rounds << " rounds";
  }
  std::cout << "; " << failed << " of " << attempted << " calls failed\n";
  for (const PhaseResult* phase : {&m.warmup, &m.main, &m.traced}) {
    for (const std::string& e : phase->errors) std::cout << "  failure: " << e << "\n";
  }
  for (const std::string& e : probe_errors) std::cout << "  failure: " << e << "\n";

  Report report;
  std::cout << "end-to-end metrics (tracing off):\n";
  report.Add("shuffle_mbs", main.mbs(), "MB/s");
  report.Add("cpu_ms_per_mb", Ratio(main.cpu_s * 1e3, main.logical_mb()), "ms/MB");
  report.Add("merge_call_p50_ms", Percentile(main.call_ms, 50), "ms");
  // p99 only with at least 10 samples beyond it (1000 calls); omitted, not
  // estimated, below that.
  if (HighestReportablePercentile(main.call_ms.size()) >= 99) {
    report.Add("merge_call_p99_ms", Percentile(main.call_ms, 99), "ms");
  } else {
    std::cout << "  (merge_call_p99_ms omitted: " << main.calls
              << " calls leave fewer than 10 samples beyond p99)\n";
  }
  report.Add("peak_rss_mb", peak_rss_mb, "MB");
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("error_rate", Ratio(static_cast<double>(failed),
                                 static_cast<double>(attempted)),
             "ratio");

  std::vector<std::string> count_diffs;
  if (args.trace) {
    const double rounds_traced = std::max(1, traced.rounds);
    const double traced_mb = traced.logical_mb();
    const auto per_round = [&](double v) { return v / rounds_traced; };
    Counters& c = m.traced_counters;  // absent counters read as 0
    const auto run_total = [&](const char* name) {
      auto it = m.totals.find(name);
      return it == m.totals.end() ? 0.0 : it->second;
    };
    std::cout << "per-layer metrics (traced phase unless noted):\n";
    report.Add("bench.rounds", traced.rounds, "count");
    report.Add("bench.shuffle_mbs_untraced", main.mbs(), "MB/s");
    report.Add("bench.shuffle_mbs_traced", traced.mbs(), "MB/s");
    report.Add("bench.tracing_overhead_pct",
               100 * (1 - Ratio(traced.mbs(), main.mbs())), "%");
    // Set-up components of the last set-up.
    const double start_ms = static_cast<double>(setup.start_ns) / 1e6;
    const double publish_ms = static_cast<double>(setup.publish_ns) / 1e6;
    report.Add("mapred.mof_write_s", Seconds(setup.mof_write_ns), "s");
    report.Add("jbs.supplier.start_ms", spec->http ? 0 : start_ms, "ms");
    report.Add("jbs.supplier.publish_ms", spec->http ? 0 : publish_ms, "ms");
    report.Add("baseline.start_ms", spec->http ? start_ms : 0, "ms");
    report.Add("baseline.publish_ms", spec->http ? publish_ms : 0, "ms");
    report.Add("mapred.merge_drain_s", traced.drain_s, "s");
    report.Add("mapred.merge_cpu_ms_per_mb",
               Ratio(traced.drain_cpu_s * 1e3, traced_mb), "ms/MB");
    report.Add("mapred.records_merged",
               per_round(static_cast<double>(traced.records)), "count");
    const double fam_s = std::accumulate(traced.fetch_and_merge_ms.begin(),
                                         traced.fetch_and_merge_ms.end(), 0.0) /
                         1e3;
    const double fam_p50 = Percentile(traced.fetch_and_merge_ms, 50);
    report.Add("jbs.merger.fetch_and_merge_s", spec->http ? 0 : fam_s, "s");
    report.Add("jbs.merger.fetch_and_merge_p50_ms", spec->http ? 0 : fam_p50, "ms");
    report.Add("jbs.merger.fetches", per_round(c["m.fetches"]), "count");
    report.Add("jbs.merger.chunks", per_round(c["m.chunks"]), "count");
    report.Add("jbs.merger.chunks_per_fetch", Ratio(c["m.chunks"], c["m.fetches"]),
               "count");
    report.Add("jbs.merger.node_switches", per_round(c["m.node_switches"]),
               "count");
    report.Add("jbs.merger.retries", c["m.retries"], "count");
    report.Add("jbs.merger.pushbacks", c["m.pushbacks"], "count");
    report.Add("jbs.merger.chunks_corrupt", c["m.chunks_corrupt"], "count");
    report.Add("jbs.merger.fetch_errors", c["m.fetch_errors"], "count");
    // Connections the merger opened over its whole life.
    report.Add("jbs.merger.connections_opened", run_total("m.connections_opened"),
               "count");
    report.Add("jbs.supplier.requests", per_round(c["s.requests"]), "count");
    report.Add("jbs.supplier.batches", per_round(c["s.batches"]), "count");
    report.Add("jbs.supplier.requests_per_batch",
               Ratio(c["s.requests"], c["s.batches"]), "count");
    report.Add("jbs.supplier.group_switches", per_round(c["s.group_switches"]),
               "count");
    // The supplier's request-latency summary cannot be differenced, so these
    // two cover the run (warm-up and both phases).
    report.Add("jbs.supplier.request_mean_ms",
               Ratio(run_total("s.latency_sum"), run_total("s.latency_count")),
               "ms");
    report.Add("jbs.supplier.request_max_ms", run_total("s.latency_max"), "ms");
    report.Add("jbs.supplier.shed", c["s.shed"], "count");
    report.Add("jbs.supplier.one_chunk_rtt_us", probes.one_chunk_rtt_us, "us");
    report.Add("jbs.supplier.crc_memo_hit_ratio",
               Ratio(c["s.crc_hits"], c["s.crc_hits"] + c["s.crc_misses"]), "ratio");
    report.Add("jbs.supplier.fd_cache_hit_ratio",
               Ratio(c["s.fd_hits"], c["s.fd_hits"] + c["s.fd_misses"]), "ratio");
    report.Add("jbs.supplier.index_cache_hit_ratio",
               Ratio(c["s.index_hits"], c["s.index_hits"] + c["s.index_misses"]),
               "ratio");
    report.Add("jbs.supplier.compress_memo_hit_ratio",
               Ratio(c["s.compress_hits"],
                     c["s.compress_hits"] + c["s.compress_misses"]),
               "ratio");
    report.Add("jbs.supplier.chunks_compressed", per_round(c["s.chunks_compressed"]),
               "count");
    report.Add("jbs.supplier.compress_bailouts", per_round(c["s.compress_bailouts"]),
               "count");
    const double wire_ratio = Ratio(c["s.bytes_wire"], c["s.bytes_logical"]);
    report.Add("jbs.supplier.wire_bytes_per_logical_byte", wire_ratio, "ratio");
    report.Add("transport.connection_reuse_ratio",
               Ratio(c["t.conn_hits"], c["t.conn_hits"] + c["t.conn_misses"]),
               "ratio");
    report.Add("transport.dial_failures", c["t.dial_failures"], "count");
    report.Add("transport.connect_us", probes.connect_us, "us");
    report.Add("transport.echo_rtt_us", probes.echo_rtt_us, "us");
    report.Add("transport.chunk_push_us", probes.chunk_push_us, "us");
    const double copy_per_mb = Ratio(c["copy_bytes"], traced_mb);
    report.Add("common.payload_copy_bytes_per_mb", copy_per_mb, "B/MB");
    report.Add("common.crc32_mbs", probes.crc32_mbs, "MB/s");
    report.Add("common.compress_mbs", probes.compress_mbs, "MB/s");
    report.Add("common.decompress_mbs", probes.decompress_mbs, "MB/s");
    report.Add("baseline.fetch_and_merge_s", spec->http ? fam_s : 0, "s");
    report.Add("baseline.connections_opened", per_round(c["b.connections_opened"]),
               "count");
    report.Add("baseline.requests", per_round(c["b.requests"]), "count");
    report.Add("baseline.spills", c["b.spills"], "count");

    const std::vector<Span> all = spans.spans();
    PrintLedger(all);
    const fs::path trace_path =
        args.workdir.parent_path() /
        ("trace-" + spec->name + "-" + std::to_string(args.seed) + ".jsonl");
    if (WriteSpans(trace_path, all)) {
      std::cout << "spans: " << all.size() << " written to " << trace_path.string()
                << "\n";
    }
    count_diffs = CountDifferences(main, m.main_counters, traced, c);
    for (const std::string& diff : count_diffs) {
      std::cout << "DETERMINISM FLAG: " << diff << "\n";
    }
    if (count_diffs.empty()) {
      std::cout << "deterministic counts: untraced and traced phases agree per "
                   "round\n";
    }
  }

  fs::remove_all(args.workdir, ec);
  const bool correct = failed == 0 && probe_errors.empty() && count_diffs.empty() &&
                       attempted > 0;
  std::cout << "RESULT {\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << report.Json() << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace shufflebench

int main(int argc, char** argv) {
  shufflebench::Args args;
  if (!shufflebench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: shufflebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n";
    return 2;
  }
  return shufflebench::Run(args);
}
