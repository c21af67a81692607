// The benchmark's workloads and their seeded input generator. Every input
// record comes from here; the program under test only sees the MOFs built
// from these records.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mapred/types.h"

namespace shufflebench {

enum class Shape {
  kTeraSort,  // 10-byte uniform binary key, 90-byte payload, range-partitioned
  kZipfText,  // zipf-distributed words, repetitive text values, hash-partitioned
};

struct WorkloadSpec {
  std::string name;
  Shape shape = Shape::kTeraSort;
  int partitions = 0;           // reduce partitions per MOF
  int records_per_segment = 0;  // records in every (map, partition) segment
  bool http = false;            // baseline HTTP shuffle instead of JBS
  bool wire_compress = false;   // supplier-side negotiated wire compression
};

/// Supplier nodes; each serves one map's MOF (re-published under a fresh
/// map id every round, see main.cpp).
inline constexpr int kSuppliers = 4;
/// Closed-loop reducer threads.
inline constexpr int kReducers = 4;
/// NetMerger chunk payload: the transport buffer minus the data header, as
/// the JBS plugin configures it.
inline constexpr size_t kBufferSize = 128 * 1024;

const std::vector<WorkloadSpec>& Workloads();
/// nullptr when `name` is not a workload.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Deterministic record source: the same (spec, seed, map, partition)
/// always yields the same records. Segments are generated independently,
/// so a reference for one partition never needs the whole dataset.
class SegmentGenerator {
 public:
  SegmentGenerator(const WorkloadSpec& spec, uint64_t seed);

  /// Records of segment (map, partition), sorted by key; equal keys keep
  /// generation order (a stable map-side sort).
  std::vector<jbs::mr::Record> Generate(int map, int partition) const;

 private:
  struct ZipfPartition {
    std::vector<double> cumulative;  // running weight over `words`
    std::vector<uint32_t> words;     // vocabulary ranks owned by the partition
  };

  void GenerateTera(uint64_t* state, int map, int partition,
                    std::vector<jbs::mr::Record>* out) const;
  void GenerateZipf(uint64_t* state, int map, int partition,
                    std::vector<jbs::mr::Record>* out) const;

  WorkloadSpec spec_;
  uint64_t seed_;
  std::vector<std::string> vocabulary_;      // zipf only
  std::vector<ZipfPartition> zipf_;          // zipf only, one per partition
};

}  // namespace shufflebench
