#include "workload.h"

#include <algorithm>
#include <cmath>

namespace shufflebench {
namespace {

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t SegmentSeed(uint64_t seed, int map, int partition) {
  uint64_t state = seed;
  uint64_t mixed = SplitMix(&state);
  state = mixed ^ (static_cast<uint64_t>(map) << 32) ^
          static_cast<uint32_t>(partition);
  return SplitMix(&state);
}

// Stable across platforms (std::hash is not), so partition ownership of a
// word is part of the workload definition.
uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr int kTeraKeyBytes = 10;
constexpr int kTeraValueBytes = 90;
constexpr size_t kZipfVocabulary = 50000;
constexpr double kZipfExponent = 1.0;
constexpr std::string_view kPhrases[] = {
    "the quick brown fox jumps over the lazy dog ",
    "lorem ipsum dolor sit amet consectetur ",
    "shuffle bytes move from mappers to reducers ",
    "a b c d e f g h i j k l m n o p ",
};

void AppendHex(uint64_t v, int digits, std::string* out) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  for (int i = digits - 1; i >= 0; --i) {
    out->push_back(kHex[(v >> (4 * i)) & 0xF]);
  }
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // ~1 MB raw segments: eight 128 KB chunks per fetch.
      {.name = "terasort-bulk",
       .shape = Shape::kTeraSort,
       .partitions = 16,
       .records_per_segment = 10240},
      // ~32 KB segments: one chunk per fetch, 128 calls per round.
      {.name = "small-fanin",
       .shape = Shape::kTeraSort,
       .partitions = 128,
       .records_per_segment = 320},
      // ~0.5 MB segments of repetitive text, LZSS on the wire.
      {.name = "zipf-wire-compress",
       .shape = Shape::kZipfText,
       .partitions = 16,
       .records_per_segment = 6000,
       .wire_compress = true},
      // terasort-bulk's inputs through the HTTP baseline.
      {.name = "terasort-http",
       .shape = Shape::kTeraSort,
       .partitions = 16,
       .records_per_segment = 10240,
       .http = true},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

SegmentGenerator::SegmentGenerator(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), seed_(seed) {
  if (spec_.shape != Shape::kZipfText) return;
  // Vocabulary of pronounceable-ish words; rank r has weight 1/(r+1)^s.
  uint64_t state = seed ^ 0x766F636162ull;
  vocabulary_.reserve(kZipfVocabulary);
  for (size_t rank = 0; rank < kZipfVocabulary; ++rank) {
    const uint64_t bits = SplitMix(&state);
    const int length = 3 + static_cast<int>(bits % 8);
    std::string word;
    for (int i = 0; i < length; ++i) {
      word.push_back(static_cast<char>('a' + (bits >> (8 + 5 * i)) % 26));
    }
    word += std::to_string(rank % 97);  // keeps words distinct enough
    vocabulary_.push_back(std::move(word));
  }
  // Hash partitioning: each partition samples the zipf law restricted to
  // the words it owns, so every partition holds many equal keys.
  zipf_.resize(static_cast<size_t>(spec_.partitions));
  for (size_t rank = 0; rank < vocabulary_.size(); ++rank) {
    ZipfPartition& part =
        zipf_[Fnv1a(vocabulary_[rank]) % static_cast<uint64_t>(spec_.partitions)];
    const double weight =
        1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
    part.cumulative.push_back(
        (part.cumulative.empty() ? 0.0 : part.cumulative.back()) + weight);
    part.words.push_back(static_cast<uint32_t>(rank));
  }
}

std::vector<jbs::mr::Record> SegmentGenerator::Generate(int map,
                                                        int partition) const {
  uint64_t state = SegmentSeed(seed_, map, partition);
  std::vector<jbs::mr::Record> records;
  records.reserve(static_cast<size_t>(spec_.records_per_segment));
  if (spec_.shape == Shape::kTeraSort) {
    GenerateTera(&state, map, partition, &records);
  } else {
    GenerateZipf(&state, map, partition, &records);
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const jbs::mr::Record& a, const jbs::mr::Record& b) {
                     return jbs::mr::KeyLess(a.key, b.key);
                   });
  return records;
}

void SegmentGenerator::GenerateTera(uint64_t* state, int map, int partition,
                                    std::vector<jbs::mr::Record>* out) const {
  // Range partitioning over the first two key bytes: partition p owns
  // [p * 65536 / P, (p + 1) * 65536 / P).
  const uint64_t lo = static_cast<uint64_t>(partition) * 65536 /
                      static_cast<uint64_t>(spec_.partitions);
  const uint64_t hi = static_cast<uint64_t>(partition + 1) * 65536 /
                      static_cast<uint64_t>(spec_.partitions);
  for (int row = 0; row < spec_.records_per_segment; ++row) {
    jbs::mr::Record record;
    record.key.resize(kTeraKeyBytes);
    const uint64_t prefix = lo + SplitMix(state) % (hi - lo);
    record.key[0] = static_cast<char>(prefix >> 8);
    record.key[1] = static_cast<char>(prefix & 0xFF);
    uint64_t bits = SplitMix(state);
    for (int i = 2; i < kTeraKeyBytes; ++i) {
      record.key[static_cast<size_t>(i)] = static_cast<char>(bits & 0xFF);
      bits >>= 8;
    }
    // TeraGen-style payload: a hex row id, then filler.
    record.value.reserve(kTeraValueBytes);
    AppendHex(static_cast<uint64_t>(map), 8, &record.value);
    AppendHex(static_cast<uint64_t>(partition), 8, &record.value);
    AppendHex(static_cast<uint64_t>(row), 16, &record.value);
    const char filler = static_cast<char>('A' + row % 26);
    record.value.append(kTeraValueBytes - record.value.size(), filler);
    out->push_back(std::move(record));
  }
}

void SegmentGenerator::GenerateZipf(uint64_t* state, int map, int partition,
                                    std::vector<jbs::mr::Record>* out) const {
  const ZipfPartition& part = zipf_[static_cast<size_t>(partition)];
  const double total = part.cumulative.back();
  for (int row = 0; row < spec_.records_per_segment; ++row) {
    const double u = static_cast<double>(SplitMix(state) >> 11) * 0x1.0p-53;
    const size_t index = static_cast<size_t>(
        std::upper_bound(part.cumulative.begin(), part.cumulative.end(),
                         u * total) -
        part.cumulative.begin());
    const uint32_t rank =
        part.words[std::min(index, part.words.size() - 1)];
    jbs::mr::Record record;
    record.key = vocabulary_[rank];
    // The doc id makes equal keys distinguishable, so the merge's
    // tie-break order is checked; the phrases make the value compressible.
    record.value = "doc-" + std::to_string(map) + "-" + std::to_string(row) +
                   " ";
    record.value += kPhrases[rank % 4];
    record.value += kPhrases[(rank / 4) % 4];
    out->push_back(std::move(record));
  }
}

}  // namespace shufflebench
