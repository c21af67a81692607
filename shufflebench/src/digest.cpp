#include "digest.h"

#include <algorithm>
#include <cstring>

namespace shufflebench {
namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

// Word-at-a-time hash; the digest runs inside the timed drain loop, so it
// must cost little next to the merge itself.
uint64_t HashBytes(std::string_view bytes, uint64_t h) {
  h ^= bytes.size() * 0x9E3779B97F4A7C15ull;
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    h = (h ^ word) * 0x100000001B3ull;
    h ^= h >> 29;
  }
  uint64_t tail = 0;
  if (i < bytes.size()) std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  return Mix(h ^ tail);
}

}  // namespace

void StreamDigest::Add(std::string_view key, std::string_view value) {
  const uint64_t record = HashBytes(value, HashBytes(key, 0x243F6A8885A308D3ull));
  state_ = Mix(state_ ^ record) + ++records_;
}

StreamDigest ReferenceDigest(
    const std::vector<std::vector<jbs::mr::Record>>& sources) {
  std::vector<const jbs::mr::Record*> merged;
  for (const auto& source : sources) {
    for (const auto& record : source) merged.push_back(&record);
  }
  // Concatenation is in (source, position) order, so a stable sort by key
  // is exactly the merge's tie-break.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const jbs::mr::Record* a, const jbs::mr::Record* b) {
                     return jbs::mr::KeyLess(a->key, b->key);
                   });
  StreamDigest digest;
  for (const jbs::mr::Record* record : merged) {
    digest.Add(record->key, record->value);
  }
  return digest;
}

}  // namespace shufflebench
