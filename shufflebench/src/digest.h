// Output check: an order-sensitive digest of a record sequence, and the
// reference digest a correct merge must reproduce.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "mapred/types.h"

namespace shufflebench {

/// Order-sensitive digest: swapping two different records, dropping one or
/// changing a byte changes the value (with overwhelming probability).
class StreamDigest {
 public:
  void Add(std::string_view key, std::string_view value);

  uint64_t value() const { return state_; }
  uint64_t records() const { return records_; }
  friend bool operator==(const StreamDigest&, const StreamDigest&) = default;

 private:
  uint64_t state_ = 0x6A09E667F3BCC908ull;
  uint64_t records_ = 0;
};

/// What a merge of `sources` must yield: all records sorted by key, equal
/// keys ordered by source index and then by position within the source —
/// the KWayMerger tie-break (mapred/merger.h) applied to map-sorted inputs.
StreamDigest ReferenceDigest(
    const std::vector<std::vector<jbs::mr::Record>>& sources);

}  // namespace shufflebench
