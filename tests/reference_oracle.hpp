// Test-only reference for DirectoryOracle: the membership scan it used
// before the overlay kept a sampling index. A reservoir-of-one over
// every node passing DirectoryOracle::eligible, one RNG draw per
// eligible candidate: obviously uniform, and O(n) per query.
#pragma once

#include <cstdint>
#include <optional>

#include "core/oracle.hpp"

namespace lagover {

class ScanReferenceOracle final : public Oracle {
 public:
  explicit ScanReferenceOracle(OracleKind kind) : kind_(kind) {}

  OracleKind kind() const noexcept override { return kind_; }

 private:
  std::optional<NodeId> sample_impl(NodeId querier, const Overlay& overlay,
                                    Rng& rng) override {
    std::optional<NodeId> chosen;
    std::uint64_t seen = 0;
    for (NodeId id = 1; id < overlay.node_count(); ++id) {
      if (!DirectoryOracle::eligible(kind_, querier, id, overlay)) continue;
      ++seen;
      if (rng.next_below(seen) == 0) chosen = id;
    }
    return chosen;
  }

  OracleKind kind_;
};

}  // namespace lagover
