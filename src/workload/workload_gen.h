// Synthetic transaction workloads for tests and benches: configurable
// transaction size, read fraction and access skew (zipf). Reads are placed
// before writes and items are distinct within one transaction (the DM
// serves read-own-write from staging, but ordering reads first keeps the
// logical READ-FROM analysis crisp).
#pragma once

#include <optional>

#include "common/config.h"
#include "common/random.h"
#include "txn/txn.h"

namespace ddbs {

struct WorkloadParams {
  int ops_per_txn = 4;
  double read_fraction = 0.5;
  double zipf_theta = 0.0; // 0 = uniform
  int64_t n_items = 0;     // 0 = take from Config at construction
};

class WorkloadGen {
 public:
  WorkloadGen(const Config& cfg, WorkloadParams params, uint64_t seed);

  // Next transaction body; `origin` chosen by the caller.
  std::vector<LogicalOp> next();

  // A transfer-style transaction: read two items, write both (used by the
  // bank example and contention tests).
  std::vector<LogicalOp> next_transfer();

 private:
  ItemId pick_item();

  WorkloadParams params_;
  Rng rng_;
  std::optional<ZipfGen> zipf_; // only when zipf_theta > 0
  int64_t value_counter_ = 0;
};

} // namespace ddbs
