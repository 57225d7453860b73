#include "workload/workload_gen.h"

#include <algorithm>
#include <set>

namespace ddbs {

WorkloadGen::WorkloadGen(const Config& cfg, WorkloadParams params,
                         uint64_t seed)
    : params_(params), rng_(seed) {
  if (params_.n_items <= 0) params_.n_items = cfg.n_items;
  // The CDF has one entry per item; a uniform client never samples it.
  if (params_.zipf_theta > 0) {
    zipf_.emplace(params_.n_items, params_.zipf_theta);
  }
}

ItemId WorkloadGen::pick_item() {
  if (!zipf_) return rng_.uniform(0, params_.n_items - 1);
  return zipf_->sample(rng_);
}

std::vector<LogicalOp> WorkloadGen::next() {
  std::set<ItemId> items;
  while (static_cast<int>(items.size()) < params_.ops_per_txn &&
         static_cast<int64_t>(items.size()) < params_.n_items) {
    items.insert(pick_item());
  }
  std::vector<LogicalOp> reads;
  std::vector<LogicalOp> writes;
  for (ItemId x : items) {
    if (rng_.bernoulli(params_.read_fraction)) {
      reads.push_back(LogicalOp{OpKind::kRead, x, 0});
    } else {
      writes.push_back(LogicalOp{OpKind::kWrite, x, ++value_counter_});
    }
  }
  if (reads.empty() && writes.empty()) {
    writes.push_back(LogicalOp{OpKind::kWrite, pick_item(), ++value_counter_});
  }
  reads.insert(reads.end(), writes.begin(), writes.end());
  return reads;
}

std::vector<LogicalOp> WorkloadGen::next_transfer() {
  ItemId a = pick_item();
  ItemId b = pick_item();
  while (b == a) b = pick_item();
  if (b < a) std::swap(a, b);
  return {LogicalOp{OpKind::kRead, a, 0}, LogicalOp{OpKind::kRead, b, 0},
          LogicalOp{OpKind::kWrite, a, ++value_counter_},
          LogicalOp{OpKind::kWrite, b, ++value_counter_}};
}

} // namespace ddbs
