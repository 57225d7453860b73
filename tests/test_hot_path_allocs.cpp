// Heap allocations per committed transaction on a steady DES run. Lives in
// its own executable because it replaces the global operator new with a
// counting one, which must not leak into the rest of the suite.
//
// The count is marginal: a run of 2 s of simulated time minus a run of
// 1 s, divided by the difference in commits, so cluster set-up, bootstrap
// and warm-up growth of every slab and table cancel out. A fixed seed on
// the single-threaded DES makes both runs, and so both counts, exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/cluster.h"
#include "workload/runner.h"

namespace {
uint64_t g_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
} // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ddbs {
namespace {

struct RunCount {
  uint64_t allocs = 0;
  int64_t commits = 0;
};

// The steady_128 shape (4 clients a site, 2 ops, 70% reads, no faults)
// at 16 sites, so the test stays fast. History recording is off, as
// in the benchmark's steady workload.
RunCount steady_run(SimTime duration) {
  Config cfg;
  cfg.n_sites = 16;
  cfg.n_items = 640;
  cfg.record_history = false;
  Cluster cluster(cfg, 9001);
  cluster.bootstrap();
  RunnerParams rp;
  rp.clients_per_site = 4;
  rp.duration = duration;
  rp.workload.ops_per_txn = 2;
  rp.workload.read_fraction = 0.7;
  Runner runner(cluster, rp, 9001);
  const uint64_t before = g_allocs;
  const RunnerStats stats = runner.run();
  return RunCount{g_allocs - before, stats.committed};
}

TEST(HotPath, AllocationsPerCommitBounded) {
  const RunCount short_run = steady_run(1'000'000);
  const RunCount long_run = steady_run(2'000'000);
  ASSERT_GT(long_run.commits, short_run.commits + 1000);
  const double per_commit =
      static_cast<double>(long_run.allocs - short_run.allocs) /
      static_cast<double>(long_run.commits - short_run.commits);
  std::printf("heap allocations per commit: %.2f (%lld marginal commits)\n",
              per_commit,
              static_cast<long long>(long_run.commits - short_run.commits));
  // At most half of what this run needed with std::function RPC and DM
  // callbacks, copied DM requests, shared_ptr lock chains and a
  // reallocating release_all.
  constexpr double kBeforeAllocsPerCommit = 133.41;
  EXPECT_LE(per_commit, kBeforeAllocsPerCommit / 2);
}

} // namespace
} // namespace ddbs
