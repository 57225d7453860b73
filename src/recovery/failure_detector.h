// Timeout-based failure detector. The paper requires that a type-2 control
// transaction is initiated only when the initiator "is sure that the sites
// being claimed down are actually down", which is satisfiable because site
// failures are the only failures (fail-stop, no partitions): a site whose
// transport times out repeatedly is dead.
//
// A Pong with operational=false (site alive but recovering) is NOT grounds
// for declaration -- the site's own type-1 control transaction will fix the
// nominal state.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "common/random.h"
#include "txn/transaction_manager.h"

namespace ddbs {

class FailureDetector {
 public:
  FailureDetector(const CoordinatorEnv& env, TransactionManager& tm);

  void start(); // site became operational
  void stop();  // site crashed / left operational state

  // External hint from a coordinator whose request to `s` timed out:
  // verify immediately instead of waiting for the next tick.
  void suspect(SiteId s);

  // Ping every candidate once and call k with the subset that did not
  // answer. Timeouts on data/lock traffic are ambiguous (lock waits look
  // like death), but pings are served outside the lock manager, so in the
  // fail-stop model an unanswered ping IS death. Every type-2 initiation
  // funnels its suspects through this check -- the paper requires the
  // initiator to be *sure* the claimed sites are down (Section 3.3).
  static void verify_dead(const CoordinatorEnv& env,
                          std::vector<SiteId> candidates,
                          std::function<void(std::vector<SiteId>)> k);

 private:
  void tick();
  // Start a verify chain for `s` unless one is already in flight.
  void begin_verify(SiteId s, int attempts);
  // Close the chain's span and drop the in-flight guard.
  void resolve_verify(SiteId s);
  void verify(SiteId s, int attempts_left);
  void declare(SiteId s);
  void run_declare(std::vector<SiteId> down, int attempt);

  SimTime jittered_interval();
  void metrics_inc_reconcile();

  CoordinatorEnv env_;
  TransactionManager& tm_;
  bool running_ = false;
  uint64_t epoch_ = 0;
  // Consecutive missed periodic pings, indexed by SiteId (sized in start()).
  std::vector<int> misses_;
  std::set<SiteId> declaring_;
  // Sites with a verify chain in flight, mapped to the chain's causal
  // span (0 when span tracing is off). Without this guard every further
  // missed ping past the threshold (and every coordinator suspect() hint)
  // spawned an additional chain toward declare(), multiplying ping
  // traffic and racing the declaration. Cleared when the chain resolves
  // (alive or declared) and on start().
  std::map<SiteId, SpanId> verifying_;
  // Last time each site answered any of our pings. A chain that ends in
  // three timeouts still refuses to declare unless the site has also been
  // silent for a multiple of the detector interval: the paper requires
  // the initiator to be *sure*, and on a lossy transport a recent pong is
  // proof of life while prolonged total silence is death. Indexed by
  // SiteId; kNoTime until the first pong.
  std::vector<SimTime> last_pong_;
  SimTime started_at_ = 0; // silence reference before any pong arrives
  // At most one type-2 in flight per initiator: concurrent declarations
  // from one site deadlock with each other on the NS locks; suspects that
  // accumulate meanwhile are batched into the next declaration.
  bool declare_inflight_ = false;
  uint64_t tick_count_ = 0;
  Rng rng_;
};

} // namespace ddbs
