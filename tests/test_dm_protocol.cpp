// Data-manager protocol behaviours exercised with hand-crafted envelopes:
// session checks, unknown-transaction votes, unilateral aborts, cooperative
// termination and in-doubt redo. Crafted requests carry a fake coordinator
// transaction id owned by a real (live) site so OutcomeQuery routing works.
#include <gtest/gtest.h>

#include "core/cluster.h"

namespace ddbs {
namespace {

struct DmFixture : public ::testing::Test {
  Config cfg;
  std::unique_ptr<Cluster> cluster;
  ItemId item_at_0 = -1; // replicated item hosted at site 0

  void SetUp() override {
    cfg.n_sites = 3;
    cfg.n_items = 30;
    cfg.replication_degree = 2;
    cluster = std::make_unique<Cluster>(cfg, 77);
    cluster->bootstrap();
    for (ItemId x : cluster->catalog().items_at(0)) {
      if (cluster->catalog().sites_of(x).size() > 1) {
        item_at_0 = x;
        break;
      }
    }
    ASSERT_NE(item_at_0, -1);
  }

  Envelope make_env(Payload p) {
    return Envelope{/*rpc_id=*/777, /*is_response=*/false, /*from=*/1,
                    /*to=*/0, std::move(p)};
  }

  WriteReq write_req(TxnId txn, ItemId item, Value v) {
    WriteReq req;
    req.txn = txn;
    req.kind = TxnKind::kUser;
    req.coordinator = 1;
    req.item = item;
    req.expected_session = 1;
    req.value = v;
    req.written_sites = cluster->catalog().sites_of(item);
    return req;
  }
};

TEST_F(DmFixture, SessionMismatchRejected) {
  DataManager& dm = cluster->site(0).dm();
  ReadReq req;
  req.txn = make_txn_id(1, 1);
  req.item = item_at_0;
  req.expected_session = 42; // wrong: actual session is 1
  dm.handle_request(make_env(req));
  EXPECT_EQ(cluster->metrics().get("dm.read_reject.session-mismatch"), 1);
}

TEST_F(DmFixture, UserOpsRejectedWhileNotOperational) {
  cluster->crash_site(0);
  cluster->site(0).state().mode = SiteMode::kRecovering; // simulate boot
  DataManager& dm = cluster->site(0).dm();
  ReadReq req;
  req.txn = make_txn_id(1, 2);
  req.item = item_at_0;
  req.expected_session = 0;
  dm.handle_request(make_env(req));
  EXPECT_EQ(cluster->metrics().get("dm.read_reject.site-not-operational"),
            1);
}

TEST_F(DmFixture, PrepareUnknownTxnVotesNo) {
  DataManager& dm = cluster->site(0).dm();
  PrepareReq req;
  req.txn = make_txn_id(1, 3);
  req.coordinator = 1;
  dm.handle_request(make_env(req));
  EXPECT_EQ(cluster->metrics().get("dm.vote_no_unknown"), 1);
}

TEST_F(DmFixture, StagedWriteHoldsLockUntilAbort) {
  DataManager& dm = cluster->site(0).dm();
  const TxnId t1 = make_txn_id(1, 4);
  dm.handle_request(make_env(write_req(t1, item_at_0, 9)));
  EXPECT_TRUE(dm.locks().holds(t1, item_at_0));
  dm.handle_request(make_env(AbortReq{t1}));
  EXPECT_FALSE(dm.locks().holds(t1, item_at_0));
  EXPECT_EQ(dm.active_txn_count(), 0u);
}

TEST_F(DmFixture, TombstoneBlocksResurrection) {
  DataManager& dm = cluster->site(0).dm();
  const TxnId t1 = make_txn_id(1, 5);
  dm.handle_request(make_env(AbortReq{t1}));
  // A write arriving after the abort must not create a context.
  dm.handle_request(make_env(write_req(t1, item_at_0, 9)));
  EXPECT_EQ(dm.active_txn_count(), 0u);
  EXPECT_FALSE(dm.locks().holds(t1, item_at_0));
}

TEST_F(DmFixture, ActivityTimeoutAbortsOrphanedContext) {
  DataManager& dm = cluster->site(0).dm();
  const TxnId t1 = make_txn_id(1, 6);
  dm.handle_request(make_env(write_req(t1, item_at_0, 9)));
  EXPECT_EQ(dm.active_txn_count(), 1u);
  cluster->run_until(cluster->now() + cfg.txn_timeout + 100'000);
  EXPECT_EQ(dm.active_txn_count(), 0u);
  EXPECT_GE(cluster->metrics().get("dm.activity_timeout_abort"), 1);
}

TEST_F(DmFixture, CooperativeTerminationResolvesByPresumedAbort) {
  DataManager& dm = cluster->site(0).dm();
  const TxnId t1 = make_txn_id(1, 7); // "coordinated" by site 1
  dm.handle_request(make_env(write_req(t1, item_at_0, 9)));
  PrepareReq prep;
  prep.txn = t1;
  prep.coordinator = 1;
  prep.participants = {0, 1};
  dm.handle_request(make_env(prep));
  EXPECT_EQ(dm.in_doubt().size(), 1u);
  EXPECT_TRUE(dm.locks().holds(t1, item_at_0));
  // No commit ever arrives. The termination timer queries site 1, which
  // has no stable outcome record and owns the txn id => presumed abort.
  cluster->run_until(cluster->now() + 10 * cfg.rpc_timeout);
  EXPECT_FALSE(dm.locks().holds(t1, item_at_0));
  EXPECT_GE(cluster->metrics().get("dm.termination_aborted"), 1);
  EXPECT_TRUE(dm.in_doubt().empty()); // abort record resolves it
}

TEST_F(DmFixture, CooperativeTerminationLearnsCommitFromCoordinator) {
  DataManager& dm = cluster->site(0).dm();
  const TxnId t1 = make_txn_id(1, 8);
  dm.handle_request(make_env(write_req(t1, item_at_0, 55)));
  PrepareReq prep;
  prep.txn = t1;
  prep.coordinator = 1;
  prep.participants = {0, 1};
  dm.handle_request(make_env(prep));
  // Site 1 durably knows the decision (as a real coordinator would after
  // logging commit); the participant must learn it and apply.
  cluster->site(1).stable().record_outcome(
      t1, OutcomeRec{true, {{item_at_0, 7}}, {}});
  cluster->run_until(cluster->now() + 10 * cfg.rpc_timeout);
  const Copy* c = dm.kv().find(item_at_0);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 55);
  EXPECT_EQ(c->version.counter, 7u);
  EXPECT_GE(cluster->metrics().get("dm.termination_committed"), 1);
}

TEST_F(DmFixture, InDoubtRedoAfterCrash) {
  DataManager& dm = cluster->site(0).dm();
  const TxnId t1 = make_txn_id(1, 9);
  dm.handle_request(make_env(write_req(t1, item_at_0, 66)));
  PrepareReq prep;
  prep.txn = t1;
  prep.coordinator = 1;
  prep.participants = {0, 1};
  dm.handle_request(make_env(prep));
  // Crash before any outcome arrives; the decision was commit.
  cluster->site(1).stable().record_outcome(
      t1, OutcomeRec{true, {{item_at_0, 9}}, {}});
  cluster->crash_site(0);
  cluster->recover_site(0);
  cluster->settle();
  EXPECT_EQ(cluster->site(0).state().mode, SiteMode::kUp);
  EXPECT_GE(cluster->metrics().get("dm.indoubt_committed"), 1);
  const Copy* c = dm.kv().find(item_at_0);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 66);
  EXPECT_FALSE(c->unreadable);
}

TEST_F(DmFixture, InDoubtAbortAfterCrash) {
  DataManager& dm = cluster->site(0).dm();
  const TxnId t1 = make_txn_id(1, 10);
  dm.handle_request(make_env(write_req(t1, item_at_0, 66)));
  PrepareReq prep;
  prep.txn = t1;
  prep.coordinator = 1;
  prep.participants = {0, 1};
  dm.handle_request(make_env(prep));
  cluster->crash_site(0);
  cluster->recover_site(0);
  cluster->settle();
  // Site 1 has no record => presumed abort; the staged value must NOT be
  // applied.
  EXPECT_GE(cluster->metrics().get("dm.indoubt_aborted"), 1);
  const Copy* c = dm.kv().find(item_at_0);
  ASSERT_NE(c, nullptr);
  EXPECT_NE(c->value, 66);
}

TEST_F(DmFixture, CommitForUnknownTxnRefusedWithoutOutcome) {
  DataManager& dm = cluster->site(0).dm();
  CommitReq creq;
  creq.txn = make_txn_id(1, 11);
  dm.handle_request(make_env(creq));
  // Nothing applied, no crash: the DM must not invent state.
  EXPECT_EQ(dm.active_txn_count(), 0u);
}

TEST_F(DmFixture, PingReportsOperationalState) {
  // Exercised through a real round trip: crash then ping via detector is
  // covered elsewhere; here check the state flag directly flips.
  EXPECT_TRUE(cluster->site(0).state().operational());
  cluster->crash_site(0);
  EXPECT_FALSE(cluster->site(0).state().operational());
}

} // namespace
} // namespace ddbs
