#include <gtest/gtest.h>

#include "baselines/spooler.h"
#include "recovery/status_tables.h"
#include "replication/catalog.h"
#include "storage/stable_storage.h"

namespace ddbs {
namespace {

TEST(KvStore, CreateFindInstall) {
  KvStore kv;
  kv.create(1, 10);
  const Copy* c = kv.find(1);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 10);
  EXPECT_EQ(c->version.counter, 0u);
  EXPECT_FALSE(c->unreadable);
  kv.install(1, 20, Version{3, 99});
  c = kv.find(1);
  EXPECT_EQ(c->value, 20);
  EXPECT_EQ(c->version.counter, 3u);
  EXPECT_EQ(c->version.writer, 99u);
}

TEST(KvStore, InstallClearsMark) {
  KvStore kv;
  kv.create(1, 0);
  kv.mark_unreadable(1);
  EXPECT_TRUE(kv.find(1)->unreadable);
  kv.install(1, 5, Version{1, 7});
  EXPECT_FALSE(kv.find(1)->unreadable);
}

TEST(KvStore, InstallCreatesMissingCopy) {
  KvStore kv;
  kv.install(42, 5, Version{1, 7});
  ASSERT_TRUE(kv.exists(42));
  EXPECT_EQ(kv.find(42)->value, 5);
}

TEST(KvStore, UnreadableInventory) {
  KvStore kv;
  for (ItemId i = 0; i < 5; ++i) kv.create(i, 0);
  kv.mark_unreadable(1);
  kv.mark_unreadable(3);
  EXPECT_EQ(kv.unreadable_count(), 2u);
  EXPECT_EQ(kv.unreadable_items(), (std::vector<ItemId>{1, 3}));
  kv.clear_mark(1);
  EXPECT_EQ(kv.unreadable_count(), 1u);
}

TEST(KvStore, OutOfOrderInstallKeepsInventoryAscending) {
  KvStore kv;
  for (ItemId x : {50, 10, 30}) kv.create(x, 0);
  kv.install(20, 1, Version{1, 7}); // absent id lands between 10 and 30
  kv.install(5, 1, Version{1, 7});  // ... and before the first
  kv.install(60, 1, Version{1, 7}); // ... and after the last
  EXPECT_EQ(kv.items(), (std::vector<ItemId>{5, 10, 20, 30, 50, 60}));
  for (ItemId x : {60, 5, 30}) kv.mark_unreadable(x);
  EXPECT_EQ(kv.unreadable_items(), (std::vector<ItemId>{5, 30, 60}));
  EXPECT_EQ(kv.find(20)->value, 1);
  EXPECT_EQ(kv.find(50)->value, 0);
  EXPECT_EQ(kv.find(40), nullptr);
  EXPECT_EQ(kv.find(0), nullptr);
  EXPECT_EQ(kv.find(99), nullptr);
}

TEST(KvStore, WipeThenReinstallRestoresCounts) {
  KvStore kv;
  for (ItemId x = 0; x < 6; ++x) kv.create(2 * x, 0);
  kv.mark_unreadable(4);
  kv.mark_unreadable(8);
  const size_t bytes = kv.bytes();
  kv.wipe();
  EXPECT_EQ(kv.size(), 0u);
  EXPECT_EQ(kv.unreadable_count(), 0u);
  EXPECT_TRUE(kv.items().empty());
  EXPECT_TRUE(kv.unreadable_items().empty());
  EXPECT_EQ(kv.find(4), nullptr);
  // Replay, as the durable engine does after a crash: the directory kept
  // its slots, so nothing is reallocated.
  for (ItemId x = 5; x >= 0; --x) kv.install(2 * x, x, Version{1, 3});
  kv.mark_unreadable(4);
  kv.mark_unreadable(8);
  EXPECT_EQ(kv.size(), 6u);
  EXPECT_EQ(kv.unreadable_count(), 2u);
  EXPECT_EQ(kv.unreadable_items(), (std::vector<ItemId>{4, 8}));
  EXPECT_EQ(kv.bytes(), bytes);
  EXPECT_EQ(kv.find(6)->value, 3);
}

TEST(KvStore, NsAndDataIdsCoexist) {
  KvStore kv;
  kv.create(ns_item(2), 1);
  kv.create(7, 70);
  kv.create(ns_item(0), 1);
  kv.create(3, 30);
  EXPECT_EQ(kv.size(), 4u);
  EXPECT_EQ(kv.items(),
            (std::vector<ItemId>{3, 7, ns_item(0), ns_item(2)}));
  EXPECT_EQ(kv.find(ns_item(1)), nullptr);
  kv.install(ns_item(2), 4, Version{2, 9});
  EXPECT_EQ(kv.find(ns_item(2))->value, 4);
  EXPECT_EQ(kv.find(7)->value, 70);
  kv.mark_unreadable(ns_item(0));
  kv.mark_unreadable(7);
  EXPECT_EQ(kv.unreadable_items(), (std::vector<ItemId>{7, ns_item(0)}));
}

// A store indexed by its site's catalog row answers exactly as a plain
// one: while bootstrap fills the row in reverse (positions not yet
// aligned), once it is full, and after an id outside the row is inserted
// in front of the row and shifts every position.
TEST(KvStore, CatalogIndexedFindMatchesDirectory) {
  Config cfg;
  cfg.n_sites = 8;
  cfg.n_items = 400;
  cfg.replication_degree = 3;
  const Catalog cat = Catalog::make(cfg);
  const SiteId site = 5;
  const auto hosted = cat.items_at(site);
  ASSERT_GT(hosted.size(), 50u);
  KvStore indexed;
  indexed.index_by(&cat, site);
  KvStore plain;
  auto same = [&]() {
    for (ItemId x = 0; x < cfg.n_items; ++x) {
      const Copy* a = indexed.find(x);
      const Copy* b = plain.find(x);
      ASSERT_EQ(a == nullptr, b == nullptr) << "item " << x;
      if (a != nullptr) ASSERT_EQ(a->value, b->value) << "item " << x;
    }
  };
  for (size_t i = hosted.size(); i-- > 0;) {
    indexed.create(hosted[i], hosted[i] * 10);
    plain.create(hosted[i], hosted[i] * 10);
    if (i % 16 == 0) same();
  }
  same();
  for (size_t i = 0; i < hosted.size(); ++i) {
    EXPECT_EQ(cat.position_at(site, hosted[i]), static_cast<int64_t>(i));
  }
  ItemId outside = 0;
  while (cat.position_at(site, outside) >= 0) ++outside;
  ASSERT_LT(outside, hosted.back());
  indexed.install(outside, 7, Version{1, 2});
  plain.install(outside, 7, Version{1, 2});
  same();
  EXPECT_EQ(indexed.find(outside)->value, 7);
  EXPECT_EQ(cat.position_at(site, cfg.n_items), -1);
}

TEST(VersionOrdering, LexicographicOnCounterThenWriter) {
  EXPECT_LT((Version{1, 5}), (Version{2, 1}));
  EXPECT_LT((Version{2, 1}), (Version{2, 3}));
  EXPECT_EQ((Version{2, 3}), (Version{2, 3}));
}

TEST(Wal, InDoubtTracksUnresolvedPrepares) {
  Wal wal;
  WalRecord p1{WalRecord::Kind::kPrepare, 100, TxnKind::kUser, 0, {}, {}};
  WalRecord p2{WalRecord::Kind::kPrepare, 200, TxnKind::kUser, 1, {}, {}};
  wal.append(p1);
  wal.append(p2);
  EXPECT_EQ(wal.in_doubt().size(), 2u);
  wal.append(WalRecord{WalRecord::Kind::kCommit, 100, TxnKind::kUser, 0,
                       {}, {}});
  auto d = wal.in_doubt();
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].txn, 200u);
}

TEST(Wal, TruncateKeepsOnlyInDoubt) {
  Wal wal;
  wal.append(WalRecord{WalRecord::Kind::kPrepare, 1, TxnKind::kUser, 0, {}, {}});
  wal.append(WalRecord{WalRecord::Kind::kCommit, 1, TxnKind::kUser, 0, {}, {}});
  wal.append(WalRecord{WalRecord::Kind::kPrepare, 2, TxnKind::kUser, 0, {}, {}});
  wal.truncate_resolved();
  EXPECT_EQ(wal.size(), 1u);
  EXPECT_EQ(wal.records()[0].txn, 2u);
}

TEST(StableStorage, SessionCounterMonotonic) {
  StableStorage s;
  EXPECT_EQ(s.next_session_number(), 1u);
  EXPECT_EQ(s.next_session_number(), 2u);
  EXPECT_EQ(s.last_session_number(), 2u);
}

TEST(StableStorage, OutcomeLog) {
  StableStorage s;
  EXPECT_EQ(s.find_outcome(5), nullptr);
  s.record_outcome(5, OutcomeRec{true, {{1, 2}}, {}});
  const OutcomeRec* rec = s.find_outcome(5);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->committed);
  s.forget_outcome(5);
  EXPECT_EQ(s.find_outcome(5), nullptr);
}

TEST(SpoolTable, KeepsNewestPerItem) {
  SpoolTable sp;
  sp.add(2, SpoolRecord{7, 10, Version{1, 1}});
  sp.add(2, SpoolRecord{7, 20, Version{3, 2}});
  sp.add(2, SpoolRecord{7, 15, Version{2, 3}}); // older than current
  auto recs = sp.records_for(2);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].value, 20);
}

TEST(SpoolTable, PerSiteIsolationAndTrim) {
  SpoolTable sp;
  sp.add(1, SpoolRecord{7, 10, Version{1, 1}});
  sp.add(2, SpoolRecord{8, 11, Version{1, 1}});
  EXPECT_EQ(sp.total_records(), 2u);
  EXPECT_EQ(sp.records_count_for(1), 1u);
  sp.trim(1);
  EXPECT_EQ(sp.records_count_for(1), 0u);
  EXPECT_EQ(sp.records_count_for(2), 1u);
}

TEST(StatusTable, MissingListSemantics) {
  StatusTable t;
  t.ml_add(7, 2);
  t.ml_add(8, 2);
  t.ml_add(7, 3);
  EXPECT_EQ(t.ml_size(), 3u);
  EXPECT_EQ(t.ml_items_for(2), (std::vector<ItemId>{7, 8}));
  t.ml_remove(7, 2);
  EXPECT_EQ(t.ml_items_for(2), (std::vector<ItemId>{8}));
  t.ml_remove_all_for(2);
  EXPECT_TRUE(t.ml_items_for(2).empty());
  EXPECT_EQ(t.ml_items_for(3), (std::vector<ItemId>{7}));
}

TEST(StatusTable, FailLockSemantics) {
  StatusTable t;
  t.fl_add(1);
  t.fl_add(1);
  t.fl_add(9);
  EXPECT_EQ(t.fl_size(), 2u);
  t.fl_clear();
  EXPECT_EQ(t.fl_size(), 0u);
}

TEST(StatusTable, BulkInsertAndClear) {
  StatusTable t;
  t.ml_insert_bulk({{1, 0}, {2, 1}});
  EXPECT_EQ(t.ml_size(), 2u);
  t.clear();
  EXPECT_EQ(t.ml_size(), 0u);
}

} // namespace
} // namespace ddbs
