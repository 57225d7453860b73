// The Config field table (common/config.h): repro artifacts echo and parse
// every field, command-line values are validated whole, and each enum has
// one parser that takes both its report and its command-line spelling.
#include <gtest/gtest.h>

#include "common/config.h"
#include "common/report.h"
#include "explore/repro.h"

namespace ddbs {
namespace {

// Every independently settable field away from its default.
Config all_changed() {
  Config c;
  c.n_sites = 7;
  c.n_threads = 3;
  c.site_ordered_events = true;
  c.workload_shards = 2;
  c.n_items = 321;
  c.replication_degree = 2;
  c.placement_seed = 7;
  c.write_scheme = WriteScheme::kRowaStrict;
  c.recovery_scheme = RecoveryScheme::kSpooler;
  c.outdated_strategy = OutdatedStrategy::kMissingList;
  c.copier_mode = CopierMode::kOnDemand;
  c.unreadable_policy = UnreadablePolicy::kRedirect;
  c.spooler_copies = 3;
  c.net_latency_min = 400;
  c.net_latency_max = 1'700;
  c.msg_loss_prob = 0.123456789; // more digits than a default ostream keeps
  c.rpc_timeout = 21'000;
  c.lock_timeout = 210'000;
  c.txn_timeout = 1'100'000;
  c.detector_interval = 60'000;
  c.copier_concurrency = 5;
  c.control_retry_limit = 9;
  c.user_txn_retry = true;
  c.read_only_one_phase = false;
  c.canonical_write_order = false;
  c.detector_jitter = false;
  c.footprint_ns = false;
  c.reconcile_probes = false;
  c.wal_checkpoint_threshold = 128;
  c.storage_engine = StorageEngineKind::kDurable;
  c.checkpoint_interval = 512;
  c.disk_latency_us = 150;
  c.disk_bandwidth_mbps = 50;
  c.disk_queue_depth = 2;
  c.local_op_cost = 40;
  c.trace_capacity = 1'000;
  c.timeseries_bucket = 125'000;
  c.record_history = false;
  c.online_verify = true;
  c.planted_bug = PlantedBug::kSkipMark;
  c.planted_stall = true;
  return c;
}

// Field by field, written out rather than read from the table, so a row
// that prints or parses the wrong member is caught too.
void expect_same(const Config& a, const Config& b) {
  EXPECT_EQ(a.n_sites, b.n_sites);
  EXPECT_EQ(a.n_threads, b.n_threads);
  EXPECT_EQ(a.site_ordered_events, b.site_ordered_events);
  EXPECT_EQ(a.workload_shards, b.workload_shards);
  EXPECT_EQ(a.n_items, b.n_items);
  EXPECT_EQ(a.replication_degree, b.replication_degree);
  EXPECT_EQ(a.placement_seed, b.placement_seed);
  EXPECT_EQ(a.write_scheme, b.write_scheme);
  EXPECT_EQ(a.recovery_scheme, b.recovery_scheme);
  EXPECT_EQ(a.outdated_strategy, b.outdated_strategy);
  EXPECT_EQ(a.copier_mode, b.copier_mode);
  EXPECT_EQ(a.unreadable_policy, b.unreadable_policy);
  EXPECT_EQ(a.spooler_copies, b.spooler_copies);
  EXPECT_EQ(a.net_latency_min, b.net_latency_min);
  EXPECT_EQ(a.net_latency_max, b.net_latency_max);
  EXPECT_EQ(a.msg_loss_prob, b.msg_loss_prob);
  EXPECT_EQ(a.rpc_timeout, b.rpc_timeout);
  EXPECT_EQ(a.lock_timeout, b.lock_timeout);
  EXPECT_EQ(a.txn_timeout, b.txn_timeout);
  EXPECT_EQ(a.detector_interval, b.detector_interval);
  EXPECT_EQ(a.copier_concurrency, b.copier_concurrency);
  EXPECT_EQ(a.control_retry_limit, b.control_retry_limit);
  EXPECT_EQ(a.user_txn_retry, b.user_txn_retry);
  EXPECT_EQ(a.read_only_one_phase, b.read_only_one_phase);
  EXPECT_EQ(a.canonical_write_order, b.canonical_write_order);
  EXPECT_EQ(a.detector_jitter, b.detector_jitter);
  EXPECT_EQ(a.footprint_ns, b.footprint_ns);
  EXPECT_EQ(a.reconcile_probes, b.reconcile_probes);
  EXPECT_EQ(a.wal_checkpoint_threshold, b.wal_checkpoint_threshold);
  EXPECT_EQ(a.storage_engine, b.storage_engine);
  EXPECT_EQ(a.checkpoint_interval, b.checkpoint_interval);
  EXPECT_EQ(a.disk_latency_us, b.disk_latency_us);
  EXPECT_EQ(a.disk_bandwidth_mbps, b.disk_bandwidth_mbps);
  EXPECT_EQ(a.disk_queue_depth, b.disk_queue_depth);
  EXPECT_EQ(a.local_op_cost, b.local_op_cost);
  EXPECT_EQ(a.trace_capacity, b.trace_capacity);
  EXPECT_EQ(a.timeseries_bucket, b.timeseries_bucket);
  EXPECT_EQ(a.record_history, b.record_history);
  EXPECT_EQ(a.online_verify, b.online_verify);
  EXPECT_EQ(a.planted_bug, b.planted_bug);
  EXPECT_EQ(a.planted_stall, b.planted_stall);
}

Config repro_round_trip(const Config& cfg) {
  ReproArtifact a;
  a.opts.cfg = cfg;
  ReproArtifact back;
  std::string err;
  EXPECT_TRUE(parse_repro(to_json(a), &back, &err)) << err;
  return back.opts.cfg;
}

TEST(ConfigTable, ReproRoundTripsEveryField) {
  expect_same(repro_round_trip(all_changed()), all_changed());
  expect_same(repro_round_trip(Config{}), Config{});
}

std::string printed(const ConfigField& f, const Config& c) {
  JsonWriter w;
  f.print(w, c);
  return w.str();
}

TEST(ConfigTable, RoundTripConfigChangesEveryRow) {
  // Guards the test above: a row added to the table must get a non-default
  // value in all_changed() (and a line in expect_same).
  const Config changed = all_changed();
  for (const ConfigField& f : config_fields()) {
    EXPECT_NE(printed(f, changed), printed(f, Config{})) << f.key;
  }
}

TEST(ConfigTable, CliValuesMustParseWhole) {
  Config c;
  EXPECT_FALSE(apply_config_flag("--sites=abc", &c));
  EXPECT_FALSE(apply_config_flag("--sites=12x", &c));
  EXPECT_FALSE(apply_config_flag("--sites=", &c));
  EXPECT_FALSE(apply_config_flag("--sites", &c)); // only switches go bare
  EXPECT_FALSE(apply_config_flag("--trace-cap=-1", &c));
  EXPECT_FALSE(apply_config_flag("--loss=0.1x", &c));
  EXPECT_FALSE(apply_config_flag("--footprint-ns=maybe", &c));
  EXPECT_FALSE(apply_config_flag("--copier=ondemand", &c));
  EXPECT_FALSE(apply_config_flag("--no-such-flag=1", &c));
  EXPECT_EQ(c.n_sites, Config{}.n_sites);

  EXPECT_TRUE(apply_config_flag("--sites=12", &c));
  EXPECT_EQ(c.n_sites, 12);
  EXPECT_TRUE(apply_config_flag("--loss=0.125", &c));
  EXPECT_EQ(c.msg_loss_prob, 0.125);
  EXPECT_TRUE(apply_config_flag("--bucket-ms=3", &c)); // ms on the CLI
  EXPECT_EQ(c.timeseries_bucket, 3'000);
  EXPECT_TRUE(apply_config_flag("--planted-stall", &c));
  EXPECT_TRUE(c.planted_stall);
  EXPECT_TRUE(apply_config_flag("--footprint-ns=off", &c));
  EXPECT_FALSE(c.footprint_ns);
  EXPECT_TRUE(apply_config_flag("--copier=on-demand", &c));
  EXPECT_EQ(c.copier_mode, CopierMode::kOnDemand);
}

TEST(ConfigTable, EnumParsersTakeReportAndCliSpellings) {
  struct Case {
    const char* report;
    const char* cli;
  };
  for (const Case& k : {Case{"ROWA-strict", "rowa"}, Case{"ROWAA", "rowaa"}}) {
    WriteScheme a{}, b{};
    ASSERT_TRUE(parse_write_scheme(k.report, &a)) << k.report;
    ASSERT_TRUE(parse_write_scheme(k.cli, &b)) << k.cli;
    EXPECT_EQ(a, b);
    EXPECT_STREQ(to_string(a), k.report);
  }
  RecoveryScheme r{};
  ASSERT_TRUE(parse_recovery_scheme("spooler", &r));
  EXPECT_STREQ(to_string(r), "spooler-redo");
  ASSERT_TRUE(parse_recovery_scheme("session-vector", &r));
  EXPECT_EQ(r, RecoveryScheme::kSessionVector);
  OutdatedStrategy s{};
  ASSERT_TRUE(parse_outdated_strategy("vcmp", &s));
  EXPECT_STREQ(to_string(s), "mark-all+vcmp");
  ASSERT_TRUE(parse_outdated_strategy("mark-all+vcmp", &s));
  EXPECT_EQ(s, OutdatedStrategy::kMarkAllVersionCmp);
  EXPECT_FALSE(parse_outdated_strategy("spooler", &s));
  EXPECT_FALSE(parse_recovery_scheme("Spooler", &r));
}

} // namespace
} // namespace ddbs
