#include "common/config.h"

#include <type_traits>
#include <utility>

#include "common/report.h"

namespace ddbs {

const char* to_string(WriteScheme s) {
  switch (s) {
    case WriteScheme::kRowaStrict: return "ROWA-strict";
    case WriteScheme::kRowaa: return "ROWAA";
  }
  return "?";
}

const char* to_string(RecoveryScheme s) {
  switch (s) {
    case RecoveryScheme::kSessionVector: return "session-vector";
    case RecoveryScheme::kSpooler: return "spooler-redo";
  }
  return "?";
}

const char* to_string(OutdatedStrategy s) {
  switch (s) {
    case OutdatedStrategy::kMarkAll: return "mark-all";
    case OutdatedStrategy::kMarkAllVersionCmp: return "mark-all+vcmp";
    case OutdatedStrategy::kFailLock: return "fail-lock";
    case OutdatedStrategy::kMissingList: return "missing-list";
  }
  return "?";
}

const char* to_string(CopierMode m) {
  switch (m) {
    case CopierMode::kEager: return "eager";
    case CopierMode::kOnDemand: return "on-demand";
  }
  return "?";
}

const char* to_string(UnreadablePolicy p) {
  switch (p) {
    case UnreadablePolicy::kBlock: return "block";
    case UnreadablePolicy::kRedirect: return "redirect";
  }
  return "?";
}

const char* to_string(StorageEngineKind k) {
  switch (k) {
    case StorageEngineKind::kInMemory: return "in-memory";
    case StorageEngineKind::kDurable: return "durable";
  }
  return "?";
}

const char* to_string(PlantedBug b) {
  switch (b) {
    case PlantedBug::kNone: return "none";
    case PlantedBug::kSkipSessionCheck: return "skip-session-check";
    case PlantedBug::kSkipMark: return "skip-mark";
  }
  return "?";
}

namespace {

// An enum value with the shorter name the command lines use for it
// (nullptr when the to_string spelling is the only one).
template <typename E>
struct Spelling {
  E value;
  const char* short_name = nullptr;
};

template <typename E>
bool parse_enum(std::string_view name, E* out,
                std::initializer_list<Spelling<E>> all) {
  for (const Spelling<E>& s : all) {
    if (name == to_string(s.value) ||
        (s.short_name != nullptr && name == s.short_name)) {
      *out = s.value;
      return true;
    }
  }
  return false;
}

} // namespace

bool parse_write_scheme(std::string_view name, WriteScheme* out) {
  return parse_enum<WriteScheme>(name, out,
                                 {{WriteScheme::kRowaStrict, "rowa"},
                                  {WriteScheme::kRowaa, "rowaa"}});
}

bool parse_recovery_scheme(std::string_view name, RecoveryScheme* out) {
  return parse_enum<RecoveryScheme>(name, out,
                                    {{RecoveryScheme::kSessionVector},
                                     {RecoveryScheme::kSpooler, "spooler"}});
}

bool parse_outdated_strategy(std::string_view name, OutdatedStrategy* out) {
  return parse_enum<OutdatedStrategy>(
      name, out,
      {{OutdatedStrategy::kMarkAll},
       {OutdatedStrategy::kMarkAllVersionCmp, "vcmp"},
       {OutdatedStrategy::kFailLock},
       {OutdatedStrategy::kMissingList}});
}

bool parse_copier_mode(std::string_view name, CopierMode* out) {
  return parse_enum<CopierMode>(
      name, out, {{CopierMode::kEager}, {CopierMode::kOnDemand}});
}

bool parse_unreadable_policy(std::string_view name, UnreadablePolicy* out) {
  return parse_enum<UnreadablePolicy>(
      name, out, {{UnreadablePolicy::kBlock}, {UnreadablePolicy::kRedirect}});
}

bool parse_storage_engine(std::string_view name, StorageEngineKind* out) {
  return parse_enum<StorageEngineKind>(
      name, out,
      {{StorageEngineKind::kInMemory}, {StorageEngineKind::kDurable}});
}

bool parse_planted_bug(std::string_view name, PlantedBug* out) {
  return parse_enum<PlantedBug>(name, out,
                                {{PlantedBug::kNone},
                                 {PlantedBug::kSkipSessionCheck},
                                 {PlantedBug::kSkipMark}});
}

// ------------------------------------------------------------ field table

namespace {

// Numbers and switches; enum rows name their parse_* function instead.
template <typename T>
bool parse_text(std::string_view s, T* v) {
  if constexpr (std::is_same_v<T, bool>) {
    if (s != "on" && s != "true" && s != "off" && s != "false") return false;
    *v = s == "on" || s == "true";
    return true;
  } else {
    return parse_number(s, v);
  }
}

template <auto M>
using FieldType = std::remove_cvref_t<decltype(std::declval<Config>().*M)>;

template <auto M>
void print_field(JsonWriter& w, const Config& c) {
  if constexpr (std::is_enum_v<FieldType<M>>) {
    w.value(to_string(c.*M));
  } else {
    w.value(c.*M);
  }
}

template <auto M, auto Parse>
bool parse_field(std::string_view text, Config* c) {
  if constexpr (std::is_null_pointer_v<decltype(Parse)>) {
    return parse_text(text, &(c->*M));
  } else {
    return Parse(text, &(c->*M));
  }
}

template <auto M, auto Parse = nullptr>
constexpr ConfigField row(ConfigField f) {
  using T = FieldType<M>;
  f.kind = std::is_enum_v<T>           ? ConfigField::Kind::kChoice
           : std::is_same_v<T, bool> ? ConfigField::Kind::kSwitch
                                     : ConfigField::Kind::kNumber;
  f.print = &print_field<M>;
  f.parse = &parse_field<M, Parse>;
  return f;
}

// Rows are in config-echo order. New rows go last, so every report and
// artifact already written keeps its key order as a prefix of the new one.
constexpr ConfigField kFields[] = {
    row<&Config::n_sites>({
        .key = "n_sites", .flag = "--sites", .arg = "N",
        .help = "number of sites (default 5)"}),
    row<&Config::n_items>({
        .key = "n_items", .flag = "--items", .arg = "N",
        .help = "number of logical items (default 200)", .sweepable = true}),
    row<&Config::replication_degree>({
        .key = "replication_degree", .flag = "--degree", .arg = "N",
        .help = "copies per item (default 3)", .sweepable = true}),
    row<&Config::placement_seed>({.key = "placement_seed"}),
    row<&Config::write_scheme, parse_write_scheme>({
        .key = "write_scheme", .flag = "--write-scheme", .arg = "rowaa|rowa",
        .help = "write-all-available or write-all (default rowaa)",
        .sweepable = true}),
    row<&Config::recovery_scheme, parse_recovery_scheme>({
        .key = "recovery_scheme", .flag = "--scheme",
        .arg = "session-vector|spooler",
        .help = "recovery scheme (default session-vector)",
        .sweepable = true}),
    row<&Config::outdated_strategy, parse_outdated_strategy>({
        .key = "outdated_strategy", .flag = "--strategy",
        .arg = "mark-all|vcmp|fail-lock|missing-list",
        .help = "out-of-date copy identification (default mark-all)",
        .sweepable = true}),
    row<&Config::copier_mode, parse_copier_mode>({
        .key = "copier_mode", .flag = "--copier", .arg = "eager|on-demand",
        .help = "when copiers run (default eager)", .sweepable = true}),
    row<&Config::unreadable_policy, parse_unreadable_policy>({
        .key = "unreadable_policy", .flag = "--policy",
        .arg = "block|redirect",
        .help = "reads of unreadable copies (default block)",
        .sweepable = true}),
    row<&Config::spooler_copies>({.key = "spooler_copies"}),
    row<&Config::net_latency_min>({.key = "net_latency_min"}),
    row<&Config::net_latency_max>({.key = "net_latency_max"}),
    row<&Config::msg_loss_prob>({
        .key = "msg_loss_prob", .flag = "--loss", .arg = "F",
        .help = "message loss probability (default 0)"}),
    row<&Config::rpc_timeout>({.key = "rpc_timeout"}),
    row<&Config::lock_timeout>({.key = "lock_timeout"}),
    row<&Config::txn_timeout>({.key = "txn_timeout"}),
    row<&Config::detector_interval>({.key = "detector_interval"}),
    row<&Config::copier_concurrency>({.key = "copier_concurrency"}),
    row<&Config::control_retry_limit>({
        .key = "control_retry_limit", .flag = "--retry-limit", .arg = "N",
        .help = "type-1 give-up threshold (default 16)"}),
    row<&Config::read_only_one_phase>({.key = "read_only_one_phase"}),
    row<&Config::footprint_ns>({
        .key = "footprint_ns", .flag = "--footprint-ns", .arg = "on|off",
        .help = "user txns read only their host set's NS entries\n"
                "(default on; off = full vector)",
        .sweepable = true}),
    row<&Config::canonical_write_order>({.key = "canonical_write_order"}),
    row<&Config::detector_jitter>({.key = "detector_jitter"}),
    row<&Config::reconcile_probes>({.key = "reconcile_probes"}),
    row<&Config::wal_checkpoint_threshold>(
        {.key = "wal_checkpoint_threshold"}),
    row<&Config::storage_engine, parse_storage_engine>({
        .key = "storage_engine", .flag = "--storage-engine",
        .arg = "in-memory|durable",
        .help = "stable storage (default in-memory)", .sweepable = true}),
    row<&Config::checkpoint_interval>({
        .key = "checkpoint_interval", .flag = "--checkpoint-interval",
        .arg = "N",
        .help = "redo records between fuzzy checkpoints\n"
                "(durable engine; 0 = never; default 2048)",
        .sweepable = true}),
    row<&Config::disk_latency_us>({
        .key = "disk_latency_us", .flag = "--disk-latency-us", .arg = "N",
        .help = "per-op disk latency (default 100)"}),
    row<&Config::disk_bandwidth_mbps>({
        .key = "disk_bandwidth_mbps", .flag = "--disk-bw-mbps", .arg = "N",
        .help = "disk bandwidth MB/s (default 200)"}),
    row<&Config::disk_queue_depth>({
        .key = "disk_queue_depth", .flag = "--disk-queue-depth", .arg = "N",
        .help = "concurrent device channels (default 4)"}),
    row<&Config::local_op_cost>({.key = "local_op_cost"}),
    row<&Config::trace_capacity>({
        .key = "trace_capacity", .flag = "--trace-cap", .arg = "N",
        .help = "trace ring capacity in events (default 32768)"}),
    row<&Config::timeseries_bucket>({
        .key = "timeseries_bucket", .flag = "--bucket-ms", .arg = "N",
        .help = "time-series bucket width (default 250; 0 off)",
        .flag_unit = 1000}),
    row<&Config::online_verify>({
        .key = "online_verify", .flag = "--online-verify", .arg = "on|off",
        .help = "judge history with the incremental online verifier"}),
    row<&Config::n_threads>({
        .key = "n_threads", .flag = "--threads", .arg = "N",
        .help = "cluster worker threads; N>1 runs the site-parallel\n"
                "backend (site-sharded, epoch-windowed)"}),
    row<&Config::site_ordered_events>({.key = "site_ordered_events"}),
    row<&Config::workload_shards>({.key = "workload_shards"}),
    row<&Config::planted_bug, parse_planted_bug>({
        .key = "planted_bug", .flag = "--planted-bug", .arg = "NAME",
        .help = "protocol mutation (none|skip-session-check|skip-mark)"}),
    row<&Config::planted_stall>({
        .key = "planted_stall", .flag = "--planted-stall", .arg = "on|off",
        .help = "re-enable the historical fixed NS-lock retry\n"
                "backoff + permanent give-up (watchdog demo)"}),
    row<&Config::record_history>({.key = "record_history"}),
    row<&Config::user_txn_retry>({.key = "user_txn_retry"}),
};

} // namespace

std::span<const ConfigField> config_fields() { return kFields; }

const ConfigField* find_config_flag(std::string_view arg,
                                    std::string_view* value) {
  const size_t eq = arg.find('=');
  const std::string_view name = arg.substr(0, eq);
  for (const ConfigField& f : kFields) {
    if (f.flag == nullptr || name != f.flag) continue;
    if (eq == std::string_view::npos) {
      if (f.kind != ConfigField::Kind::kSwitch) return nullptr;
      *value = "on";
    } else {
      *value = arg.substr(eq + 1);
    }
    return &f;
  }
  return nullptr;
}

bool parse_flag_value(const ConfigField& f, std::string_view value,
                      Config* c) {
  if (f.flag_unit == 1) return f.parse(value, c);
  int64_t n = 0;
  return parse_scaled(value, f.flag_unit, &n) &&
         f.parse(std::to_string(n), c);
}

bool apply_config_flag(std::string_view arg, Config* c) {
  std::string_view value;
  const ConfigField* f = find_config_flag(arg, &value);
  return f != nullptr && parse_flag_value(*f, value, c);
}

std::string config_flags_help(std::string_view shadowed, bool mark_axes) {
  constexpr size_t kColumn = 24;
  std::string out;
  for (const ConfigField& f : kFields) {
    if (f.flag == nullptr || f.flag == shadowed) continue;
    const size_t start = out.size();
    out += mark_axes && f.sweepable ? "* " : "  ";
    out += f.flag;
    out += '=';
    out += f.arg;
    if (out.size() - start < kColumn) {
      out.append(kColumn - (out.size() - start), ' ');
    } else {
      out += '\n';
      out.append(kColumn, ' ');
    }
    for (const char* p = f.help; *p != '\0'; ++p) {
      out += *p;
      if (*p == '\n') out.append(kColumn, ' ');
    }
    out += '\n';
  }
  return out;
}

} // namespace ddbs
