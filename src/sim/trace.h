// The one trace stream of the simulated DDBS.
//
// The Tracer is a fixed-capacity ring buffer of typed events stamped with
// the sim clock. Recording is cheap (one struct copy, no allocation after
// construction) so it can sit on transaction hot paths; when the ring
// wraps, the oldest events are overwritten and `dropped()` counts them.
// Producers hold a `Tracer*` that may be null (tracing disabled) and use
// the null-safe static helpers (`emit`, `open`, `close`, ...).
//
// Events also carry causal structure. Every logical unit of work -- a user
// transaction, a type-1/type-2 control transaction, a copier, a detector
// verify chain, a recovery episode -- opens a span (a begin event, later an
// end event); per-site DM work (lock waits, staging, applies, session
// rejects) nests under the span of the coordinator that caused it. Span
// ids ride in every Envelope, so causality survives RPC hops. Point events
// are instants under the ambient span, which the single-threaded sim keeps
// in a plain variable managed by the RAII SpanScope.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/scheduler.h"

namespace ddbs {

enum class TraceKind : uint8_t {
  kTxnBegin = 0,
  kTxnCommit,
  kTxnAbort,        // a = abort Code
  kSessionReject,   // a = rejected-at site's expected session, b = carried
  kControlUpStart,  // type-1 control transaction round; a = attempt #
  kControlUpCommit,
  kControlDownStart, // type-2 control transaction; a = suspect site
  kControlDownCommit,
  kCopierStart,  // a = item id
  kCopierCommit, // a = item id
  kDetectorVerify,  // begins a verify chain's span; a = suspect site
  kDetectorDeclare, // a = declared-down site
  kRecoveryStarted, // begins the recovery episode's span (reboot -> current)
  kNominallyUp,
  kFullyCurrent,  // ends the recovery episode's span; a = copiers run
  kCopierStarved, // a = item id, b = escalated delay (us)
  kSiteCrash,     // site failed (fail-stop)
  kSiteRecover,   // site rebooted (not yet operational)
  kReplayDone,    // storage-engine reboot replay finished;
                  // a = redo records replayed, b = duration (us)
  // Span-only kinds: begins of the coordinators' spans, the DM's per-site
  // work, and the plain end of a span.
  kUserTxn,     // begin: coordinator of an ordinary transaction
  kCopier,      // begin: copier transaction refreshing one copy
  kControlUp,   // begin: type-1 control transaction
  kControlDown, // begin: type-2 control transaction
  kLockWait,    // begin: DM chain blocked waiting for locks; a = item
  kStage,       // DM: write staged into a txn context; a = item
  kApply,       // DM: commit applied to stable storage; a = writes
  kSpanEnd,     // end of a span that carries no milestone of its own
};

const char* to_string(TraceKind k);

enum class TracePhase : uint8_t { kInstant, kBegin, kEnd };

struct TraceEvent {
  SimTime at = 0;
  SpanId span = 0;   // begin/end: the span opened or closed; instant: 0
  SpanId parent = 0; // begin/instant: the enclosing span (0 = root)
  TxnId txn = 0;     // 0 when not transaction-scoped
  int64_t a = 0;     // kind-specific (see TraceKind comments)
  int64_t b = 0;
  SiteId site = kInvalidSite; // site where the event happened
  TraceKind kind = TraceKind::kTxnBegin;
  TracePhase phase = TracePhase::kInstant;
};
// One ring of 32768 of these stays under 1.75 MiB per cluster or shard.
static_assert(sizeof(TraceEvent) <= 56, "TraceEvent grew");

// Online observer of trace events. Sinks see every event as it is
// recorded, before the ring can wrap -- so folded products (recovery
// episodes, time series) never lose early events to overwrites even when
// the ring does. Sinks dispatch on `kind` and ignore kinds they do not
// fold, span-only kinds included.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_trace(const TraceEvent& e) = 0;
};

class Tracer {
 public:
  explicit Tracer(Scheduler& sched, size_t capacity = 1 << 15)
      : sched_(sched), ring_(capacity ? capacity : 1) {}

  // Instant under the ambient span (record) or an explicit parent.
  void record(TraceKind kind, SiteId site, TxnId txn = 0, int64_t a = 0,
              int64_t b = 0) {
    push(TracePhase::kInstant, 0, current_, kind, site, txn, a, b);
  }
  void record_under(SpanId parent, TraceKind kind, SiteId site,
                    TxnId txn = 0, int64_t a = 0, int64_t b = 0) {
    push(TracePhase::kInstant, 0, parent, kind, site, txn, a, b);
  }

  // Open a span whose parent is the ambient span (begin) or an explicit
  // one (begin_under). Ids come from a deterministic counter, so
  // fixed-seed runs produce identical streams.
  SpanId begin(TraceKind kind, SiteId site, TxnId txn = 0, int64_t a = 0,
               int64_t b = 0) {
    return begin_under(current_, kind, site, txn, a, b);
  }
  SpanId begin_under(SpanId parent, TraceKind kind, SiteId site,
                     TxnId txn = 0, int64_t a = 0, int64_t b = 0) {
    const SpanId id = next_span_;
    next_span_ += stride_;
    push(TracePhase::kBegin, id, parent, kind, site, txn, a, b);
    return id;
  }
  // Close a span; a milestone that ends it (kFullyCurrent) rides on the
  // end event itself.
  void end(SpanId id, TraceKind kind = TraceKind::kSpanEnd,
           SiteId site = kInvalidSite, TxnId txn = 0, int64_t a = 0,
           int64_t b = 0) {
    push(TracePhase::kEnd, id, 0, kind, site, txn, a, b);
  }

  SpanId current() const { return current_; }

  // Partition the span id space for per-shard tracers: ids become
  // offset + 1 + k * stride, so shard-local allocation stays globally
  // unique without synchronization. Call before the first begin().
  void set_id_stride(SpanId stride, SpanId offset) {
    next_span_ = offset + 1;
    stride_ = stride;
  }

  // Register an observer; not owned, must outlive the Tracer's producers.
  void add_sink(TraceSink* s) { sinks_.push_back(s); }

  // Null-safe helpers so producers don't litter `if (tracer_)` everywhere.
  static void emit(Tracer* t, TraceKind kind, SiteId site, TxnId txn = 0,
                   int64_t a = 0, int64_t b = 0) {
    if (t != nullptr) t->record(kind, site, txn, a, b);
  }
  static void emit_under(Tracer* t, SpanId parent, TraceKind kind,
                         SiteId site, TxnId txn = 0, int64_t a = 0,
                         int64_t b = 0) {
    if (t != nullptr) t->record_under(parent, kind, site, txn, a, b);
  }
  static SpanId open(Tracer* t, TraceKind kind, SiteId site, TxnId txn = 0,
                     int64_t a = 0) {
    return t != nullptr ? t->begin(kind, site, txn, a) : 0;
  }
  static void close(Tracer* t, SpanId id) {
    if (t != nullptr && id != 0) t->end(id);
  }

  size_t capacity() const { return ring_.size(); }
  // Events currently held (<= capacity).
  size_t size() const { return next_ < ring_.size() ? next_ : ring_.size(); }
  // Events recorded in total, including overwritten ones.
  uint64_t recorded() const { return next_; }
  uint64_t dropped() const {
    return next_ > ring_.size() ? next_ - ring_.size() : 0;
  }

  // Visit retained events oldest-first.
  void for_each(const std::function<void(const TraceEvent&)>& fn) const;
  // Oldest-first copy of the retained events.
  std::vector<TraceEvent> snapshot() const;

  // Empty the ring. Span ids keep counting, so they stay unique.
  void clear() { next_ = 0; }

 private:
  friend struct SpanScope;

  void push(TracePhase phase, SpanId span, SpanId parent, TraceKind kind,
            SiteId site, TxnId txn, int64_t a, int64_t b) {
    TraceEvent& e = ring_[next_ % ring_.size()];
    e.at = sched_.now();
    e.span = span;
    e.parent = parent;
    e.txn = txn;
    e.a = a;
    e.b = b;
    e.site = site;
    e.kind = kind;
    e.phase = phase;
    ++next_;
    for (TraceSink* s : sinks_) s->on_trace(e);
  }

  Scheduler& sched_;
  std::vector<TraceEvent> ring_;
  std::vector<TraceSink*> sinks_;
  uint64_t next_ = 0;    // total events ever recorded; write cursor mod size
  SpanId next_span_ = 1; // deterministic span id counter
  SpanId stride_ = 1;    // span id step (shard count when sharded)
  SpanId current_ = 0;   // ambient span (single-threaded per tracer)
};

// RAII "run under this span". Null-safe: a null tracer makes it a no-op,
// so call sites never branch on whether tracing is enabled.
struct SpanScope {
  SpanScope(Tracer* t, SpanId span) : t_(t) {
    if (t_ != nullptr) {
      prev_ = t_->current_;
      t_->current_ = span;
    }
  }
  ~SpanScope() {
    if (t_ != nullptr) t_->current_ = prev_;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
  SpanId prev_ = 0;
};

// Chrome trace_event JSON ("JSON Array Format" with a traceEvents wrapper,
// loadable in Perfetto / chrome://tracing) of `events`, oldest first.
// Begin/end pairs become "X" complete events (pid = site, tid = root span
// of the causal tree, resolved over all of `events`); a span still open is
// closed at `now`. Instants, and ends that carry a milestone, become "i"
// events. Output is deterministic for a fixed seed.
std::string to_chrome_json(const std::vector<TraceEvent>& events,
                           SimTime now);

} // namespace ddbs
