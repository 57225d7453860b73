#include "sim/trace.h"

#include <unordered_map>

namespace ddbs {

const char* to_string(TraceKind k) {
  switch (k) {
    case TraceKind::kTxnBegin: return "txn_begin";
    case TraceKind::kTxnCommit: return "txn_commit";
    case TraceKind::kTxnAbort: return "txn_abort";
    case TraceKind::kSessionReject: return "session_reject";
    case TraceKind::kControlUpStart: return "control_up_start";
    case TraceKind::kControlUpCommit: return "control_up_commit";
    case TraceKind::kControlDownStart: return "control_down_start";
    case TraceKind::kControlDownCommit: return "control_down_commit";
    case TraceKind::kCopierStart: return "copier_start";
    case TraceKind::kCopierCommit: return "copier_commit";
    case TraceKind::kDetectorVerify: return "detector_verify";
    case TraceKind::kDetectorDeclare: return "detector_declare";
    case TraceKind::kRecoveryStarted: return "recovery";
    case TraceKind::kNominallyUp: return "nominally_up";
    case TraceKind::kFullyCurrent: return "fully_current";
    case TraceKind::kCopierStarved: return "copier_starved";
    case TraceKind::kSiteCrash: return "site_crash";
    case TraceKind::kSiteRecover: return "site_recover";
    case TraceKind::kReplayDone: return "replay_done";
    case TraceKind::kUserTxn: return "user_txn";
    case TraceKind::kCopier: return "copier";
    case TraceKind::kControlUp: return "control_up";
    case TraceKind::kControlDown: return "control_down";
    case TraceKind::kLockWait: return "lock_wait";
    case TraceKind::kStage: return "stage";
    case TraceKind::kApply: return "apply";
    case TraceKind::kSpanEnd: return "span_end";
  }
  return "?";
}

void Tracer::for_each(const std::function<void(const TraceEvent&)>& fn) const {
  const size_t n = size();
  const size_t first = next_ > ring_.size() ? next_ % ring_.size() : 0;
  for (size_t i = 0; i < n; ++i) fn(ring_[(first + i) % ring_.size()]);
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  for_each([&out](const TraceEvent& e) { out.push_back(e); });
  return out;
}

namespace {

struct Slice {
  SpanId parent = 0;
  SimTime end = kNoTime; // kNoTime == still open at export
};

void append_i64(std::string& s, int64_t v) { s += std::to_string(v); }

} // namespace

std::string to_chrome_json(const std::vector<TraceEvent>& events,
                           SimTime now) {
  // First pass: index begins and ends so begin/end pairs can be stitched
  // into "X" complete events. A begin whose end fell off the ring (or
  // never happened) is closed at `now`; an end whose begin was overwritten
  // is dropped -- without the begin there is nothing to anchor the slice
  // to.
  std::unordered_map<SpanId, Slice> spans;
  for (const TraceEvent& e : events) {
    if (e.phase == TracePhase::kBegin) {
      spans[e.span] = {e.parent, kNoTime};
    } else if (e.phase == TracePhase::kEnd) {
      auto it = spans.find(e.span);
      if (it != spans.end()) it->second.end = e.at;
    }
  }

  // The tid lane is the root of the causal tree, so a coordinator and all
  // the per-site work it caused share one row in the viewer.
  auto root_of = [&](SpanId id) {
    SpanId cur = id;
    for (int depth = 0; depth < 64; ++depth) {
      auto it = spans.find(cur);
      if (it == spans.end() || it->second.parent == 0) return cur;
      cur = it->second.parent;
    }
    return cur;
  };

  std::string out;
  out.reserve(256 + events.size() * 112);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // `lane` picks the tid (its root); `parent` is the enclosing span shown
  // in args.
  auto write = [&](const TraceEvent& e, bool slice, SpanId lane,
                   SpanId parent) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":\"";
    out += to_string(e.kind);
    out += slice ? "\",\"cat\":\"ddbs\",\"ph\":\"X\",\"ts\":"
                 : "\",\"cat\":\"ddbs\",\"ph\":\"i\",\"ts\":";
    append_i64(out, e.at);
    out += ",\"pid\":";
    append_i64(out, e.site);
    out += ",\"tid\":";
    append_i64(out, static_cast<int64_t>(lane ? root_of(lane) : 0));
    if (slice) {
      SimTime end = spans[e.span].end;
      if (end == kNoTime) end = now;
      out += ",\"dur\":";
      append_i64(out, end > e.at ? end - e.at : 0);
      out += ",\"args\":{\"span\":";
      append_i64(out, static_cast<int64_t>(e.span));
      out += ",\"parent\":";
    } else {
      out += ",\"s\":\"t\",\"args\":{\"parent\":";
    }
    append_i64(out, static_cast<int64_t>(parent));
    out += ",\"txn\":";
    append_i64(out, static_cast<int64_t>(e.txn));
    out += ",\"a\":";
    append_i64(out, e.a);
    out += ",\"b\":";
    append_i64(out, e.b);
    out += "}}";
  };

  // Emit in stream order (deterministic for a fixed seed): slices at their
  // begin event, instants in place.
  for (const TraceEvent& e : events) {
    switch (e.phase) {
      case TracePhase::kBegin:
        write(e, true, e.span, e.parent);
        break;
      case TracePhase::kInstant:
        write(e, false, e.parent, e.parent);
        break;
      case TracePhase::kEnd:
        // A milestone that closes a span is also a point in time.
        if (e.kind != TraceKind::kSpanEnd) write(e, false, e.span, e.span);
        break;
    }
  }

  out += "\n]}\n";
  return out;
}

} // namespace ddbs
