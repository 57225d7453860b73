// Per-site RPC endpoint: request/response correlation plus per-request
// timeouts. A timeout is how the protocol *suspects* a site failure -- the
// transport never says "down" explicitly (fail-stop, no failure oracle).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/network.h"
#include "sim/inline_fn.h"
#include "sim/scheduler.h"
#include "sim/trace.h"

namespace ddbs {

class RpcEndpoint {
 public:
  // Called for every incoming request envelope, which it receives by
  // rvalue and may keep.
  using RequestHandler = InlineFn<void(Envelope&&)>;
  // Called exactly once per send_request: with kOk and the response payload,
  // or with kTimeout and nullptr. Move-only, so captures may be too.
  using ResponseCb = InlineFn<void(Code, const Payload*)>;

  RpcEndpoint(SiteId self, Network& net, Scheduler& sched);

  void start(RequestHandler handler);

  // Optional causal span propagation: outgoing envelopes are stamped with
  // the tracer's ambient span, and handlers / response callbacks / timeout
  // callbacks run scoped to the span they belong to.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  uint64_t send_request(SiteId to, Payload payload, SimTime timeout,
                        ResponseCb cb);
  // Fire-and-forget (no response expected, no timeout tracked).
  void send_oneway(SiteId to, Payload payload);
  // Reply to a received request.
  void respond(const Envelope& request, Payload payload);

  // Forget an outstanding request; its callback will never run.
  void cancel_request(uint64_t rpc_id);

  // Crash: drop every pending request without invoking callbacks (the
  // caller's state is being wiped too) and cancel their timeout events.
  void reset();

  SiteId self() const { return self_; }
  size_t pending_count() const { return outstanding_; }

 private:
  // Outstanding requests live in a recycled, chunked slab. An rpc id packs
  // (slot generation << 32 | slot index); the generation is odd while the
  // request is outstanding, so a response, timeout or cancel finds its
  // entry with a bounds check and a compare, and a stale id (answered,
  // timed out, cancelled, or from before a reset) finds nothing.
  struct Pending {
    ResponseCb cb;
    EventId timeout_ev = 0;
    // Span to resume when the response (or timeout) arrives, so the
    // continuation stays attributed to the request's causal context.
    SpanId resume_span = 0;
    uint32_t gen = 0;
  };
  static constexpr uint32_t kChunkShift = 4;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;

  Pending& slot(uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }
  // The outstanding request `rpc_id` names, or nullptr.
  Pending* find(uint64_t rpc_id);
  // Retire an outstanding request's slot, dropping its callback.
  void release(uint64_t rpc_id);
  // Take the callback and span of an outstanding request and retire it.
  std::pair<ResponseCb, SpanId> take(uint64_t rpc_id);

  void on_envelope(Envelope&& env);

  SiteId self_;
  Network& net_;
  Scheduler& sched_;
  RequestHandler handler_;
  Tracer* tracer_ = nullptr;
  std::vector<std::unique_ptr<Pending[]>> chunks_;
  std::vector<uint32_t> free_;
  uint32_t slot_count_ = 0;
  size_t outstanding_ = 0;
};

} // namespace ddbs
