// Site operational state (paper Section 3.1): down / recovering / up, the
// actual session number as[k], and helpers for the nominal session vector.
//
// as[k] "can be implemented as a variable shared by the TM and DM at site
// k" -- SiteState is exactly that shared variable; the Site object owns it
// and hands references to its TM, DM and recovery manager.
#pragma once

#include "common/types.h"
#include "storage/kv_store.h"

namespace ddbs {

enum class SiteMode : uint8_t { kDown, kRecovering, kUp };

const char* to_string(SiteMode m);

struct SiteState {
  SiteMode mode = SiteMode::kDown;
  SessionNum session = 0; // as[k]; 0 unless mode == kUp

  bool operational() const { return mode == SiteMode::kUp; }
};

// Read this site's local copy of the nominal session vector straight from
// the store, without locks. ONLY for hints (failure detector, metrics) --
// transactions must read NS under concurrency control.
SessionVector peek_ns_vector(const KvStore& kv, int n_sites);
// One entry of the same (0 when the copy is absent).
inline SessionNum peek_ns(const KvStore& kv, SiteId k) {
  const Copy* c = kv.find(ns_item(k));
  return c == nullptr ? 0 : static_cast<SessionNum>(c->value);
}

} // namespace ddbs
