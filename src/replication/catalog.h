// Replica catalog: where the copies of each logical item live. The paper
// assumes "the information regarding where the copies of data item X are
// located is available at least at the resident sites of X" -- we make the
// catalog globally known and immutable for a run (no data migration), which
// is the common reading.
//
// Nominal session numbers NS[k] are fully replicated at all n sites
// (Section 3.1), and each site's status table is resident only at that site.
//
// Storage is CSR-style (offset + id arrays) in both directions so that a
// million-item catalog is a handful of flat allocations and the hot-path
// lookups (`sites_of` in every read/write plan, `items_at` in every
// recovery mark pass) are allocation-free span views into those arrays.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/config.h"
#include "common/types.h"

namespace ddbs {

class Catalog {
 public:
  // Seeded placement: each regular item gets `replication_degree` distinct
  // sites (per-item partial Fisher-Yates over the site indices).
  static Catalog make(const Config& cfg);

  // Resident sites of an item, ascending. NS items resolve to all sites;
  // a status item resolves to its owning site only. The span aliases
  // catalog-owned storage and stays valid for the catalog's lifetime.
  std::span<const SiteId> sites_of(ItemId item) const {
    if (is_ns_item(item)) return {all_sites_.data(), all_sites_.size()};
    if (is_status_item(item)) {
      return {all_sites_.data() + status_site(item), 1};
    }
    const size_t b = item_off_[static_cast<size_t>(item)];
    const size_t e = item_off_[static_cast<size_t>(item) + 1];
    return {site_ids_.data() + b, e - b};
  }

  int replica_count(ItemId item) const {
    return static_cast<int>(sites_of(item).size());
  }

  bool has_copy(SiteId site, ItemId item) const;

  // All regular items hosted by `site`, ascending. Same lifetime contract
  // as sites_of.
  std::span<const ItemId> items_at(SiteId site) const {
    const size_t b = site_off_[static_cast<size_t>(site)];
    const size_t e = site_off_[static_cast<size_t>(site) + 1];
    return {item_ids_.data() + b, e - b};
  }

  // Position of regular item `item` in items_at(site), or -1 when the
  // site hosts no copy of it: the direct index a site's copy store uses
  // instead of searching its directory.
  int64_t position_at(SiteId site, ItemId item) const {
    if (item < 0 || item >= n_items_) return -1;
    const size_t b = item_off_[static_cast<size_t>(item)];
    const size_t e = item_off_[static_cast<size_t>(item) + 1];
    for (size_t i = b; i < e; ++i) {
      if (site_ids_[i] == site) return copy_pos_[i];
    }
    return -1;
  }

  int n_sites() const { return n_sites_; }
  int64_t n_items() const { return n_items_; }

  // Resident bytes of the placement arrays (reported as catalog.bytes).
  size_t bytes() const;

 private:
  int n_sites_ = 0;
  int64_t n_items_ = 0;
  // item -> sites: sites of x are site_ids_[item_off_[x] .. item_off_[x+1]).
  std::vector<uint32_t> item_off_;
  std::vector<SiteId> site_ids_;
  // Parallel to site_ids_: the copy's position in that site's items_at.
  std::vector<uint32_t> copy_pos_;
  // site -> items: items of s are item_ids_[site_off_[s] .. site_off_[s+1]).
  std::vector<uint64_t> site_off_;
  std::vector<ItemId> item_ids_;
  // Identity [0, n_sites): backs the NS (all sites) and status (one site)
  // answers without a per-call allocation.
  std::vector<SiteId> all_sites_;
};

} // namespace ddbs
