#include "replication/catalog.h"

#include <algorithm>
#include <cassert>

#include "common/random.h"

namespace ddbs {

Catalog Catalog::make(const Config& cfg) {
  Catalog c;
  c.n_sites_ = cfg.n_sites;
  c.n_items_ = cfg.n_items;
  const int r = cfg.effective_replication();
  assert(r >= 1);
  Rng rng(cfg.placement_seed);

  c.all_sites_.resize(static_cast<size_t>(cfg.n_sites));
  for (int i = 0; i < cfg.n_sites; ++i) {
    c.all_sites_[static_cast<size_t>(i)] = i;
  }

  // Every regular item has exactly r resident sites, so the item-major CSR
  // has uniform rows; the offsets are kept anyway so the layout stays valid
  // if placement ever becomes non-uniform.
  c.item_off_.resize(static_cast<size_t>(cfg.n_items) + 1);
  c.site_ids_.resize(static_cast<size_t>(cfg.n_items) * static_cast<size_t>(r));
  std::vector<uint64_t> site_counts(static_cast<size_t>(cfg.n_sites), 0);

  // Distinct random sites via partial Fisher-Yates over site indices. The
  // scratch permutation is restored to the identity by undoing the swaps in
  // reverse, so the RNG draw sequence (and therefore every placement ever
  // recorded in a repro artifact) is exactly the historical one, without
  // re-building an n_sites array per item.
  std::vector<SiteId> all(c.all_sites_);
  std::vector<size_t> swapped(static_cast<size_t>(r));
  for (int64_t x = 0; x < cfg.n_items; ++x) {
    for (int i = 0; i < r; ++i) {
      const auto j = static_cast<size_t>(rng.uniform(i, cfg.n_sites - 1));
      std::swap(all[static_cast<size_t>(i)], all[j]);
      swapped[static_cast<size_t>(i)] = j;
    }
    SiteId* chosen = c.site_ids_.data() +
                     static_cast<size_t>(x) * static_cast<size_t>(r);
    std::copy(all.begin(), all.begin() + r, chosen);
    for (int i = r - 1; i >= 0; --i) {
      std::swap(all[static_cast<size_t>(i)], all[swapped[static_cast<size_t>(i)]]);
    }
    std::sort(chosen, chosen + r);
    c.item_off_[static_cast<size_t>(x)] =
        static_cast<uint32_t>(static_cast<size_t>(x) * static_cast<size_t>(r));
    for (int i = 0; i < r; ++i) {
      ++site_counts[static_cast<size_t>(chosen[i])];
    }
  }
  c.item_off_[static_cast<size_t>(cfg.n_items)] =
      static_cast<uint32_t>(c.site_ids_.size());

  // Site-major CSR by counting sort; items are scattered in ascending x
  // order, so each site's row comes out ascending.
  c.site_off_.resize(static_cast<size_t>(cfg.n_sites) + 1);
  c.site_off_[0] = 0;
  for (int s = 0; s < cfg.n_sites; ++s) {
    c.site_off_[static_cast<size_t>(s) + 1] =
        c.site_off_[static_cast<size_t>(s)] +
        site_counts[static_cast<size_t>(s)];
  }
  c.item_ids_.resize(static_cast<size_t>(c.site_off_[static_cast<size_t>(
      cfg.n_sites)]));
  std::vector<uint64_t> cursor(c.site_off_.begin(), c.site_off_.end() - 1);
  // Copies are visited in site_ids_ order, so copy_pos_ fills by appending.
  c.copy_pos_.reserve(c.site_ids_.size());
  for (int64_t x = 0; x < cfg.n_items; ++x) {
    for (SiteId site : c.sites_of(x)) {
      const auto s = static_cast<size_t>(site);
      c.copy_pos_.push_back(
          static_cast<uint32_t>(cursor[s] - c.site_off_[s]));
      c.item_ids_[static_cast<size_t>(cursor[s]++)] = x;
    }
  }
  return c;
}

bool Catalog::has_copy(SiteId site, ItemId item) const {
  if (is_ns_item(item)) return true;
  if (is_status_item(item)) return status_site(item) == site;
  const auto sites = sites_of(item);
  return std::binary_search(sites.begin(), sites.end(), site);
}

size_t Catalog::bytes() const {
  return item_off_.capacity() * sizeof(uint32_t) +
         site_ids_.capacity() * sizeof(SiteId) +
         copy_pos_.capacity() * sizeof(uint32_t) +
         site_off_.capacity() * sizeof(uint64_t) +
         item_ids_.capacity() * sizeof(ItemId) +
         all_sites_.capacity() * sizeof(SiteId);
}

} // namespace ddbs
