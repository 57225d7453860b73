// Per-site store of committed physical copies. This object models the
// site's *stable* database image: it survives crashes (only the DM's
// volatile state -- locks, staged writes, status tables in volatile mode --
// is lost). The unreadable mark of paper Section 3.2 lives here too, so a
// crash during refresh can only leave copies pessimistically marked.
//
// Host memory follows what the site holds, not the size of the database.
// Data copies live in a compact directory: the ascending ids of the data
// items the site has ever held, with a parallel vector of slots. The
// directory is filled in id order at bootstrap; a copy installed later for
// an absent id is inserted in sorted position. A store indexed by its
// site's catalog row (index_by) finds a copy in O(1): the catalog keeps
// each copy's position in its site's ascending item list, which is exactly
// the directory position once bootstrap has filled it. A position that
// does not check out (a store being rebuilt, an id outside the row) falls
// back to binary search, as does an unindexed store.
// NS copies (kNsBase + site) live in a small side vector indexed by site,
// since every site hosts all n of them. No other ids are stored. Pointers
// returned by find() are invalidated by create()/install() of a
// previously-absent item -- no caller holds one across an install (they
// re-find after staging).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace ddbs {

class Catalog;
class StorageSink;

struct Copy {
  Value value = 0;
  Version version;         // tag of the writing transaction
  bool unreadable = false; // missed updates; refresh before serving reads
};

class KvStore {
 public:
  // Capacity hint for the data directory (the number of data copies the
  // site hosts), so bootstrap fills it without regrowth.
  void reserve(size_t n_data) {
    data_ids_.reserve(n_data);
    data_.reserve(n_data);
  }

  // Create a copy with the initial database state (writer txn 0).
  void create(ItemId item, Value initial);

  bool exists(ItemId item) const { return find(item) != nullptr; }

  const Copy* find(ItemId item) const;

  // Install a committed write. Creates the copy if absent (a copier can
  // materialize a copy the site hosts but never initialized).
  void install(ItemId item, Value value, Version version);

  void mark_unreadable(ItemId item);
  void clear_mark(ItemId item);

  std::vector<ItemId> items() const;            // ascending
  std::vector<ItemId> unreadable_items() const; // ascending
  size_t unreadable_count() const { return unreadable_count_; }
  size_t size() const { return size_; }
  // Host bytes held by the directory and slot arrays (capacity, not size).
  size_t bytes() const;

  // Look data copies up through `cat`'s positions for `site`. The
  // catalog must outlive the store.
  void index_by(const Catalog* cat, SiteId site) {
    cat_ = cat;
    site_ = site;
  }

  // Mutation observer (durable engine); null = no notifications.
  void set_sink(StorageSink* sink) { sink_ = sink; }
  // Drop every copy (a durable-engine crash discards the RAM image; the
  // checkpoint + log rebuild it at reboot). Not a sink-visible mutation.
  // The directory stays, so the rebuild refills the same slots.
  void wipe();

 private:
  struct Slot {
    Copy copy;
    bool present = false;
  };

  // Position of the first directory id >= item.
  size_t lower_index(ItemId item) const;
  const Slot* slot_of(ItemId item) const;
  Slot* slot_of(ItemId item) {
    return const_cast<Slot*>(std::as_const(*this).slot_of(item));
  }
  // Returns the slot for `item`, adding it to the directory (or growing the
  // NS vector) if needed. Sets *created when the copy was absent.
  Slot& ensure_slot(ItemId item, bool* created);

  std::vector<ItemId> data_ids_; // ascending data-item ids
  std::vector<Slot> data_;       // parallel to data_ids_
  std::vector<Slot> ns_;         // NS copies, indexed by site
  size_t size_ = 0;
  size_t unreadable_count_ = 0;
  StorageSink* sink_ = nullptr;
  const Catalog* cat_ = nullptr;
  SiteId site_ = kInvalidSite;
};

} // namespace ddbs
