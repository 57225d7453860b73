#include "storage/kv_store.h"

#include <algorithm>
#include <cassert>

#include "replication/catalog.h"
#include "storage/storage_sink.h"

namespace ddbs {

size_t KvStore::lower_index(ItemId item) const {
  return static_cast<size_t>(
      std::lower_bound(data_ids_.begin(), data_ids_.end(), item) -
      data_ids_.begin());
}

const KvStore::Slot* KvStore::slot_of(ItemId item) const {
  const Slot* s = nullptr;
  if (is_ns_item(item)) {
    const size_t i = static_cast<size_t>(item - kNsBase);
    if (i < ns_.size()) s = &ns_[i];
  } else {
    const int64_t p = cat_ != nullptr ? cat_->position_at(site_, item) : -1;
    if (p >= 0 && static_cast<size_t>(p) < data_ids_.size() &&
        data_ids_[static_cast<size_t>(p)] == item) {
      s = &data_[static_cast<size_t>(p)];
    } else {
      const size_t i = lower_index(item);
      if (i < data_ids_.size() && data_ids_[i] == item) s = &data_[i];
    }
  }
  return s != nullptr && s->present ? s : nullptr;
}

KvStore::Slot& KvStore::ensure_slot(ItemId item, bool* created) {
  assert((is_data_item(item) || is_ns_item(item)) && "not a stored id");
  Slot* s;
  if (is_ns_item(item)) {
    const size_t i = static_cast<size_t>(item - kNsBase);
    if (i >= ns_.size()) ns_.resize(i + 1);
    s = &ns_[i];
  } else {
    const size_t i = lower_index(item);
    if (i == data_ids_.size() || data_ids_[i] != item) {
      const auto at = static_cast<std::ptrdiff_t>(i);
      data_ids_.insert(data_ids_.begin() + at, item);
      data_.insert(data_.begin() + at, Slot{});
    }
    s = &data_[i];
  }
  *created = !s->present;
  if (!s->present) {
    s->present = true;
    ++size_;
  }
  return *s;
}

void KvStore::create(ItemId item, Value initial) {
  bool created;
  Slot& s = ensure_slot(item, &created);
  assert(created && "create() of an existing copy");
  (void)created;
  s.copy = Copy{initial, Version{}, false};
  if (sink_ != nullptr) sink_->on_kv_create(item, initial);
}

const Copy* KvStore::find(ItemId item) const {
  const Slot* s = slot_of(item);
  return s == nullptr ? nullptr : &s->copy;
}

void KvStore::install(ItemId item, Value value, Version version) {
  bool created;
  Slot& s = ensure_slot(item, &created);
  if (!created && s.copy.unreadable) --unreadable_count_;
  s.copy.value = value;
  s.copy.version = version;
  s.copy.unreadable = false;
  if (sink_ != nullptr) sink_->on_kv_install(item, value, version);
}

void KvStore::mark_unreadable(ItemId item) {
  Slot* s = slot_of(item);
  assert(s != nullptr);
  if (!s->copy.unreadable) {
    s->copy.unreadable = true;
    ++unreadable_count_;
    if (sink_ != nullptr) sink_->on_kv_mark(item);
  }
}

void KvStore::clear_mark(ItemId item) {
  Slot* s = slot_of(item);
  assert(s != nullptr);
  if (s->copy.unreadable) {
    s->copy.unreadable = false;
    --unreadable_count_;
    if (sink_ != nullptr) sink_->on_kv_clear_mark(item);
  }
}

void KvStore::wipe() {
  std::fill(data_.begin(), data_.end(), Slot{});
  std::fill(ns_.begin(), ns_.end(), Slot{});
  size_ = 0;
  unreadable_count_ = 0;
}

size_t KvStore::bytes() const {
  return data_ids_.capacity() * sizeof(ItemId) +
         (data_.capacity() + ns_.capacity()) * sizeof(Slot);
}

std::vector<ItemId> KvStore::items() const {
  std::vector<ItemId> out;
  out.reserve(size_);
  for (size_t i = 0; i < data_.size(); ++i) {
    if (data_[i].present) out.push_back(data_ids_[i]);
  }
  for (size_t i = 0; i < ns_.size(); ++i) {
    if (ns_[i].present) out.push_back(kNsBase + static_cast<ItemId>(i));
  }
  return out;
}

std::vector<ItemId> KvStore::unreadable_items() const {
  std::vector<ItemId> out;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (data_[i].present && data_[i].copy.unreadable) {
      out.push_back(data_ids_[i]);
    }
  }
  for (size_t i = 0; i < ns_.size(); ++i) {
    if (ns_[i].present && ns_[i].copy.unreadable) {
      out.push_back(kNsBase + static_cast<ItemId>(i));
    }
  }
  return out;
}

} // namespace ddbs
