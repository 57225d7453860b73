// Small vector with inline storage for the common case. Site lists in wire
// messages (missed/written sites, batch targets) are almost always bounded by
// the replication degree, so a handful of inline slots removes a heap
// allocation per message on the steady-state write path. Restricted to
// trivially copyable element types: growth and copies are memcpy, and no
// destructor bookkeeping is needed.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "common/types.h"

namespace ddbs {

template <typename T, uint32_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is memcpy-based; use std::vector for nontrivial T");
  static_assert(N > 0, "inline capacity must be nonzero");

 public:
  SmallVec() = default;

  SmallVec(std::initializer_list<T> init) {
    for (const T& v : init) push_back(v);
  }

  // Interop with std::vector keeps call sites (replication plans, catalog
  // queries) unchanged while the wire structs hold inline storage.
  SmallVec(const std::vector<T>& v) { assign(v.begin(), v.end()); }

  SmallVec& operator=(const std::vector<T>& v) {
    assign(v.begin(), v.end());
    return *this;
  }

  SmallVec(std::span<const T> v) { assign(v.begin(), v.end()); }

  SmallVec& operator=(std::span<const T> v) {
    assign(v.begin(), v.end());
    return *this;
  }

  SmallVec& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  SmallVec(const SmallVec& other) { copy_from(other); }

  SmallVec(SmallVec&& other) noexcept { steal_from(other); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      clear_storage();
      copy_from(other);
    }
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      clear_storage();
      steal_from(other);
    }
    return *this;
  }

  ~SmallVec() { clear_storage(); }

  void push_back(const T& v) {
    if (size_ == cap_) grow();
    data()[size_++] = v;
  }

  template <typename It>
  void assign(It first, It last) {
    size_ = 0;
    for (; first != last; ++first) push_back(*first);
  }

  void clear() { size_ = 0; }

  // Shrink, or grow with value-initialized elements.
  void resize(size_t n) {
    if (n <= size_) {
      size_ = static_cast<decltype(size_)>(n);
      return;
    }
    while (size_ < n) push_back(T{});
  }

  void pop_back() {
    assert(size_ > 0);
    --size_;
  }

  T* data() { return heap_ != nullptr ? heap_ : inline_ptr(); }
  const T* data() const { return heap_ != nullptr ? heap_ : inline_ptr(); }

  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  T& operator[](size_t i) {
    assert(i < size_);
    return data()[i];
  }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return data()[i];
  }

  T& back() {
    assert(size_ > 0);
    return data()[size_ - 1];
  }
  const T& back() const {
    assert(size_ > 0);
    return data()[size_ - 1];
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    if (a.size_ != b.size_) return false;
    return std::memcmp(a.data(), b.data(), a.size_ * sizeof(T)) == 0;
  }

 private:
  T* inline_ptr() { return reinterpret_cast<T*>(inline_buf_); }
  const T* inline_ptr() const {
    return reinterpret_cast<const T*>(inline_buf_);
  }

  void grow() {
    const uint32_t new_cap = cap_ * 2;
    T* buf = static_cast<T*>(std::malloc(new_cap * sizeof(T)));
    if (buf == nullptr) std::abort();
    std::memcpy(buf, data(), size_ * sizeof(T));
    if (heap_ != nullptr) std::free(heap_);
    heap_ = buf;
    cap_ = new_cap;
  }

  void copy_from(const SmallVec& other) {
    if (other.size_ > N) {
      heap_ = static_cast<T*>(std::malloc(other.size_ * sizeof(T)));
      if (heap_ == nullptr) std::abort();
      cap_ = static_cast<uint32_t>(other.size_);
    }
    size_ = other.size_;
    std::memcpy(data(), other.data(), size_ * sizeof(T));
  }

  void steal_from(SmallVec& other) noexcept {
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      cap_ = other.cap_;
      size_ = other.size_;
      other.heap_ = nullptr;
      other.cap_ = N;
      other.size_ = 0;
    } else {
      size_ = other.size_;
      std::memcpy(inline_ptr(), other.inline_ptr(), size_ * sizeof(T));
      other.size_ = 0;
    }
  }

  void clear_storage() {
    if (heap_ != nullptr) {
      std::free(heap_);
      heap_ = nullptr;
    }
    cap_ = N;
    size_ = 0;
  }

  alignas(T) unsigned char inline_buf_[N * sizeof(T)];
  T* heap_ = nullptr;
  uint32_t size_ = 0;
  uint32_t cap_ = N;
};

// Site lists on the wire: replication degree bounds these in every workload
// we ship, so 8 inline slots covers them without allocation.
using SiteVec = SmallVec<SiteId, 8>;

} // namespace ddbs
