// Move-only callable with small-buffer optimization, used for every event
// the simulator schedules (EventFn = InlineFn<void()>), every lock grant,
// every RPC request handler and response callback and every DM lock-chain
// continuation. Unlike std::function it never requires the target to be
// copyable, so envelopes and other heavy captures are *moved* through the
// scheduler instead of duplicated, and callables up to kInlineBytes live
// inside the object -- no heap allocation on the DES hot path for the
// common closures (a `this` pointer plus a few ids, or a response being
// assembled). std::function's 16-byte buffer makes nearly every such
// closure allocate.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ddbs {

template <typename Sig>
class InlineFn;

template <typename R, typename... Args>
class InlineFn<R(Args...)> {
 public:
  // Closures at or under this size (and alignment) are stored inline. The
  // buffer is pointer-aligned, not max_align_t-aligned, which keeps the
  // whole object at 72 bytes; closures capture pointers and integers.
  static constexpr size_t kInlineBytes = 64;
  static constexpr size_t kInlineAlign = alignof(void*);

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {} // NOLINT(google-explicit-constructor)

  template <typename F,
            typename Fn = std::remove_cvref_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, InlineFn> &&
                                        std::is_invocable_r_v<R, Fn&, Args...>>>
  InlineFn(F&& f) { // NOLINT(google-explicit-constructor)
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &InlineOps<Fn>::vt;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = &HeapOps<Fn>::vt;
    }
  }

  InlineFn(InlineFn&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) vt_->relocate(buf_, other.buf_);
    other.vt_ = nullptr;
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      vt_ = other.vt_;
      if (vt_ != nullptr) vt_->relocate(buf_, other.buf_);
      other.vt_ = nullptr;
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  R operator()(Args... args) {
    return vt_->invoke(buf_, std::forward<Args>(args)...);
  }

  // True when the current target lives in the inline buffer (tests).
  bool is_inline() const noexcept { return vt_ != nullptr && vt_->inline_storage; }

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  struct VTable {
    R (*invoke)(void* storage, Args&&... args);
    // Move the target from src storage into (uninitialized) dst storage and
    // end its lifetime in src. Must not throw: inline targets are required
    // to be nothrow-move-constructible, heap targets just move a pointer.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool inline_storage;
  };

  template <typename Fn>
  struct InlineOps {
    static Fn* get(void* p) noexcept {
      return std::launder(reinterpret_cast<Fn*>(p));
    }
    static R invoke(void* p, Args&&... args) {
      return (*get(p))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) noexcept {
      Fn* s = get(src);
      ::new (dst) Fn(std::move(*s));
      s->~Fn();
    }
    static void destroy(void* p) noexcept { get(p)->~Fn(); }
    static constexpr VTable vt{&invoke, &relocate, &destroy, true};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* get(void* p) noexcept {
      return *std::launder(reinterpret_cast<Fn**>(p));
    }
    static R invoke(void* p, Args&&... args) {
      return (*get(p))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) Fn*(get(src));
    }
    static void destroy(void* p) noexcept { delete get(p); }
    static constexpr VTable vt{&invoke, &relocate, &destroy, false};
  };

  alignas(kInlineAlign) std::byte buf_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

} // namespace ddbs
