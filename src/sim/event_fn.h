// EventFn: the simulator's pooled callback type. A move-only, type-erased void()
// callable with small-buffer optimisation — closures whose captures fit in
// kInlineBytes are stored in place (no heap allocation per scheduled event, the
// common case for protocol timers capturing a `this` plus a few ints); larger
// closures fall back to a single heap allocation, exactly like std::function.
#ifndef DUMBNET_SRC_SIM_EVENT_FN_H_
#define DUMBNET_SRC_SIM_EVENT_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dumbnet {

class EventFn {
 public:
  // Sized so a capture of `this` + ~5 words stays inline; the event pool stores
  // EventFn by value, so growing this grows every pooled slot.
  static constexpr size_t kInlineBytes = 48;

  // True when a callable of type Fn is stored in place. Fast paths
  // static_assert it on the closures they schedule per packet.
  template <typename Fn>
  static constexpr bool kStoresInline = sizeof(Fn) <= kInlineBytes &&
                                        alignof(Fn) <= alignof(std::max_align_t) &&
                                        std::is_nothrow_move_constructible_v<Fn>;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::decay_t<F>;
    if constexpr (kStoresInline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      *reinterpret_cast<Fn**>(static_cast<void*>(buf_)) = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  // Precondition: non-empty. The simulator moves the EventFn out of its slot
  // before invoking, so a callback may freely schedule into the freed slot.
  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }

  // Destroys the held callable (releasing captured resources) and becomes empty.
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  // True when the callable lives in the inline buffer (no heap allocation).
  bool stored_inline() const { return ops_ != nullptr && ops_->inline_storage; }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src);  // move-construct dst from src, destroy src
    void (*destroy)(void*);
    bool inline_storage;
  };

  template <typename Fn>
  struct InlineOps {
    static Fn* Get(void* p) { return std::launder(reinterpret_cast<Fn*>(p)); }
    static void Invoke(void* p) { (*Get(p))(); }
    static void Relocate(void* dst, void* src) {
      Fn* s = Get(src);
      ::new (dst) Fn(std::move(*s));
      s->~Fn();
    }
    static void Destroy(void* p) { Get(p)->~Fn(); }
    static constexpr Ops ops{&Invoke, &Relocate, &Destroy, true};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* Get(void* p) { return *std::launder(reinterpret_cast<Fn**>(p)); }
    static void Invoke(void* p) { (*Get(p))(); }
    static void Relocate(void* dst, void* src) {
      *reinterpret_cast<Fn**>(dst) = Get(src);
    }
    static void Destroy(void* p) { delete Get(p); }
    static constexpr Ops ops{&Invoke, &Relocate, &Destroy, false};
  };

  void MoveFrom(EventFn& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_SIM_EVENT_FN_H_
