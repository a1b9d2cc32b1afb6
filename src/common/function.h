// Move-only callable wrapper for the event-driven core.
//
// std::function requires copyable callables, which forced batch hand-offs
// through shared_ptr (one control-block allocation per simulated network
// message). UniqueFunction accepts move-only captures — a Batch moves
// through the scheduler — and stores callables up to kInlineSize bytes
// inline, so scheduling an event does not allocate. A callable lives either
// inline or on the heap, never both, so the heap pointer shares the inline
// buffer and the wrapper stays 80 bytes.
#ifndef THEMIS_COMMON_FUNCTION_H_
#define THEMIS_COMMON_FUNCTION_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace themis {

/// \brief Move-only `void()` function with small-buffer storage.
class UniqueFunction {
 public:
  /// Inline storage size; sized for a lambda capturing a node pointer plus a
  /// moved Batch (the network hop, the hottest event payload in the
  /// simulator).
  static constexpr size_t kInlineSize = 72;
  /// Inline storage alignment: pointer-aligned, so that the buffer plus the
  /// vtable pointer pack into 80 bytes. Over-aligned callables go to the heap.
  static constexpr size_t kInlineAlign = alignof(void*);

  /// Whether a callable of type `Fn` is stored inline (no allocation).
  template <typename Fn>
  static constexpr bool kFitsInline =
      sizeof(Fn) <= kInlineSize && alignof(Fn) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<Fn>;

  UniqueFunction() = default;
  UniqueFunction(std::nullptr_t) {}  // NOLINT

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFunction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  UniqueFunction(F&& f) {  // NOLINT: implicit like std::function
    using Fn = std::decay_t<F>;
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    } else {
      heap_ = new Fn(std::forward<F>(f));
    }
    vtable_ = VTableFor<Fn>();
  }

  UniqueFunction(UniqueFunction&& other) noexcept { MoveFrom(other); }
  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { Reset(); }

  void operator()() { vtable_->invoke(Target()); }

  explicit operator bool() const { return vtable_ != nullptr; }

 private:
  struct VTable {
    void (*invoke)(void* target);
    /// Moves the target from `from_fn`'s storage into `to_fn` (inline
    /// callables only; heap callables transfer by pointer).
    void (*relocate)(UniqueFunction* to_fn, UniqueFunction* from_fn);
    void (*destroy)(void* target);
    bool inline_stored;
  };

  template <typename Fn>
  static void InvokeImpl(void* target) {
    (*static_cast<Fn*>(target))();
  }

  template <typename Fn>
  static void RelocateImpl(UniqueFunction* to_fn, UniqueFunction* from_fn) {
    if constexpr (kFitsInline<Fn>) {
      Fn* src = static_cast<Fn*>(static_cast<void*>(from_fn->storage_));
      ::new (static_cast<void*>(to_fn->storage_)) Fn(std::move(*src));
      src->~Fn();
    } else {
      to_fn->heap_ = from_fn->heap_;
    }
  }

  template <typename Fn>
  static void DestroyImpl(void* target) {
    if constexpr (kFitsInline<Fn>) {
      static_cast<Fn*>(target)->~Fn();
    } else {
      delete static_cast<Fn*>(target);
    }
  }

  template <typename Fn>
  static const VTable* VTableFor() {
    static constexpr VTable vt = {&InvokeImpl<Fn>, &RelocateImpl<Fn>,
                                  &DestroyImpl<Fn>, kFitsInline<Fn>};
    return &vt;
  }

  void* Target() {  // callers ensure vtable_ != nullptr
    return vtable_->inline_stored ? static_cast<void*>(storage_) : heap_;
  }

  void Reset() {
    if (vtable_ == nullptr) return;
    vtable_->destroy(Target());
    vtable_ = nullptr;
  }

  void MoveFrom(UniqueFunction& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) vtable_->relocate(this, &other);
    other.vtable_ = nullptr;
  }

  // Inline target or heap pointer; `vtable_->inline_stored` says which.
  union {
    alignas(kInlineAlign) unsigned char storage_[kInlineSize];
    void* heap_;
  };
  const VTable* vtable_ = nullptr;
};

static_assert(sizeof(UniqueFunction) == 80,
              "UniqueFunction sits in every event-queue slot");

}  // namespace themis

#endif  // THEMIS_COMMON_FUNCTION_H_
