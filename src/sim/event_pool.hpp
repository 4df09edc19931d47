// Zero-allocation event machinery for the discrete-event simulator.
//
//  EventPool — slab/free-list allocator for event-callback captures that do
//              not fit UniqueFn's inline buffer. Chunks are recycled through a
//              free list, so a steady-state simulation performs no general
//              heap allocation per event; the pool's own counters are the
//              alloc accounting that bench/micro_simspeed.cpp reports.
//  UniqueFn  — move-only, small-buffer-optimized callable of any signature,
//              used for simulator events (EventFn = UniqueFn<void()>) and
//              for every completion on the per-I/O path. Captures up to
//              kInlineBytes (32 B — "this + a couple of ids/timestamps",
//              the common case) live inline; larger or nontrivial ones are
//              placed in an EventPool chunk. Nothing is ever copied:
//              callables move from creation to invocation.
//
// Layout note: a UniqueFn is exactly 48 bytes (32-byte buffer + two function
// pointers) whatever its signature, so that Event in calendar_queue.hpp —
// (t, seq, fn) — is exactly one 64-byte cache line. A spilled capture's
// chunk pointer and owning pool live in the first 16 bytes of the buffer
// rather than in separate members; invoke_ and destroy_ know which case
// they were instantiated for.
//
// Threading: the pool is thread-local (EventPool::local()), matching the
// single-threaded simulator; src/ starts no thread (dklint DK-T002). A
// UniqueFn whose capture spilled to the pool must be destroyed on the
// thread that created it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/check.hpp"

namespace dk::sim {

/// Fixed-chunk slab allocator with an intrusive free list.
class EventPool {
 public:
  /// One chunk serves any out-of-line capture up to this size; larger
  /// captures fall through to operator new (counted as oversize).
  static constexpr std::size_t kChunkBytes = 128;
  static constexpr std::size_t kChunksPerSlab = 1024;

  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;
  ~EventPool();

  void* alloc(std::size_t bytes);
  void dealloc(void* p, std::size_t bytes) noexcept;

  /// Allocation accounting, cumulative over the pool's lifetime. `live()`
  /// must drain to zero when every scheduled event has run or been dropped —
  /// tests/test_calendar_queue.cpp pins this leak check.
  std::uint64_t allocs() const { return allocs_; }
  std::uint64_t freelist_reuses() const { return freelist_reuses_; }
  std::uint64_t oversize_allocs() const { return oversize_allocs_; }
  std::uint64_t live() const { return live_; }
  std::size_t slabs() const { return slabs_.size(); }

  /// The calling thread's pool: the single-threaded simulator's one pool.
  static EventPool& local();

 private:
  struct alignas(alignof(std::max_align_t)) Chunk {
    std::byte data[kChunkBytes];
  };
  struct FreeNode {
    FreeNode* next;
  };

  std::vector<std::unique_ptr<Chunk[]>> slabs_;
  std::size_t next_chunk_ = kChunksPerSlab;  // forces first-slab carve
  FreeNode* free_ = nullptr;
  std::uint64_t allocs_ = 0;
  std::uint64_t freelist_reuses_ = 0;
  std::uint64_t oversize_allocs_ = 0;
  std::uint64_t live_ = 0;
};

template <typename Signature>
class UniqueFn;

/// Move-only type-erased callable with inline small-buffer storage, for any
/// signature: the simulator's events (EventFn below) and every completion
/// on the per-I/O path use it.
///
/// Inline storage is reserved for *trivially copyable* captures (pointers,
/// ids, timestamps — the overwhelmingly common case in this codebase), which
/// makes a move a plain memcpy: no virtual manager call, no per-member move,
/// no destructor on the moved-from shell. That matters because an event
/// moves several times on its way through the calendar queue (push ->
/// bucket -> sort-on-claim -> execution). Captures that are too big or carry
/// nontrivial members (a nested completion, a shared_ptr) live in a
/// recycled EventPool chunk whose pointer travels in the buffer.
template <typename R, typename... Args>
class UniqueFn<R(Args...)> {
 public:
  static constexpr std::size_t kInlineBytes = 32;

  UniqueFn() noexcept = default;
  UniqueFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, UniqueFn> &&
                std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>>>
  DK_HOT UniqueFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using T = std::remove_cvref_t<F>;
    constexpr bool kInline = sizeof(T) <= kInlineBytes &&
                             alignof(T) <= alignof(std::max_align_t) &&
                             std::is_trivially_copyable_v<T>;
    if constexpr (kInline) {
      ::new (static_cast<void*>(buf_)) T(std::forward<F>(f));
      invoke_ = [](void* p, Args&&... args) -> R {
        return call(*static_cast<T*>(p), std::forward<Args>(args)...);
      };
      // destroy_ stays null: trivially-copyable implies trivially
      // destructible, so teardown and moved-from shells cost nothing.
    } else {
      // The buffer holds the chunk and its pool, so teardown skips the
      // thread-local lookup.
      EventPool* pool = &EventPool::local();
      void* chunk = pool->alloc(sizeof(T));
      ::new (chunk) T(std::forward<F>(f));
      std::memcpy(buf_, &chunk, sizeof(chunk));
      std::memcpy(buf_ + sizeof(chunk), &pool, sizeof(pool));
      invoke_ = [](void* p, Args&&... args) -> R {
        return call(*static_cast<T*>(chunk_of(p)), std::forward<Args>(args)...);
      };
      destroy_ = [](void* p) {
        void* chunk = chunk_of(p);
        static_cast<T*>(chunk)->~T();
        EventPool* pool;
        std::memcpy(&pool, static_cast<std::byte*>(p) + sizeof(chunk),
                    sizeof(pool));
        pool->dealloc(chunk, sizeof(T));
      };
    }
  }

  UniqueFn(UniqueFn&& other) noexcept { steal(other); }
  UniqueFn& operator=(UniqueFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  UniqueFn(const UniqueFn&) = delete;
  UniqueFn& operator=(const UniqueFn&) = delete;
  ~UniqueFn() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  /// Const like std::function::operator(): the callable itself may mutate
  /// its capture (invoke_ was instantiated on the non-const target type).
  /// A completion that may re-enter the slot holding it is moved out first.
  R operator()(Args... args) const {
    DK_DCHECK(invoke_ != nullptr);
    return invoke_(const_cast<std::byte*>(buf_), std::forward<Args>(args)...);
  }

  /// True when the capture lives in the inline buffer (no pool chunk).
  bool is_inline() const noexcept {
    return invoke_ != nullptr && destroy_ == nullptr;
  }

  void reset() noexcept {
    if (destroy_) destroy_(buf_);
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  using InvokeFn = R (*)(void*, Args&&...);
  using DestroyFn = void (*)(void*);

  // A void signature discards whatever the target returns.
  template <typename T>
  static R call(T& target, Args&&... args) {
    if constexpr (std::is_void_v<R>)
      target(std::forward<Args>(args)...);
    else
      return target(std::forward<Args>(args)...);
  }

  static void* chunk_of(void* buf) noexcept {
    void* chunk;
    std::memcpy(&chunk, buf, sizeof(chunk));
    return chunk;
  }

  void steal(UniqueFn& other) noexcept {
    // Bytewise relocation: valid because inline captures are trivially
    // copyable and pooled ones travel as the chunk pointer in buf_. The
    // tail of buf_ beyond the capture is dead bytes; copying them is
    // cheaper than knowing the size.
    std::memcpy(buf_, other.buf_, kInlineBytes);
    invoke_ = other.invoke_;
    destroy_ = other.destroy_;
    other.invoke_ = nullptr;
    other.destroy_ = nullptr;
  }

  // Zero-initialized so the bytewise steal() never reads indeterminate tail
  // bytes (captures smaller than the buffer leave the rest untouched).
  alignas(alignof(std::max_align_t)) std::byte buf_[kInlineBytes] = {};
  InvokeFn invoke_ = nullptr;
  DestroyFn destroy_ = nullptr;
};

/// The simulator's event callback: the `void()` case of UniqueFn.
using EventFn = UniqueFn<void()>;

static_assert(sizeof(EventFn) == 48, "EventFn must keep Event at 64 bytes");

}  // namespace dk::sim
