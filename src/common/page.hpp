// Shared, immutable 4 kB pages and the payloads built from them.
//
// A RADOS payload (a message's data, a journal record's unapplied bytes, a
// read reply, a recovery push) is a short list of references to 4 kB pages
// laid out on object-block boundaries: page i holds the payload's bytes
// that fall in object block `offset / kPageBytes + i`, so byte 0 sits at
// `offset % kPageBytes` of page 0. An object store can then adopt a page
// that covers a whole block by reference, and every replica's message,
// journal record and store slot share one copy of the bytes (Ceph's
// bufferlist, SPDK's zero-copy message passing).
//
// A page is immutable while more than one reference to it exists: a writer
// that shares its page copies it first (PageRef::writable). The refcount is
// a plain integer, since src/ is single-threaded. A null reference is the
// zero page, one read-only block of zeros that every hole shares and
// nothing writes.
//
// Pages come from a per-thread recycling pool: a page whose last reference
// goes is kept on a free list and handed out again, so a steady stream of
// payloads allocates nothing once the pool has reached its peak. The pool
// keeps its spares across stacks and frees them when its thread exits.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/crc32c.hpp"

namespace dk {

/// Page size: one object block, the checksum block.
inline constexpr std::uint64_t kPageBytes = kChecksumBlockBytes;

struct Page {
  // The count shares a cache line with the first bytes, so a reader that
  // takes a reference and then reads the page misses in one place.
  std::uint32_t refs = 0;
  std::array<std::uint8_t, kPageBytes> bytes;
};

/// Pages this thread's pool has handed out that are still referenced.
std::uint64_t live_pages();

/// A counted reference to one page; null is the zero page.
class PageRef {
 public:
  PageRef() = default;
  PageRef(const PageRef& other) noexcept : page_(other.page_) {
    if (page_ != nullptr) ++page_->refs;
  }
  PageRef(PageRef&& other) noexcept
      : page_(std::exchange(other.page_, nullptr)) {}
  PageRef& operator=(PageRef other) noexcept {
    std::swap(page_, other.page_);
    return *this;
  }
  ~PageRef() {
    if (page_ != nullptr && --page_->refs == 0) release(page_);
  }

  /// A fresh page from the pool, private to this reference; its bytes are
  /// unspecified until written.
  static PageRef allocate();

  const std::uint8_t* data() const;

  /// Start loading the page's count and its first `bytes` bytes into
  /// cache, ahead of a reference change or a read that would miss on them.
  void prefetch(std::uint64_t bytes = 0) const {
    if (page_ == nullptr) return;
    const char* at = reinterpret_cast<const char*>(page_);
    const std::uint64_t end = offsetof(Page, bytes) + bytes;
    for (std::uint64_t i = 0; i < end; i += 64) __builtin_prefetch(at + i, 1);
  }

  /// The page's bytes for writing. A shared page, or the zero page, is
  /// first copied into a fresh page private to this reference, so no other
  /// holder sees the change.
  std::uint8_t* writable();

  friend bool operator==(const PageRef&, const PageRef&) = default;

 private:
  explicit PageRef(Page* page) : page_(page) {}
  static void release(Page* page);

  Page* page_ = nullptr;
};

/// A byte range of an object held as page references (see the file
/// comment for the layout). Copying a payload copies references, not bytes.
class Payload {
 public:
  Payload() = default;
  Payload(const Payload&) = default;
  Payload(Payload&& other) noexcept;
  Payload& operator=(Payload other) noexcept;

  /// `length` zero bytes at object offset `offset`, every page the zero
  /// page; set_page() replaces them.
  static Payload zeros(std::uint64_t offset, std::uint64_t length);
  /// `bytes` copied once into fresh pages laid out for object offset
  /// `offset`. Page bytes outside the range are zero.
  static Payload copy_of(std::span<const std::uint8_t> bytes,
                         std::uint64_t offset);

  std::uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Offset of byte 0 within page 0: the object offset modulo kPageBytes.
  std::uint64_t head() const { return head_; }
  std::size_t page_count() const { return count_; }
  const PageRef& page(std::size_t i) const { return pages()[i]; }
  void set_page(std::size_t i, PageRef page) { pages()[i] = std::move(page); }

  /// `f(std::span<const std::uint8_t>)` for each page's part of bytes
  /// [from, from + length) of the payload, in order.
  template <typename F>
  void for_each_segment(std::uint64_t from, std::uint64_t length,
                        F&& f) const {
    std::uint64_t pos = head_ + from;
    for (std::size_t i = pos / kPageBytes; length > 0; ++i) {
      const std::uint64_t in_page = pos % kPageBytes;
      const std::uint64_t n = std::min(length, kPageBytes - in_page);
      f(std::span<const std::uint8_t>(page(i).data() + in_page, n));
      length -= n;
      pos += n;
    }
  }
  template <typename F>
  void for_each_segment(F&& f) const {
    for_each_segment(0, size_, std::forward<F>(f));
  }

  /// The payload's bytes in one new vector.
  std::vector<std::uint8_t> to_vector() const;
  std::uint8_t operator[](std::uint64_t i) const;
  /// CRC-32C over the payload's bytes, chained onto `crc` like crc32c().
  std::uint32_t crc32c(std::uint32_t crc = 0) const;

  /// Extend this payload by `next`, which continues its object range. A
  /// block the two share is merged into a private page.
  void append(const Payload& next);

  friend bool operator==(const Payload& a, const Payload& b);
  friend bool operator==(const Payload& a, std::span<const std::uint8_t> b);

 private:
  // Page lists up to this long (a 32 kB EC shard) live inline, so most
  // payloads allocate nothing beyond their pages.
  static constexpr std::size_t kInlinePages = 8;

  PageRef* pages() {
    return count_ > kInlinePages ? spill_.data() : inline_.data();
  }
  const PageRef* pages() const {
    return count_ > kInlinePages ? spill_.data() : inline_.data();
  }
  void push_page(PageRef page);

  std::uint64_t size_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t count_ = 0;
  std::array<PageRef, kInlinePages> inline_;
  std::vector<PageRef> spill_;  // every page, once there are too many inline
};

}  // namespace dk
