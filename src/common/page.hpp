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
// A page remembers the CRC-32C of its bytes once something asks for it
// (PageRef::crc), so the checks an I/O passes through (the client's block
// checksums, the journal record, the store's verify, the reply check, the
// C2H cover and the host re-verify) read one value instead of each making a
// pass over the same 4 kB. The memo rests on one invariant: page bytes
// change only through a pointer PageRef::writable() has just returned,
// which forgets the CRC, and no such pointer is kept past the next read of
// the page's CRC. Debug builds recompute the CRC on every hit and check it.
//
// Pages come from a per-thread recycling pool: a page whose last reference
// goes is kept on a free list and handed out again, so a steady stream of
// payloads allocates nothing once the pool has reached its peak. The pool
// keeps its spares across stacks and frees them when its thread exits.
// Under AddressSanitizer a page on the free list is poisoned, so a view a
// layer keeps past its page's last reference faults instead of reading
// whatever the page holds next.
//
// A read hands its caller the stored pages themselves: the object store's,
// through the OSD reply, RBD and the framework, to the workload. Nothing
// on that path copies a replicated read's bytes.
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
  // The count and the CRC share a cache line with the first bytes, so a
  // reader that takes a reference and then reads the page or its CRC
  // misses in one place.
  std::uint32_t refs = 0;
  /// The CRC-32C of `bytes`, or kCrcUnknown. Bytes whose CRC is that value
  /// are checksummed on every call instead. A flag of its own would grow
  /// the page past malloc's 4,112-byte chunk, and one in the count's top
  /// bit would put a mask on every reference drop.
  std::uint32_t crc = 0;
  std::array<std::uint8_t, kPageBytes> bytes;

  static constexpr std::uint32_t kCrcUnknown = 0;
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
  /// CRC-32C of the page's kPageBytes bytes, computed on the first call
  /// after the bytes last changed and remembered in the page.
  std::uint32_t crc() const;

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
  /// holder sees the change. The page forgets its CRC.
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
  /// `length` bytes at object offset `offset` in fresh pages, written by
  /// `fill(std::span<std::uint8_t> dst, std::uint64_t pos)` once per page,
  /// in order, where `dst` takes payload bytes [pos, pos + dst.size()).
  /// Page bytes outside the range are zero.
  template <typename Fill>
  static Payload filled(std::uint64_t offset, std::uint64_t length,
                        Fill&& fill) {
    Payload out = zeros(offset, length);
    // Take every page and start loading it before writing any: a recycled
    // page is usually cold, and the writes then overlap their misses
    // instead of waiting out one page at a time.
    for (std::size_t i = 0; i < out.count_; ++i) {
      PageRef page = PageRef::allocate();
      page.prefetch(kPageBytes);
      out.set_page(i, std::move(page));
    }
    std::uint64_t pos = 0;
    for (std::size_t i = 0; i < out.count_; ++i) {
      std::uint8_t* dst = out.pages()[i].writable();
      const std::uint64_t start = i == 0 ? out.head_ : 0;
      const std::uint64_t n = std::min(length - pos, kPageBytes - start);
      std::fill(dst, dst + start, std::uint8_t{0});
      fill(std::span<std::uint8_t>(dst + start, n), pos);
      std::fill(dst + start + n, dst + kPageBytes, std::uint8_t{0});
      pos += n;
    }
    return out;
  }

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
  /// Byte `i` for writing. Its page is first made private to this payload
  /// (PageRef::writable), so no other holder of the page sees the change.
  std::uint8_t& writable_byte(std::uint64_t i);
  /// CRC-32C over the payload's bytes, chained onto `crc` like crc32c();
  /// the page's own for one whole page and no chaining.
  std::uint32_t crc32c(std::uint32_t crc = 0) const;
  /// CRC-32C of the payload's chunk `i` of kChecksumBlockBytes (the last
  /// may be short): the page's own when the chunk is one whole page.
  std::uint32_t block_crc(std::size_t i) const;

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

/// One CRC-32C per kChecksumBlockBytes chunk of `data`'s bytes (the last
/// chunk may be short), as block_checksums() computes them over one buffer
/// (Payload::block_crc, so a whole page reads its own).
void block_checksums(const Payload& data, std::span<std::uint32_t> out);
/// True when `sums` equals block_checksums(data), read in place.
bool block_checksums_match(const Payload& data,
                           std::span<const std::uint32_t> sums);

/// The per-block CRC-32Cs a message carries beside its payload. Up to 8
/// (one 32 kB payload) live inline, so filling or copying them allocates
/// nothing; more spill to the heap.
class BlockCrcs {
 public:
  std::size_t size() const { return size_; }
  const std::uint32_t* data() const {
    return size_ > kInline ? spill_.data() : inline_.data();
  }
  const std::uint32_t* begin() const { return data(); }
  const std::uint32_t* end() const { return data() + size_; }
  std::uint32_t operator[](std::size_t i) const { return data()[i]; }
  operator std::span<const std::uint32_t>() const {  // NOLINT(google-explicit-constructor)
    return {data(), size_};
  }

  void clear() {
    size_ = 0;
    spill_.clear();
  }
  void push_back(std::uint32_t crc) {
    if (size_ == kInline) spill_.assign(inline_.begin(), inline_.end());
    if (size_ >= kInline)
      spill_.push_back(crc);
    else
      inline_[size_] = crc;
    ++size_;
  }

 private:
  static constexpr std::size_t kInline = 8;

  std::uint32_t size_ = 0;
  std::array<std::uint32_t, kInline> inline_{};
  std::vector<std::uint32_t> spill_;  // every CRC, once there are too many
};

}  // namespace dk
