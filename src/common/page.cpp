#include "common/page.hpp"

#include <cstring>

#include "common/check.hpp"
#include "common/crc32c_detail.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace dk {

namespace {

/// A page on the free list is poisoned under AddressSanitizer: no reference
/// holds it, so any access through a stale view is a bug.
void poison(Page* page) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(page, sizeof(Page));
#else
  (void)page;
#endif
}

void unpoison(Page* page) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(page, sizeof(Page));
#else
  (void)page;
#endif
}

/// This thread's page pool: the pages no reference holds. A stack of
/// pointers rather than a list threaded through the pages, so taking or
/// returning one touches no cold page.
struct PagePool {
  std::vector<Page*> free;
  std::uint64_t live = 0;

  ~PagePool() {
    for (Page* page : free) {
      unpoison(page);
      delete page;
    }
  }
};

PagePool& pool() {
  static thread_local PagePool p;
  return p;
}

/// The zero page: read-only, so a stray write through it faults.
constexpr std::array<std::uint8_t, kPageBytes> kZeroPage{};
/// CRC-32C of the zero page's bytes.
constexpr std::uint32_t kZeroPageCrc = 0x98f94189u;

// The count, the CRC and the bytes fit malloc's 4,112-byte chunk.
static_assert(sizeof(Page) == 2 * sizeof(std::uint32_t) + kPageBytes);

}  // namespace

std::uint64_t live_pages() { return pool().live; }

PageRef PageRef::allocate() {
  PagePool& p = pool();
  Page* page = nullptr;
  if (p.free.empty()) {
    page = new Page;
  } else {
    page = p.free.back();
    p.free.pop_back();
    unpoison(page);
  }
  page->refs = 1;
  page->crc = Page::kCrcUnknown;  // the bytes are a previous payload's
  ++p.live;
  return PageRef(page);
}

void PageRef::release(Page* page) {
  PagePool& p = pool();
  poison(page);
  p.free.push_back(page);
  --p.live;
}

const std::uint8_t* PageRef::data() const {
  return page_ != nullptr ? page_->bytes.data() : kZeroPage.data();
}

std::uint32_t PageRef::crc() const {
  if (page_ == nullptr) return kZeroPageCrc;
  if (page_->crc == Page::kCrcUnknown) {
    page_->crc = crc32c(page_->bytes);
    return page_->crc;
  }
  // Debug builds audit every hit.
  DK_DCHECK(detail::crc32c_uncounted(page_->bytes) == page_->crc)
      << "page bytes changed without PageRef::writable()";
  return page_->crc;
}

std::uint8_t* PageRef::writable() {
  if (page_ == nullptr || page_->refs > 1) {
    PageRef copy = allocate();
    std::memcpy(copy.page_->bytes.data(), data(), kPageBytes);
    *this = std::move(copy);
  }
  page_->crc = Page::kCrcUnknown;  // the caller changes the bytes
  return page_->bytes.data();
}

Payload::Payload(Payload&& other) noexcept
    : size_(std::exchange(other.size_, 0)),
      head_(std::exchange(other.head_, 0)),
      count_(std::exchange(other.count_, 0)),
      inline_(std::move(other.inline_)),
      spill_(std::move(other.spill_)) {}

Payload& Payload::operator=(Payload other) noexcept {
  std::swap(size_, other.size_);
  std::swap(head_, other.head_);
  std::swap(count_, other.count_);
  std::swap(inline_, other.inline_);
  std::swap(spill_, other.spill_);
  return *this;
}

void Payload::push_page(PageRef page) {
  if (count_ == kInlinePages) {
    spill_.reserve(2 * kInlinePages);
    for (PageRef& p : inline_) spill_.push_back(std::move(p));
  }
  if (count_ >= kInlinePages)
    spill_.push_back(std::move(page));
  else
    inline_[count_] = std::move(page);
  ++count_;
}

Payload Payload::zeros(std::uint64_t offset, std::uint64_t length) {
  Payload out;
  out.head_ = static_cast<std::uint32_t>(offset % kPageBytes);
  out.size_ = length;
  const std::uint64_t count =
      length == 0 ? 0 : (out.head_ + length + kPageBytes - 1) / kPageBytes;
  if (count > kInlinePages) out.spill_.resize(count);
  out.count_ = static_cast<std::uint32_t>(count);
  return out;
}

Payload Payload::copy_of(std::span<const std::uint8_t> bytes,
                         std::uint64_t offset) {
  return filled(offset, bytes.size(),
                [&](std::span<std::uint8_t> dst, std::uint64_t pos) {
                  std::memcpy(dst.data(), bytes.data() + pos, dst.size());
                });
}

std::vector<std::uint8_t> Payload::to_vector() const {
  std::vector<std::uint8_t> out;
  out.reserve(size_);
  for_each_segment([&](std::span<const std::uint8_t> seg) {
    out.insert(out.end(), seg.begin(), seg.end());
  });
  return out;
}

std::uint8_t Payload::operator[](std::uint64_t i) const {
  DK_CHECK(i < size_) << "byte " << i << " past the payload's end";
  const std::uint64_t pos = head_ + i;
  return page(pos / kPageBytes).data()[pos % kPageBytes];
}

std::uint8_t& Payload::writable_byte(std::uint64_t i) {
  DK_CHECK(i < size_) << "byte " << i << " past the payload's end";
  const std::uint64_t pos = head_ + i;
  return pages()[pos / kPageBytes].writable()[pos % kPageBytes];
}

std::uint32_t Payload::crc32c(std::uint32_t crc) const {
  if (crc == 0 && head_ == 0 && size_ == kPageBytes) return page(0).crc();
  for_each_segment(
      [&](std::span<const std::uint8_t> seg) { crc = dk::crc32c(seg, crc); });
  return crc;
}

void Payload::append(const Payload& next) {
  if (next.empty()) return;
  if (empty()) {
    *this = next;
    return;
  }
  DK_CHECK((head_ + size_) % kPageBytes == next.head_)
      << "appended payload does not continue this one";
  std::size_t first = 0;
  if (next.head_ != 0) {
    // Both payloads reach into one block: merge next's part into a private
    // copy of this payload's last page.
    const std::uint64_t n =
        std::min<std::uint64_t>(next.size_, kPageBytes - next.head_);
    std::memcpy(pages()[count_ - 1].writable() + next.head_,
                next.page(0).data() + next.head_, n);
    first = 1;
  }
  for (std::size_t i = first; i < next.count_; ++i) push_page(next.page(i));
  size_ += next.size_;
}

std::uint32_t Payload::block_crc(std::size_t i) const {
  const std::uint64_t from = i * kChecksumBlockBytes;
  if (head_ == 0 && from + kPageBytes <= size_) return page(i).crc();
  std::uint32_t crc = 0;
  for_each_segment(from, std::min(kChecksumBlockBytes, size_ - from),
                   [&](std::span<const std::uint8_t> seg) {
                     crc = dk::crc32c(seg, crc);
                   });
  return crc;
}

void block_checksums(const Payload& data, std::span<std::uint32_t> out) {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = data.block_crc(i);
}

bool block_checksums_match(const Payload& data,
                           std::span<const std::uint32_t> sums) {
  if (sums.size() !=
      (data.size() + kChecksumBlockBytes - 1) / kChecksumBlockBytes)
    return false;
  for (std::size_t i = 0; i < sums.size(); ++i)
    if (data.block_crc(i) != sums[i]) return false;
  return true;
}

bool operator==(const Payload& a, const Payload& b) {
  if (a.size_ != b.size_) return false;
  if (a.head_ == b.head_ &&
      std::equal(a.pages(), a.pages() + a.count_, b.pages()))
    return true;  // the same pages
  std::uint64_t pos = 0;
  bool equal = true;
  a.for_each_segment([&](std::span<const std::uint8_t> seg) {
    std::uint64_t done = 0;
    b.for_each_segment(pos, seg.size(), [&](std::span<const std::uint8_t> s) {
      equal = equal && std::memcmp(s.data(), seg.data() + done, s.size()) == 0;
      done += s.size();
    });
    pos += seg.size();
  });
  return equal;
}

bool operator==(const Payload& a, std::span<const std::uint8_t> b) {
  if (a.size_ != b.size()) return false;
  std::uint64_t pos = 0;
  bool equal = true;
  a.for_each_segment([&](std::span<const std::uint8_t> seg) {
    equal = equal && std::memcmp(seg.data(), b.data() + pos, seg.size()) == 0;
    pos += seg.size();
  });
  return equal;
}

}  // namespace dk
