#include "rados/object_store.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "common/crc32c.hpp"

namespace dk::rados {

namespace {
constexpr std::uint64_t kBlock = kChecksumBlockBytes;
static_assert(kBlock == kPageBytes, "a block slot holds one page");
constexpr std::uint64_t blocks_for(std::uint64_t bytes) {
  return (bytes + kBlock - 1) / kBlock;
}
/// CRC-32C of a block's first `len` stored bytes: a whole block's page
/// remembers its own; a tail block's prefix is computed.
std::uint32_t block_crc(const PageRef& block, std::uint64_t len) {
  return len == kBlock ? block.crc() : crc32c({block.data(), len});
}
}  // namespace

bool ObjectStore::block_verifies(const Object& obj, std::uint64_t b,
                                 std::uint64_t size) {
  // Stored bytes with no recorded checksum are treated as corrupt: absence
  // of metadata for present data is itself suspect.
  if (b >= obj.crcs.size()) return false;
  return block_crc(obj.blocks[b], std::min(kBlock, size - b * kBlock)) ==
         obj.crcs[b];
}

void ObjectStore::write(const ObjectKey& key, std::uint64_t offset,
                        const Payload& data,
                        std::span<const std::uint32_t> checksums) {
  if (data.empty()) return;
  DK_CHECK(data.head() == offset % kBlock)
      << "payload not laid out for offset " << offset;
  Object& obj = objects_[key];
  const std::uint64_t end = offset + data.size();
  const std::uint64_t old_size = obj.size;
  obj.size = std::max(old_size, end);
  obj.blocks.resize(blocks_for(obj.size));

  // Integrity mode re-checksums from the write start or, when the write
  // grows the object past its end, from the first block zero-extension
  // touches: a formerly partial tail block, else the first new block.
  // Staleness is judged against the checksums as they were.
  const std::uint64_t old_checksummed = obj.crcs.size();
  if (integrity_) obj.crcs.resize(obj.blocks.size());
  const std::uint64_t first_written = offset / kBlock;
  const std::uint64_t first =
      integrity_ ? std::min(offset, old_size) / kBlock : first_written;
  const std::uint64_t last = (end - 1) / kBlock;
  // Replacing a block drops a reference to its old page: start those misses
  // together rather than one per block.
  for (std::uint64_t b = first_written; b <= last; ++b)
    obj.blocks[b].prefetch();
  for (std::uint64_t b = first; b <= last; ++b) {
    const std::uint64_t start = b * kBlock;
    // A pre-existing block re-checksummed without being fully rewritten
    // keeps old bytes. One that fails verification now must keep failing,
    // or the fresh CRC would launder latent corruption.
    const bool rewritten =
        start >= offset && std::min(start + kBlock, obj.size) <= end;
    const bool stale = integrity_ && start < old_size && !rewritten &&
                       (b >= old_checksummed ||
                        !block_verifies(obj, b, old_size));

    PageRef& block = obj.blocks[b];
    if (b >= first_written) {
      const PageRef& page = data.page(b - first_written);
      const std::uint64_t lo = std::max(offset, start);
      const std::uint64_t hi = std::min(end, start + kBlock);
      if (hi - lo == kBlock) {
        block = page;  // covered whole: share the payload's page
      } else {
        std::memcpy(block.writable() + lo % kBlock, page.data() + lo % kBlock,
                    hi - lo);
      }
    }
    if (!integrity_) continue;
    // A client-provided checksum is only usable when this write fully
    // covers the block (and the write was block-aligned, so indices map).
    const std::uint64_t len = std::min(kBlock, obj.size - start);
    const std::uint64_t j = offset % kBlock == 0 && b >= first_written
                                ? b - first_written
                                : checksums.size();
    const bool fully_covered = start >= offset && start + len <= end;
    std::uint32_t& crc = obj.crcs[b];
    crc = fully_covered && j < checksums.size() ? checksums[j]
                                                : block_crc(block, len);
    if (stale) crc = ~crc;
  }
}

Payload ObjectStore::read(const ObjectKey& key, std::uint64_t offset,
                          std::uint64_t length) const {
  Payload out = Payload::zeros(offset, length);
  auto it = objects_.find(key);
  if (it == objects_.end()) return out;
  const std::vector<PageRef>& blocks = it->second.blocks;
  for (std::size_t i = 0; i < out.page_count(); ++i) {
    const std::uint64_t b = offset / kBlock + i;
    if (b >= blocks.size()) break;
    out.set_page(i, blocks[b]);
  }
  return out;
}

void ObjectStore::prefetch(const ObjectKey& key, std::uint64_t offset,
                           std::uint64_t length) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) return;
  const std::vector<PageRef>& blocks = it->second.blocks;
  const std::uint64_t end =
      std::min<std::uint64_t>(blocks.size(), blocks_for(offset + length));
  for (std::uint64_t b = offset / kBlock; b < end; ++b) blocks[b].prefetch();
}

bool ObjectStore::exists(const ObjectKey& key) const {
  return objects_.count(key) > 0;
}

std::uint64_t ObjectStore::object_size(const ObjectKey& key) const {
  auto it = objects_.find(key);
  return it == objects_.end() ? 0 : it->second.size;
}

void ObjectStore::remove(const ObjectKey& key) { objects_.erase(key); }

std::vector<ObjectKey> ObjectStore::keys() const {
  std::vector<ObjectKey> out;
  out.reserve(objects_.size());
  for (const auto& [k, v] : objects_) out.push_back(k);
  return out;
}

std::vector<ObjectKey> ObjectStore::keys_of_pool(std::uint32_t pool) const {
  std::vector<ObjectKey> out;
  for (const auto& [k, v] : objects_)
    if (k.pool == pool) out.push_back(k);
  return out;
}

std::uint64_t ObjectStore::bytes_stored() const {
  std::uint64_t total = 0;
  for (const auto& [k, v] : objects_) total += v.size;
  return total;
}

// --- integrity mode ----------------------------------------------------------

bool ObjectStore::verify(const ObjectKey& key, std::uint64_t offset,
                         std::uint64_t length) const {
  if (!integrity_ || length == 0) return true;
  auto it = objects_.find(key);
  if (it == objects_.end()) return true;
  const Object& obj = it->second;
  if (offset >= obj.size) return true;
  const std::uint64_t check_end = std::min(offset + length, obj.size);
  for (std::uint64_t b = offset / kBlock; b * kBlock < check_end; ++b)
    if (!block_verifies(obj, b, obj.size)) return false;
  return true;
}

void ObjectStore::checksums_for(const ObjectKey& key, std::uint64_t offset,
                                std::uint64_t length, BlockCrcs& out) const {
  out.clear();
  if (!integrity_ || length == 0 || offset % kBlock != 0) return;
  auto it = objects_.find(key);
  if (it == objects_.end()) return;
  const Object& obj = it->second;
  // Only leading blocks the reader sees exactly as stored: every full
  // block, and the partial tail block when the range ends at the object's
  // end. Past the end the reader sees zero fill the stored CRC does not
  // cover, so shipping it would flag a false mismatch.
  const std::uint64_t end = offset + length;
  const std::uint64_t covered =
      end == obj.size ? end : std::min(end, obj.size) / kBlock * kBlock;
  for (std::uint64_t b = offset / kBlock;
       b * kBlock < covered && b < obj.crcs.size(); ++b)
    out.push_back(obj.crcs[b]);
}

ObjectStore::RawBytes ObjectStore::raw_bytes(const ObjectKey& key) {
  auto it = objects_.find(key);
  return RawBytes(it == objects_.end() ? nullptr : &it->second);
}

std::uint64_t ObjectStore::RawBytes::size() const {
  return object_ == nullptr ? 0 : object_->size;
}

std::uint8_t& ObjectStore::RawBytes::operator[](std::uint64_t i) {
  DK_CHECK(i < size()) << "byte " << i << " past the object's end";
  return object_->blocks[i / kBlock].writable()[i % kBlock];
}

}  // namespace dk::rados
