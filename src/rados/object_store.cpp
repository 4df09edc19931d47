#include "rados/object_store.hpp"

#include <algorithm>

#include "common/crc32c.hpp"

namespace dk::rados {

namespace {
constexpr std::uint64_t kBlock = kChecksumBlockBytes;
}  // namespace

void ObjectStore::store_bytes(const ObjectKey& key, std::uint64_t offset,
                              std::span<const std::uint8_t> data) {
  auto& obj = objects_[key];
  const std::uint64_t end = offset + data.size();
  if (obj.size() < end) obj.resize(end, 0);
  std::copy(data.begin(), data.end(),
            obj.begin() + static_cast<std::ptrdiff_t>(offset));
}

void ObjectStore::refresh_checksums(const ObjectKey& key, std::uint64_t first,
                                    std::uint64_t offset, std::uint64_t length,
                                    std::span<const std::uint32_t> provided) {
  auto it = objects_.find(key);
  if (it == objects_.end() || it->second.empty()) return;
  const auto& obj = it->second;
  auto& cs = checksums_[key];
  cs.resize((obj.size() + kBlock - 1) / kBlock, 0);
  const std::uint64_t last = (offset + length - 1) / kBlock;
  for (std::uint64_t b = first; b <= last && b < cs.size(); ++b) {
    const std::uint64_t block_start = b * kBlock;
    const std::uint64_t block_len =
        std::min<std::uint64_t>(kBlock, obj.size() - block_start);
    // A client-provided checksum is only usable when this write fully
    // covers the block (and the write was block-aligned, so indices map).
    const bool aligned = offset % kBlock == 0;
    const std::uint64_t j = aligned && b >= offset / kBlock
                                ? b - offset / kBlock
                                : provided.size();
    const bool fully_covered = block_start >= offset &&
                               block_start + block_len <= offset + length;
    if (fully_covered && j < provided.size()) {
      cs[b] = provided[j];
    } else {
      cs[b] = crc32c(std::span<const std::uint8_t>(obj).subspan(
          block_start, block_len));
    }
  }
}

void ObjectStore::write(const ObjectKey& key, std::uint64_t offset,
                        std::span<const std::uint8_t> data,
                        std::span<const std::uint32_t> checksums) {
  if (data.empty()) return;
  if (!integrity_) {
    store_bytes(key, offset, data);
    return;
  }
  // Re-checksum from the write start or, when the write grows the object
  // past its end, from the first block zero-extension touches: a formerly
  // partial tail block, else the first new block.
  const std::uint64_t old_size = object_size(key);
  const std::uint64_t old_blocks = (old_size + kBlock - 1) / kBlock;
  const std::uint64_t first = std::min(offset, old_size) / kBlock;
  // Pre-existing blocks re-checksummed without being fully rewritten keep
  // old bytes. One that fails verification now must keep failing, or the
  // fresh CRC would launder latent corruption.
  const std::uint64_t end = offset + data.size();
  std::vector<std::uint64_t> stale;
  for (std::uint64_t b = first; b < old_blocks && b * kBlock < end; ++b) {
    const std::uint64_t start = b * kBlock;
    const bool rewritten =
        start >= offset &&
        std::min(start + kBlock, std::max(old_size, end)) <= end;
    if (!rewritten && !verify(key, start, 1)) stale.push_back(b);
  }
  store_bytes(key, offset, data);
  refresh_checksums(key, first, offset, data.size(), checksums);
  std::vector<std::uint32_t>& cs = checksums_[key];
  for (const std::uint64_t b : stale) cs[b] = ~cs[b];
}

std::vector<std::uint8_t> ObjectStore::read(const ObjectKey& key,
                                            std::uint64_t offset,
                                            std::uint64_t length) const {
  std::vector<std::uint8_t> out(length, 0);
  auto it = objects_.find(key);
  if (it == objects_.end()) return out;
  const auto& obj = it->second;
  if (offset >= obj.size()) return out;
  const std::uint64_t n = std::min<std::uint64_t>(length, obj.size() - offset);
  std::copy_n(obj.begin() + static_cast<std::ptrdiff_t>(offset), n,
              out.begin());
  return out;
}

bool ObjectStore::exists(const ObjectKey& key) const {
  return objects_.count(key) > 0;
}

std::uint64_t ObjectStore::object_size(const ObjectKey& key) const {
  auto it = objects_.find(key);
  return it == objects_.end() ? 0 : it->second.size();
}

void ObjectStore::remove(const ObjectKey& key) {
  objects_.erase(key);
  checksums_.erase(key);
}

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
  for (const auto& [k, v] : objects_) total += v.size();
  return total;
}

// --- integrity mode ----------------------------------------------------------

bool ObjectStore::verify(const ObjectKey& key, std::uint64_t offset,
                         std::uint64_t length) const {
  if (!integrity_ || length == 0) return true;
  auto it = objects_.find(key);
  if (it == objects_.end()) return true;
  const auto& obj = it->second;
  if (offset >= obj.size()) return true;
  auto cit = checksums_.find(key);
  const std::span<const std::uint32_t> cs =
      cit == checksums_.end() ? std::span<const std::uint32_t>{}
                              : std::span<const std::uint32_t>(cit->second);
  const std::uint64_t check_end =
      std::min<std::uint64_t>(offset + length, obj.size());
  for (std::uint64_t b = offset / kBlock; b * kBlock < check_end; ++b) {
    const std::uint64_t block_start = b * kBlock;
    const std::uint64_t block_len =
        std::min<std::uint64_t>(kBlock, obj.size() - block_start);
    // Stored bytes with no recorded checksum are treated as corrupt:
    // absence of metadata for present data is itself suspect.
    if (b >= cs.size()) return false;
    const std::uint32_t actual = crc32c(
        std::span<const std::uint8_t>(obj).subspan(block_start, block_len));
    if (actual != cs[b]) return false;
  }
  return true;
}

std::vector<std::uint32_t> ObjectStore::checksums_for(
    const ObjectKey& key, std::uint64_t offset, std::uint64_t length) const {
  std::vector<std::uint32_t> out;
  if (!integrity_ || length == 0 || offset % kBlock != 0) return out;
  auto it = objects_.find(key);
  auto cit = checksums_.find(key);
  if (it == objects_.end() || cit == checksums_.end()) return out;
  const auto& obj = it->second;
  const auto& cs = cit->second;
  // Only leading blocks the reader sees exactly as stored: every full
  // block, and the partial tail block when the range ends at the object's
  // end. Past the end the reader sees zero fill the stored CRC does not
  // cover, so shipping it would flag a false mismatch.
  const std::uint64_t end = offset + length;
  const std::uint64_t covered =
      end == obj.size() ? end : std::min<std::uint64_t>(end, obj.size()) /
                                    kBlock * kBlock;
  for (std::uint64_t b = offset / kBlock; b * kBlock < covered && b < cs.size();
       ++b) {
    out.push_back(cs[b]);
  }
  return out;
}

std::span<std::uint8_t> ObjectStore::raw_bytes(const ObjectKey& key) {
  auto it = objects_.find(key);
  if (it == objects_.end()) return {};
  return std::span<std::uint8_t>(it->second);
}

}  // namespace dk::rados
