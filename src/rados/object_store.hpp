// In-memory object store backing one simulated OSD.
//
// Functionally faithful: bytes written through the stack are stored and can
// be read back (end-to-end data-integrity tests depend on this); sparse
// writes extend objects with zero fill, like a POSIX file.
//
// Integrity mode (set_integrity(true), off by default) adds BlueStore-style
// per-object block checksums: every kChecksumBlockBytes block of a stored
// object carries a CRC-32C, refreshed on write and checked by verify().
// Mutation through raw_bytes() leaves them stale — that is the point: stale
// checksums are how silent media corruption becomes detectable.
//
// The store itself applies every write atomically. Crash consistency lives
// one layer up, in the Blockstore WAL each OSD keeps in front of this store
// whenever integrity or the blockstore is armed (see blockstore.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

namespace dk::rados {

struct ObjectKey {
  std::uint32_t pool = 0;
  std::uint64_t oid = 0;
  // EC shard index (-1 for whole objects / replicated copies).
  std::int32_t shard = -1;

  auto operator<=>(const ObjectKey&) const = default;
};

class ObjectStore {
 public:
  /// Write `data` at `offset`, extending the object as needed. In integrity
  /// mode the affected block checksums are refreshed; `checksums` (optional,
  /// from the client) supplies precomputed CRCs for blocks this write fully
  /// covers — partially covered blocks are always recomputed from the
  /// stored bytes.
  void write(const ObjectKey& key, std::uint64_t offset,
             std::span<const std::uint8_t> data,
             std::span<const std::uint32_t> checksums = {});

  /// Read `length` bytes at `offset`; short objects are zero-filled, like
  /// reading a hole in a sparse file.
  std::vector<std::uint8_t> read(const ObjectKey& key, std::uint64_t offset,
                                 std::uint64_t length) const;

  bool exists(const ObjectKey& key) const;
  std::uint64_t object_size(const ObjectKey& key) const;
  void remove(const ObjectKey& key);

  std::size_t object_count() const { return objects_.size(); }
  std::uint64_t bytes_stored() const;

  /// All stored object keys (scrub/backfill enumeration).
  std::vector<ObjectKey> keys() const;

  /// Keys belonging to one pool.
  std::vector<ObjectKey> keys_of_pool(std::uint32_t pool) const;

  // --- integrity mode ----------------------------------------------------

  void set_integrity(bool on) { integrity_ = on; }
  bool integrity() const { return integrity_; }

  /// Recompute CRC-32C over the stored bytes of every block overlapping
  /// [offset, offset + length) and compare against the checksum metadata.
  /// Blocks with no recorded checksum (written before integrity was armed)
  /// FAIL verification when any byte in range is stored — absence of a
  /// checksum for present data is itself suspect. Returns true
  /// when integrity is off, the object is absent, or all blocks check out.
  bool verify(const ObjectKey& key, std::uint64_t offset,
              std::uint64_t length) const;

  /// Stored checksums for the blocks overlapping [offset, offset + length),
  /// in block order, for shipping alongside read replies and recovery
  /// pushes. A partial tail block is included only when the range ends at
  /// the object's end. Empty when integrity is off, the object is absent,
  /// or `offset` is not block-aligned (the receiver could not match blocks
  /// up).
  std::vector<std::uint32_t> checksums_for(const ObjectKey& key,
                                           std::uint64_t offset,
                                           std::uint64_t length) const;

  /// Mutable view of the raw stored bytes — the media-corruption injection
  /// point. Mutating through it deliberately bypasses checksum maintenance.
  /// Empty span when the object is absent.
  std::span<std::uint8_t> raw_bytes(const ObjectKey& key);

 private:
  void store_bytes(const ObjectKey& key, std::uint64_t offset,
                   std::span<const std::uint8_t> data);
  /// Recompute (or take from `provided`) the checksums of blocks `first`
  /// through the end of the [offset, offset + length) write.
  void refresh_checksums(const ObjectKey& key, std::uint64_t first,
                         std::uint64_t offset, std::uint64_t length,
                         std::span<const std::uint32_t> provided);

  bool integrity_ = false;
  std::map<ObjectKey, std::vector<std::uint8_t>> objects_;
  // Per-object, per-block CRC-32C (index = block number). Only maintained
  // in integrity mode.
  std::map<ObjectKey, std::vector<std::uint32_t>> checksums_;
};

}  // namespace dk::rados
