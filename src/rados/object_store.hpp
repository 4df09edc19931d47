// In-memory object store backing one simulated OSD.
//
// Functionally faithful: bytes written through the stack are stored and can
// be read back (end-to-end data-integrity tests depend on this); sparse
// writes extend objects with zero fill, like a POSIX file.
//
// Block-granular: an object is a run of 4 kB block slots, each a page
// reference (common/page.hpp), with the blocks' CRCs beside them. An
// unwritten block is a hole that reads from the shared zero page. A write
// adopts every block its payload covers whole by reference, so replicas,
// messages and journal records hold one copy of the bytes; only a partly
// covered head or tail block is merged into a page private to this store.
// Reads hand out references to the stored pages, which stay valid however
// the object changes afterwards. Bytes past the object's end in its tail
// block are zero.
//
// Integrity mode (set_integrity(true), off by default) adds BlueStore-style
// block checksums: every kChecksumBlockBytes block of a stored object
// carries a CRC-32C, refreshed on write and checked by verify(). Mutation
// through raw_bytes() leaves them stale — that is the point: stale
// checksums are how silent media corruption becomes detectable. The CRC of
// a whole block's stored bytes is its page's own (PageRef::crc), so a
// verify of a page nothing changed makes no pass over it; a tail block's
// shorter prefix is computed.
//
// The store itself applies every write atomically. Crash consistency lives
// one layer up, in the Blockstore WAL each OSD keeps in front of this store
// whenever integrity or the blockstore is armed (see blockstore.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/page.hpp"

namespace dk::rados {

struct ObjectKey {
  std::uint32_t pool = 0;
  std::uint64_t oid = 0;
  // EC shard index (-1 for whole objects / replicated copies).
  std::int32_t shard = -1;

  auto operator<=>(const ObjectKey&) const = default;
};

class ObjectStore {
  struct Object;

 public:
  /// Write `data` (laid out for `offset`, see common/page.hpp) at `offset`,
  /// extending the object as needed. In integrity mode the affected block
  /// checksums are refreshed; `checksums` (optional, from the client)
  /// supplies precomputed CRCs for blocks this write fully covers —
  /// partially covered blocks are always recomputed from the stored bytes.
  void write(const ObjectKey& key, std::uint64_t offset, const Payload& data,
             std::span<const std::uint32_t> checksums = {});
  /// The same for bytes not yet in pages: copies them into pages once.
  void write(const ObjectKey& key, std::uint64_t offset,
             std::span<const std::uint8_t> data,
             std::span<const std::uint32_t> checksums = {}) {
    write(key, offset, Payload::copy_of(data, offset), checksums);
  }

  /// Read `length` bytes at `offset` as references to the stored pages;
  /// holes and bytes past the object's end read as zeros, like reading a
  /// sparse file.
  Payload read(const ObjectKey& key, std::uint64_t offset,
               std::uint64_t length) const;

  /// Start loading the counts of the pages a read of [offset, offset +
  /// length) will reference. The OSD calls it when a read arrives, so the
  /// misses overlap the events ahead of the read's service.
  void prefetch(const ObjectKey& key, std::uint64_t offset,
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

  /// Take the CRC-32C of the stored bytes of every block overlapping
  /// [offset, offset + length) and compare against the checksum metadata.
  /// Blocks with no recorded checksum (written before integrity was armed)
  /// FAIL verification when any byte in range is stored — absence of a
  /// checksum for present data is itself suspect. Returns true
  /// when integrity is off, the object is absent, or all blocks check out.
  bool verify(const ObjectKey& key, std::uint64_t offset,
              std::uint64_t length) const;

  /// Fill `out` with the stored checksums for the blocks overlapping
  /// [offset, offset + length), in block order, for shipping alongside read
  /// replies and recovery pushes. A partial tail block is included only
  /// when the range ends at the object's end. Empty when integrity is off,
  /// the object is absent, or `offset` is not block-aligned (the receiver
  /// could not match blocks up).
  void checksums_for(const ObjectKey& key, std::uint64_t offset,
                     std::uint64_t length, BlockCrcs& out) const;

  /// Mutable view of an object's stored bytes — the media-corruption
  /// injection point. Indexing a byte first gives its block a page private
  /// to this store (copy-on-write), so the change reaches no other holder
  /// of the page, and the page forgets its CRC (PageRef::writable); it
  /// deliberately bypasses the store's checksum metadata.
  class RawBytes {
   public:
    std::uint64_t size() const;
    bool empty() const { return size() == 0; }
    std::uint8_t& operator[](std::uint64_t i);

   private:
    friend class ObjectStore;
    explicit RawBytes(Object* object) : object_(object) {}
    Object* object_ = nullptr;
  };
  /// Empty when the object is absent.
  RawBytes raw_bytes(const ObjectKey& key);

 private:
  struct Object {
    std::uint64_t size = 0;
    // One slot per block: its page, null for a hole, which reads from the
    // zero page.
    std::vector<PageRef> blocks;
    // Integrity mode: the CRC of each leading block that has one. An
    // integrity-mode write extends it over the whole object; entries it
    // adds for blocks it does not refresh read 0, which no stored block's
    // CRC matches in practice.
    std::vector<std::uint32_t> crcs;
  };

  /// Whether block `b` of `obj` matches its checksum, for an object of
  /// `size` bytes.
  static bool block_verifies(const Object& obj, std::uint64_t b,
                             std::uint64_t size);

  bool integrity_ = false;
  std::map<ObjectKey, Object> objects_;
};

}  // namespace dk::rados
