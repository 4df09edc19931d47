// Systematic Reed-Solomon erasure coding over GF(2^8).
//
// This is the functional model of both (a) Ceph's jerasure EC backend used
// by the software baselines, and (b) the Verilog Reed-Solomon Encoder RTL
// accelerator in the DeLiBA-K FPGA stack (Table I / Table III of the paper).
// An object of `k * chunk_size` bytes is split into k data chunks and m
// coding chunks; any k of the k+m chunks reconstruct the original.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/page.hpp"
#include "common/status.hpp"
#include "gf/matrix.hpp"

namespace dk::ec {

using Chunk = std::vector<std::uint8_t>;

enum class GeneratorKind { vandermonde, cauchy };

/// EC profile, mirroring a Ceph erasure-code profile (k, m, stripe unit).
struct Profile {
  unsigned k = 4;                 // data chunks
  unsigned m = 2;                 // coding chunks
  GeneratorKind generator = GeneratorKind::vandermonde;

  unsigned total() const { return k + m; }
};

class ReedSolomon {
 public:
  explicit ReedSolomon(Profile profile);

  const Profile& profile() const { return profile_; }
  const gf::Matrix& generator() const { return generator_; }

  /// Pad `object` to a multiple of k and split into k equal data chunks,
  /// copying each byte once. The vector has room for the m coding chunks,
  /// so a caller that appends them to ship all k+m shards does not
  /// reallocate.
  std::vector<Chunk> split(std::span<const std::uint8_t> object) const;
  /// The same for an object held in pages, read in place.
  std::vector<Chunk> split(const Payload& object) const;

  /// Compute the m coding chunks for the given k data chunks.
  Result<std::vector<Chunk>> encode(const std::vector<Chunk>& data) const;

  /// Reconstruct all k data chunks from any k available chunks.
  /// `chunks[i]` is empty (nullopt) when chunk i is erased; indices 0..k-1
  /// are data chunks, k..k+m-1 coding chunks.
  Result<std::vector<Chunk>> decode(
      const std::vector<std::optional<Chunk>>& chunks) const;

  /// The first `length` bytes of the object the k data chunks hold (chunk
  /// i holds bytes [i * c, (i + 1) * c) of it), laid into fresh pages for
  /// object offset `offset` (common/page.hpp). Each byte is copied once,
  /// and the chunks' pages are prefetched before the copy.
  Payload assemble(std::span<const Payload> data, std::uint64_t offset,
                   std::uint64_t length) const;
  /// The same for chunks in vectors (what decode() returns).
  Payload assemble(const std::vector<Chunk>& data, std::uint64_t offset,
                   std::uint64_t length) const;

  /// GF multiply-accumulate operation count for encoding `bytes` — the work
  /// metric the FPGA cycle model charges for the RS Encoder kernel.
  std::uint64_t encode_ops(std::size_t object_bytes) const;

 private:
  /// split() over `size` bytes; `append(off, n, chunk)` appends object
  /// bytes [off, off + n) to `chunk`.
  template <typename Append>
  std::vector<Chunk> split(std::size_t size, Append append) const;
  /// assemble() over k chunks of `chunk_size` bytes; `copy(i, from, dst)`
  /// copies bytes [from, from + dst.size()) of chunk i into `dst`.
  template <typename Copy>
  Payload assemble(std::uint64_t chunk_size, std::uint64_t offset,
                   std::uint64_t length, Copy copy) const;

  Profile profile_;
  gf::Matrix generator_;  // (k+m) x k systematic generator
};

}  // namespace dk::ec
