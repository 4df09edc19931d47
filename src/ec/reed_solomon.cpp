#include "ec/reed_solomon.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"
#include "gf/gf256.hpp"

namespace dk::ec {

namespace {

// Views of up to k input chunks; k + m <= kFieldSize bounds every table.
using Regions = std::array<std::span<const std::uint8_t>, gf::kFieldSize>;

// `rows` new chunks of `size` bytes, row r the product of row r of the
// row-major matrix at `coef` with `in`, in one gf::mul_regions call.
std::vector<Chunk> multiply(const std::uint8_t* coef, std::size_t rows,
                            std::span<const std::span<const std::uint8_t>> in,
                            std::size_t size) {
  std::vector<Chunk> out;
  out.reserve(rows);
  std::array<std::span<std::uint8_t>, gf::kFieldSize> views;
  for (std::size_t r = 0; r < rows; ++r) views[r] = out.emplace_back(size);
  gf::mul_regions({coef, rows * in.size()}, in, std::span(views).first(rows));
  return out;
}

}  // namespace

ReedSolomon::ReedSolomon(Profile profile) : profile_(profile) {
  DK_CHECK(profile_.k >= 1 && profile_.m >= 1);
  DK_CHECK(profile_.k + profile_.m <= gf::kFieldSize);
  generator_ = profile_.generator == GeneratorKind::cauchy
                   ? gf::Matrix::cauchy(profile_.k, profile_.m)
                   : gf::Matrix::systematic_vandermonde(profile_.k, profile_.m);
}

template <typename Append>
std::vector<Chunk> ReedSolomon::split(std::size_t size, Append append) const {
  const unsigned k = profile_.k;
  const std::size_t chunk_size = (size + k - 1) / k;
  std::vector<Chunk> chunks;
  chunks.reserve(profile_.total());
  for (unsigned i = 0; i < k; ++i) {
    const std::size_t off =
        std::min(size, static_cast<std::size_t>(i) * chunk_size);
    Chunk& chunk = chunks.emplace_back();
    chunk.reserve(chunk_size);
    append(off, std::min(chunk_size, size - off), chunk);
    chunk.resize(chunk_size);  // zero padding past the object's end
  }
  return chunks;
}

std::vector<Chunk> ReedSolomon::split(
    std::span<const std::uint8_t> object) const {
  return split(object.size(), [&](std::size_t off, std::size_t n, Chunk& out) {
    out.insert(out.end(), object.begin() + static_cast<long>(off),
               object.begin() + static_cast<long>(off + n));
  });
}

std::vector<Chunk> ReedSolomon::split(const Payload& object) const {
  return split(object.size(), [&](std::size_t off, std::size_t n, Chunk& out) {
    object.for_each_segment(off, n, [&](std::span<const std::uint8_t> seg) {
      out.insert(out.end(), seg.begin(), seg.end());
    });
  });
}

Result<std::vector<Chunk>> ReedSolomon::encode(
    const std::vector<Chunk>& data) const {
  if (data.size() != profile_.k)
    return Status::Error(Errc::invalid_argument, "need exactly k data chunks");
  const std::size_t chunk_size = data.empty() ? 0 : data[0].size();
  for (const auto& c : data)
    if (c.size() != chunk_size)
      return Status::Error(Errc::invalid_argument, "unequal chunk sizes");

  Regions in;
  std::copy(data.begin(), data.end(), in.begin());
  return multiply(generator_.row(profile_.k), profile_.m,
                  std::span(in).first(profile_.k), chunk_size);
}

Result<std::vector<Chunk>> ReedSolomon::decode(
    const std::vector<std::optional<Chunk>>& chunks) const {
  const unsigned k = profile_.k;
  if (chunks.size() != profile_.total())
    return Status::Error(Errc::invalid_argument, "need k+m chunk slots");

  // Fast path: all data chunks present.
  bool all_data = true;
  for (unsigned i = 0; i < k; ++i)
    if (!chunks[i]) {
      all_data = false;
      break;
    }
  if (all_data) {
    std::vector<Chunk> out;
    out.reserve(k);
    for (unsigned i = 0; i < k; ++i) out.push_back(*chunks[i]);
    return out;
  }

  // Gather the first k surviving chunks and their generator rows.
  std::vector<std::size_t> rows;
  Regions survivors;
  for (std::size_t i = 0; i < chunks.size() && rows.size() < k; ++i) {
    if (chunks[i]) {
      survivors[rows.size()] = *chunks[i];
      rows.push_back(i);
    }
  }
  if (rows.size() < k)
    return Status::Error(Errc::corrupted, "fewer than k chunks survive");

  const std::size_t chunk_size = survivors[0].size();
  for (unsigned i = 0; i < k; ++i)
    if (survivors[i].size() != chunk_size)
      return Status::Error(Errc::invalid_argument, "unequal chunk sizes");

  auto sub = generator_.select_rows(rows);
  auto inv = sub.inverted();
  if (!inv.ok()) return inv.status();

  // data[j] = sum_i inv[j][i] * survivor[i]
  return multiply(inv->row(0), k, std::span(survivors).first(k), chunk_size);
}

template <typename Copy>
Payload ReedSolomon::assemble(std::uint64_t chunk_size, std::uint64_t offset,
                              std::uint64_t length, Copy copy) const {
  DK_CHECK(length <= chunk_size * profile_.k)
      << "assembling " << length << " bytes from " << profile_.k
      << " chunks of " << chunk_size;
  return Payload::filled(
      offset, length, [&](std::span<std::uint8_t> dst, std::uint64_t pos) {
        // A destination page may straddle two chunks.
        while (!dst.empty()) {
          const std::uint64_t in_chunk = pos % chunk_size;
          const std::uint64_t n =
              std::min<std::uint64_t>(dst.size(), chunk_size - in_chunk);
          copy(static_cast<unsigned>(pos / chunk_size), in_chunk,
               dst.first(n));
          dst = dst.subspan(n);
          pos += n;
        }
      });
}

Payload ReedSolomon::assemble(std::span<const Payload> data,
                              std::uint64_t offset,
                              std::uint64_t length) const {
  DK_CHECK(data.size() == profile_.k) << "need exactly k data chunks";
  // The chunks are usually cold store pages: start loading all of them
  // before copying any.
  for (const Payload& chunk : data)
    for (std::size_t i = 0; i < chunk.page_count(); ++i)
      chunk.page(i).prefetch(kPageBytes);
  return assemble(data[0].size(), offset, length,
                  [&](unsigned i, std::uint64_t from,
                      std::span<std::uint8_t> dst) {
                    data[i].for_each_segment(
                        from, dst.size(), [&](std::span<const std::uint8_t> s) {
                          std::copy(s.begin(), s.end(), dst.begin());
                          dst = dst.subspan(s.size());
                        });
                  });
}

Payload ReedSolomon::assemble(const std::vector<Chunk>& data,
                              std::uint64_t offset,
                              std::uint64_t length) const {
  DK_CHECK(data.size() == profile_.k) << "need exactly k data chunks";
  return assemble(data[0].size(), offset, length,
                  [&](unsigned i, std::uint64_t from,
                      std::span<std::uint8_t> dst) {
                    std::copy_n(data[i].begin() + static_cast<long>(from),
                                dst.size(), dst.begin());
                  });
}

std::uint64_t ReedSolomon::encode_ops(std::size_t object_bytes) const {
  const std::size_t chunk = (object_bytes + profile_.k - 1) / profile_.k;
  // m parity rows, each a k-way multiply-accumulate over the chunk bytes.
  return static_cast<std::uint64_t>(profile_.m) * profile_.k * chunk;
}

}  // namespace dk::ec
