// CRUSH bucket types (Weil et al., SC'06; Ceph crush/mapper.c).
//
// A bucket is an interior node of the storage hierarchy that selects one of
// its children pseudo-randomly as a function of (input x, replica rank r).
// The five algorithms trade reorganization cost against selection speed:
//
//   uniform — O(1); all items must share one weight; ideal for homogeneous
//             shelves (the paper's "Uniform Bucket" DFX reconfigurable module).
//   list    — O(n); optimal for clusters that only grow (RM "List Bucket").
//   tree    — O(log n); binary tree with subtree weights (RM "Tree Bucket").
//   straw   — O(n); legacy weighted draw with cross-item weight coupling.
//   straw2  — O(n); corrected independent-draw version, ln(u)/w (static RTL
//             kernel "Straw2 Bucket" in the paper's Table I).
//
// Weights are 16.16 fixed point, as in Ceph (kWeightOne == 1.0).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace dk::crush {

using ItemId = std::int32_t;           // >= 0: device; < 0: bucket
constexpr ItemId kNoItem = INT32_MIN;  // selection failure sentinel

using Weight = std::uint32_t;          // 16.16 fixed point
constexpr Weight kWeightOne = 0x10000;

constexpr Weight weight_from_double(double w) {
  return w <= 0 ? 0 : static_cast<Weight>(w * kWeightOne + 0.5);
}

enum class BucketAlg : std::uint8_t { uniform, list, tree, straw, straw2 };

std::string_view bucket_alg_name(BucketAlg alg);

class Bucket {
 public:
  Bucket(ItemId id, std::uint16_t type, BucketAlg alg);

  ItemId id() const { return id_; }
  std::uint16_t type() const { return type_; }
  std::size_t size() const { return items_.size(); }
  const std::vector<ItemId>& items() const { return items_; }
  Weight item_weight(std::size_t i) const { return weights_[i]; }
  Weight total_weight() const { return total_weight_; }

  /// Add a child with the given weight. Uniform buckets require all weights
  /// equal; violating that returns invalid_argument.
  Status add_item(ItemId item, Weight weight);

  /// Change the weight of an existing child.
  Status adjust_weight(ItemId item, Weight new_weight);

  /// Select one child as a function of (x, r). Returns kNoItem when the
  /// bucket is empty or all weights are zero.
  ItemId choose(std::uint32_t x, std::uint32_t r) const;

  /// Number of child-weight comparisons the last algorithm performs for a
  /// single selection — the work metric the FPGA cycle model charges.
  std::uint64_t choose_work() const;

 private:
  void rebuild();

  ItemId choose_uniform(std::uint32_t x, std::uint32_t r) const;
  ItemId choose_list(std::uint32_t x, std::uint32_t r) const;
  ItemId choose_tree(std::uint32_t x, std::uint32_t r) const;
  ItemId choose_straw(std::uint32_t x, std::uint32_t r) const;
  ItemId choose_straw2(std::uint32_t x, std::uint32_t r) const;

  ItemId id_;
  std::uint16_t type_;
  BucketAlg alg_;

  std::vector<ItemId> items_;
  std::vector<Weight> weights_;
  Weight total_weight_ = 0;

  // list: cumulative weight of items[0..i].
  std::vector<std::uint64_t> cum_weights_;
  // straw: per-item straw scaling factors (16.16).
  std::vector<std::uint64_t> straws_;
  // tree: perfect binary tree; leaves_ = items padded to a power of two,
  // node_weight_[1..2L-1] heap-indexed subtree weights (root at 1).
  std::vector<std::uint64_t> tree_weights_;
  std::size_t tree_leaves_ = 0;
};

}  // namespace dk::crush
