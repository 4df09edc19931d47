// CRUSH map: the storage hierarchy (devices, buckets) plus placement rules,
// and the rule-execution engine that maps an input x (placement-group seed)
// to an ordered list of OSD devices.
//
// Mirrors the structure of Ceph's crush_map/crush_do_rule: rules are step
// lists (TAKE / CHOOSE_FIRSTN / CHOOSELEAF_FIRSTN / EMIT); selection retries
// on collision, failed descent, or devices marked out, up to 19 attempts
// (Ceph's `choose_total_tries`) with a re-randomized replica rank.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "crush/bucket.hpp"

namespace dk::crush {

struct RuleStep {
  enum class Op : std::uint8_t { take, choose_firstn, chooseleaf_firstn, emit };

  Op op;
  // take: target bucket; choose*: count (0 == numrep) and child type.
  ItemId take_target = kNoItem;
  int count = 0;
  std::uint16_t type = 0;

  static RuleStep Take(ItemId target) {
    return {Op::take, target, 0, 0};
  }
  static RuleStep ChooseFirstN(int count, std::uint16_t type) {
    return {Op::choose_firstn, kNoItem, count, type};
  }
  static RuleStep ChooseLeafFirstN(int count, std::uint16_t type) {
    return {Op::chooseleaf_firstn, kNoItem, count, type};
  }
  static RuleStep Emit() { return {Op::emit, kNoItem, 0, 0}; }
};

struct Rule {
  int id = 0;
  std::string name;
  std::vector<RuleStep> steps;
};

/// Statistics from one rule execution — the "work" the Straw/List/... RTL
/// kernels perform per placement; consumed by the FPGA cycle model.
struct PlacementWork {
  std::uint64_t bucket_descents = 0;   // bucket choose() invocations
  std::uint64_t item_comparisons = 0;  // sum of choose_work() over descents
  std::uint64_t retries = 0;           // collision / failure retries

  PlacementWork& operator+=(const PlacementWork& other) {
    bucket_descents += other.bucket_descents;
    item_comparisons += other.item_comparisons;
    retries += other.retries;
    return *this;
  }
};

class CrushMap {
 public:
  CrushMap() = default;

  /// Create a bucket; returns its (negative) id.
  ItemId add_bucket(std::uint16_t type, BucketAlg alg);

  Bucket* bucket(ItemId id);
  const Bucket* bucket(ItemId id) const;

  /// Attach child (device or bucket) to parent with the given weight.
  Status link(ItemId parent, ItemId child, Weight weight);

  /// Reweight child within parent and propagate the delta up to the root.
  Status reweight(ItemId parent, ItemId child, Weight new_weight);

  /// Mark a device out (failed): rules will not select it.
  void set_device_out(ItemId device, bool out);
  bool device_out(ItemId device) const { return out_.count(device) > 0; }

  int add_rule(Rule rule);
  const Rule* rule(int id) const;

  /// Execute a rule for input x, producing up to numrep devices.
  /// `work`, when non-null, accumulates the placement work performed.
  std::vector<ItemId> do_rule(int rule_id, std::uint32_t x, unsigned numrep,
                              PlacementWork* work = nullptr) const;

  /// Total weight under a bucket (devices reachable), in 16.16 units.
  std::uint64_t subtree_weight(ItemId id) const;

 private:
  // Select `count` distinct children of `type` under each node of `in`.
  std::vector<ItemId> choose_step(const std::vector<ItemId>& in, int count,
                                  std::uint16_t type, bool leaf,
                                  std::uint32_t x, unsigned numrep,
                                  PlacementWork* work) const;

  // Walk down from `from` (a bucket id) choosing per-level until reaching a
  // node of `want_type` (or a device when want_type == 0). Returns kNoItem
  // on a dead end.
  ItemId descend(ItemId from, std::uint16_t want_type, std::uint32_t x,
                 std::uint32_t r, PlacementWork* work) const;

  std::map<ItemId, Bucket> buckets_;
  std::map<int, Rule> rules_;
  std::map<ItemId, ItemId> parent_;  // child -> parent bucket
  std::set<ItemId> out_;
  ItemId next_bucket_id_ = -1;
  int next_rule_id_ = 0;
};

/// Hierarchy type ids used by the builders (Ceph convention: 0 == device).
constexpr std::uint16_t kTypeDevice = 0;
constexpr std::uint16_t kTypeHost = 1;
constexpr std::uint16_t kTypeRoot = 10;

}  // namespace dk::crush
