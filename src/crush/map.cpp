#include "crush/map.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "crush/hash.hpp"

namespace dk::crush {

// Ceph's default `choose_total_tries` tunable.
constexpr unsigned kChooseTotalTries = 19;

ItemId CrushMap::add_bucket(std::uint16_t type, BucketAlg alg) {
  const ItemId id = next_bucket_id_--;
  buckets_.emplace(id, Bucket(id, type, alg));
  return id;
}

Bucket* CrushMap::bucket(ItemId id) {
  auto it = buckets_.find(id);
  return it == buckets_.end() ? nullptr : &it->second;
}

const Bucket* CrushMap::bucket(ItemId id) const {
  auto it = buckets_.find(id);
  return it == buckets_.end() ? nullptr : &it->second;
}

Status CrushMap::link(ItemId parent, ItemId child, Weight weight) {
  Bucket* p = bucket(parent);
  if (!p) return Status::Error(Errc::not_found, "no such parent bucket");
  if (child < 0 && !bucket(child))
    return Status::Error(Errc::not_found, "no such child bucket");
  Status s = p->add_item(child, weight);
  if (!s.ok()) return s;
  parent_[child] = parent;
  return Status::Ok();
}

Status CrushMap::reweight(ItemId parent, ItemId child, Weight new_weight) {
  Bucket* p = bucket(parent);
  if (!p) return Status::Error(Errc::not_found, "no such parent bucket");
  const auto& items = p->items();
  auto it = std::find(items.begin(), items.end(), child);
  if (it == items.end())
    return Status::Error(Errc::not_found, "child not in parent");
  const Weight old =
      p->item_weight(static_cast<std::size_t>(it - items.begin()));
  Status s = p->adjust_weight(child, new_weight);
  if (!s.ok()) return s;
  // Propagate the delta up the chain so ancestors stay consistent.
  ItemId node = parent;
  while (true) {
    auto pit = parent_.find(node);
    if (pit == parent_.end()) break;
    Bucket* anc = bucket(pit->second);
    DK_CHECK(anc);
    const auto& anc_items = anc->items();
    auto ait = std::find(anc_items.begin(), anc_items.end(), node);
    DK_CHECK(ait != anc_items.end());
    const Weight w =
        anc->item_weight(static_cast<std::size_t>(ait - anc_items.begin()));
    const Weight neww = w - old + new_weight;
    (void)anc->adjust_weight(node, neww);
    node = pit->second;
  }
  return Status::Ok();
}

void CrushMap::set_device_out(ItemId device, bool out) {
  if (out)
    out_.insert(device);
  else
    out_.erase(device);
}

int CrushMap::add_rule(Rule rule) {
  rule.id = next_rule_id_++;
  const int id = rule.id;
  rules_.emplace(id, std::move(rule));
  return id;
}

const Rule* CrushMap::rule(int id) const {
  auto it = rules_.find(id);
  return it == rules_.end() ? nullptr : &it->second;
}

ItemId CrushMap::descend(ItemId from, std::uint16_t want_type, std::uint32_t x,
                         std::uint32_t r, PlacementWork* work) const {
  ItemId node = from;
  // Bound the walk by the bucket count to survive accidental cycles.
  for (std::size_t depth = 0; depth <= buckets_.size(); ++depth) {
    if (node >= 0) {
      // Reached a device; valid iff a device was wanted.
      return want_type == kTypeDevice ? node : kNoItem;
    }
    const Bucket* b = bucket(node);
    if (!b) return kNoItem;
    if (b->type() == want_type && node != from) return node;
    const ItemId next = b->choose(x, r);
    if (work) {
      ++work->bucket_descents;
      work->item_comparisons += b->choose_work();
    }
    if (next == kNoItem) return kNoItem;
    if (next < 0 && bucket(next) && bucket(next)->type() == want_type)
      return next;
    node = next;
  }
  return kNoItem;
}

std::vector<ItemId> CrushMap::choose_step(const std::vector<ItemId>& in,
                                          int count, std::uint16_t type,
                                          bool leaf, std::uint32_t x,
                                          unsigned numrep,
                                          PlacementWork* work) const {
  std::vector<ItemId> out;
  const unsigned want = count > 0 ? static_cast<unsigned>(count) : numrep;
  for (ItemId start : in) {
    std::vector<ItemId> local;      // distinct picks under this start node
    std::vector<ItemId> local_mid;  // intermediate buckets used by chooseleaf
    for (unsigned rep = 0; rep < want; ++rep) {
      ItemId picked = kNoItem;
      for (unsigned attempt = 0; attempt < kChooseTotalTries; ++attempt) {
        // Re-randomize the rank on retry, as crush_do_rule does with r'.
        const std::uint32_t r = rep + attempt * numrep;
        ItemId node = descend(start, type, x, r, work);
        if (node == kNoItem) {
          if (work) ++work->retries;
          continue;
        }
        ItemId mid = kNoItem;
        if (leaf && node < 0) {
          // chooseleaf: the failure-domain bucket itself must be distinct
          // across replicas, then descend to a device with a decorrelated
          // rank so device failures retry independently.
          mid = node;
          if (std::find(local_mid.begin(), local_mid.end(), mid) !=
              local_mid.end()) {
            if (work) ++work->retries;
            continue;
          }
          const std::uint32_t r2 =
              hash32_2(static_cast<std::uint32_t>(node), r) & 0xffff;
          node = descend(node, kTypeDevice, x, r2, work);
          if (node == kNoItem) {
            if (work) ++work->retries;
            continue;
          }
        }
        const bool dup =
            std::find(local.begin(), local.end(), node) != local.end();
        const bool dead = node >= 0 && device_out(node);
        if (dup || dead) {
          if (work) ++work->retries;
          continue;
        }
        picked = node;
        if (mid != kNoItem) local_mid.push_back(mid);
        break;
      }
      if (picked != kNoItem) local.push_back(picked);
    }
    out.insert(out.end(), local.begin(), local.end());
  }
  return out;
}

std::vector<ItemId> CrushMap::do_rule(int rule_id, std::uint32_t x,
                                      unsigned numrep,
                                      PlacementWork* work) const {
  const Rule* r = rule(rule_id);
  if (!r || numrep == 0) return {};
  std::vector<ItemId> working;
  std::vector<ItemId> result;
  for (const RuleStep& step : r->steps) {
    switch (step.op) {
      case RuleStep::Op::take:
        working.assign(1, step.take_target);
        break;
      case RuleStep::Op::choose_firstn:
        working = choose_step(working, step.count, step.type, false, x, numrep,
                              work);
        break;
      case RuleStep::Op::chooseleaf_firstn:
        working = choose_step(working, step.count, step.type, true, x, numrep,
                              work);
        break;
      case RuleStep::Op::emit:
        result.insert(result.end(), working.begin(), working.end());
        working.clear();
        break;
    }
  }
  if (result.size() > numrep) result.resize(numrep);
  return result;
}

std::uint64_t CrushMap::subtree_weight(ItemId id) const {
  if (id >= 0) {
    // Device: weight is recorded in the parent; look it up.
    auto pit = parent_.find(id);
    if (pit == parent_.end()) return 0;
    const Bucket* p = bucket(pit->second);
    const auto& items = p->items();
    auto it = std::find(items.begin(), items.end(), id);
    if (it == items.end()) return 0;
    return p->item_weight(static_cast<std::size_t>(it - items.begin()));
  }
  const Bucket* b = bucket(id);
  return b ? b->total_weight() : 0;
}

}  // namespace dk::crush
