#include "crush/bucket.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"
#include "crush/hash.hpp"
#include "crush/ln.hpp"

namespace dk::crush {

std::string_view bucket_alg_name(BucketAlg alg) {
  switch (alg) {
    case BucketAlg::uniform: return "uniform";
    case BucketAlg::list: return "list";
    case BucketAlg::tree: return "tree";
    case BucketAlg::straw: return "straw";
    case BucketAlg::straw2: return "straw2";
  }
  return "?";
}

Bucket::Bucket(ItemId id, std::uint16_t type, BucketAlg alg)
    : id_(id), type_(type), alg_(alg) {
  DK_CHECK(id < 0) << "bucket ids are negative, device ids non-negative";
}

Status Bucket::add_item(ItemId item, Weight weight) {
  if (std::find(items_.begin(), items_.end(), item) != items_.end())
    return Status::Error(Errc::invalid_argument, "duplicate item");
  if (alg_ == BucketAlg::uniform && !items_.empty() && weight != weights_[0])
    return Status::Error(Errc::invalid_argument,
                         "uniform bucket requires equal weights");
  items_.push_back(item);
  weights_.push_back(weight);
  rebuild();
  return Status::Ok();
}

Status Bucket::adjust_weight(ItemId item, Weight new_weight) {
  auto it = std::find(items_.begin(), items_.end(), item);
  if (it == items_.end()) return Status::Error(Errc::not_found, "no such item");
  if (alg_ == BucketAlg::uniform && items_.size() > 1)
    return Status::Error(Errc::invalid_argument,
                         "cannot reweight a single item of a uniform bucket");
  weights_[static_cast<std::size_t>(it - items_.begin())] = new_weight;
  rebuild();
  return Status::Ok();
}

void Bucket::rebuild() {
  total_weight_ = 0;
  for (Weight w : weights_) total_weight_ += w;

  // list: cumulative weights, head at index 0.
  cum_weights_.assign(items_.size(), 0);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    cum += weights_[i];
    cum_weights_[i] = cum;
  }

  // straw: Ceph crush_calc_straw — items sorted ascending by weight; each
  // distinct weight level stretches the straw factor so selection frequency
  // is (approximately) weight-proportional.
  straws_.assign(items_.size(), 0);
  if (alg_ == BucketAlg::straw && !items_.empty()) {
    std::vector<std::size_t> order(items_.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return weights_[a] < weights_[b];
    });
    double straw = 1.0;
    double wbelow = 0.0;
    double lastw = 0.0;
    std::size_t i = 0;
    const std::size_t n = order.size();
    while (i < n) {
      const std::size_t oi = order[i];
      if (weights_[oi] == 0) {
        straws_[oi] = 0;
        ++i;
        continue;
      }
      straws_[oi] = static_cast<std::uint64_t>(straw * 0x10000);
      ++i;
      if (i == n) break;
      if (weights_[order[i]] == weights_[order[i - 1]]) continue;
      wbelow += (static_cast<double>(weights_[order[i - 1]]) - lastw) *
                static_cast<double>(n - i + 1);
      double numleft = static_cast<double>(n - i);
      double wnext = numleft * static_cast<double>(weights_[order[i]] -
                                                   weights_[order[i - 1]]);
      double pbelow = wbelow / (wbelow + wnext);
      straw *= std::pow(1.0 / pbelow, 1.0 / numleft);
      lastw = static_cast<double>(weights_[order[i - 1]]);
    }
  }

  // tree: perfect binary tree over items padded to a power of two; heap
  // order with root at index 1; leaves occupy [L, 2L).
  tree_leaves_ = 1;
  while (tree_leaves_ < items_.size()) tree_leaves_ <<= 1;
  if (items_.empty()) tree_leaves_ = 0;
  tree_weights_.assign(tree_leaves_ ? 2 * tree_leaves_ : 0, 0);
  if (tree_leaves_) {
    for (std::size_t i = 0; i < items_.size(); ++i)
      tree_weights_[tree_leaves_ + i] = weights_[i];
    for (std::size_t n = tree_leaves_ - 1; n >= 1; --n)
      tree_weights_[n] = tree_weights_[2 * n] + tree_weights_[2 * n + 1];
  }
}

ItemId Bucket::choose(std::uint32_t x, std::uint32_t r) const {
  if (items_.empty() || total_weight_ == 0) return kNoItem;
  switch (alg_) {
    case BucketAlg::uniform: return choose_uniform(x, r);
    case BucketAlg::list: return choose_list(x, r);
    case BucketAlg::tree: return choose_tree(x, r);
    case BucketAlg::straw: return choose_straw(x, r);
    case BucketAlg::straw2: return choose_straw2(x, r);
  }
  return kNoItem;
}

ItemId Bucket::choose_uniform(std::uint32_t x, std::uint32_t r) const {
  const std::uint32_t h = hash32_3(x, r, static_cast<std::uint32_t>(id_));
  return items_[h % items_.size()];
}

ItemId Bucket::choose_list(std::uint32_t x, std::uint32_t r) const {
  // Walk from the tail (most recently added): item i is selected when its
  // weighted coin-flip w < weight_i relative to the cumulative weight
  // through i. Items added later only displace proportionally, which is
  // why list buckets suit grow-only clusters.
  for (std::size_t i = items_.size(); i-- > 0;) {
    std::uint64_t w = hash32_4(x, static_cast<std::uint32_t>(items_[i]), r,
                               static_cast<std::uint32_t>(id_));
    w &= 0xffff;
    w = (w * cum_weights_[i]) >> 16;
    if (w < weights_[i]) return items_[i];
  }
  return items_[0];
}

ItemId Bucket::choose_tree(std::uint32_t x, std::uint32_t r) const {
  std::size_t n = 1;  // root
  while (n < tree_leaves_) {
    const std::uint64_t wt = tree_weights_[n];
    if (wt == 0) return kNoItem;
    const std::uint64_t draw =
        (static_cast<std::uint64_t>(hash32_4(x, static_cast<std::uint32_t>(n),
                                             r,
                                             static_cast<std::uint32_t>(id_))) *
         wt) >>
        32;
    n = (draw < tree_weights_[2 * n]) ? 2 * n : 2 * n + 1;
  }
  const std::size_t leaf = n - tree_leaves_;
  return leaf < items_.size() && weights_[leaf] > 0 ? items_[leaf] : kNoItem;
}

ItemId Bucket::choose_straw(std::uint32_t x, std::uint32_t r) const {
  std::uint64_t best_draw = 0;
  ItemId best = kNoItem;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    std::uint64_t draw =
        hash32_3(x, static_cast<std::uint32_t>(items_[i]), r) & 0xffff;
    draw *= straws_[i];
    if (best == kNoItem || draw > best_draw) {
      best_draw = draw;
      best = items_[i];
    }
  }
  return best;
}

ItemId Bucket::choose_straw2(std::uint32_t x, std::uint32_t r) const {
  std::int64_t best_draw = 0;
  ItemId best = kNoItem;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (weights_[i] == 0) continue;
    const std::uint32_t u =
        hash32_3(x, static_cast<std::uint32_t>(items_[i]), r) & 0xffff;
    // ln(u/2^16) in 44-bit fixed point, divided by the item weight: the
    // exponential-draw trick makes each item's draw independent, so a
    // weight change only moves data to/from that item.
    const std::int64_t ln = crush_ln(u) - kLnMax;  // <= 0
    const std::int64_t draw = ln / static_cast<std::int64_t>(weights_[i]);
    if (best == kNoItem || draw > best_draw) {
      best_draw = draw;
      best = items_[i];
    }
  }
  return best;
}

std::uint64_t Bucket::choose_work() const {
  switch (alg_) {
    case BucketAlg::uniform: return 1;
    case BucketAlg::list: return items_.size();
    case BucketAlg::tree: {
      std::uint64_t depth = 0;
      for (std::size_t l = 1; l < tree_leaves_; l <<= 1) ++depth;
      return depth ? depth : 1;
    }
    case BucketAlg::straw:
    case BucketAlg::straw2: return items_.size();
  }
  return 1;
}

}  // namespace dk::crush
