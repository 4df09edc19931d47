// Convenience builders for the cluster topologies used in the paper's
// evaluation: a root bucket over `hosts` host buckets with kOsdsPerHost
// devices each (the industrial testbed is 2 hosts x 16 OSDs = 32 OSDs).
#pragma once

#include <vector>

#include "crush/map.hpp"

namespace dk::crush {

struct ClusterLayout {
  CrushMap map;
  ItemId root = kNoItem;
  std::vector<ItemId> hosts;
  std::vector<ItemId> osds;        // device ids 0..n-1
  int replicated_rule = -1;        // chooseleaf across hosts
  int ec_rule = -1;                // choose across devices (small clusters)
};

/// Devices per host bucket, each of CRUSH weight kOsdWeight (the testbed's
/// identical drives).
constexpr unsigned kOsdsPerHost = 16;
constexpr double kOsdWeight = 1.0;

struct ClusterSpec {
  unsigned hosts = 2;
  BucketAlg host_alg = BucketAlg::straw2;
  BucketAlg root_alg = BucketAlg::straw2;
};

/// Build the hierarchy root -> hosts -> OSDs with both placement rules.
ClusterLayout build_cluster(const ClusterSpec& spec);

}  // namespace dk::crush
