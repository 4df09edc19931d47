#include "crush/builder.hpp"

namespace dk::crush {

ClusterLayout build_cluster(const ClusterSpec& spec) {
  ClusterLayout out;
  CrushMap& map = out.map;

  out.root = map.add_bucket(kTypeRoot, spec.root_alg);
  const Weight osd_w = weight_from_double(kOsdWeight);

  ItemId next_dev = 0;
  for (unsigned h = 0; h < spec.hosts; ++h) {
    const ItemId host = map.add_bucket(kTypeHost, spec.host_alg);
    out.hosts.push_back(host);
    for (unsigned d = 0; d < kOsdsPerHost; ++d) {
      const ItemId dev = next_dev++;
      out.osds.push_back(dev);
      (void)map.link(host, dev, osd_w);
    }
    (void)map.link(out.root, host,
                   static_cast<Weight>(osd_w * kOsdsPerHost));
  }

  // Replicated pools place one replica per host (failure-domain = host).
  out.replicated_rule = map.add_rule(Rule{
      0,
      "replicated",
      {RuleStep::Take(out.root), RuleStep::ChooseLeafFirstN(0, kTypeHost),
       RuleStep::Emit()}});

  // EC pools on small clusters spread chunks across devices directly
  // (failure-domain = osd), since k+m typically exceeds the host count.
  out.ec_rule = map.add_rule(Rule{
      0,
      "erasure",
      {RuleStep::Take(out.root), RuleStep::ChooseFirstN(0, kTypeDevice),
       RuleStep::Emit()}});

  return out;
}

}  // namespace dk::crush
