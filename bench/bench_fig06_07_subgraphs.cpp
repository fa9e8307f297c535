// Figures 6 & 7 — structure of the [80,90) global subgraph and of the local
// subgraphs at [80,90) and [90,100] after removing popular sensors.
//
// Paper: the global subgraph is densely connected around popular nodes
// (Fig. 6); local subgraphs decompose into mostly isolated clusters that
// match physical components (Fig. 7), with at most loose connectivity.
#include <iostream>
#include <map>

#include "common.h"
#include "graph/walktrap.h"
#include "util/strings.h"
#include "util/table.h"

namespace db = desmine::bench;
namespace dd = desmine::data;
namespace du = desmine::util;

namespace {

void analyze_local(const desmine::core::MvrGraph& local,
                   const dd::PlantDataset& plant, const std::string& label) {
  const auto dg = local.to_digraph();
  const auto communities = desmine::graph::walktrap(dg);

  // Cluster table with ground-truth purity.
  std::map<std::size_t, std::vector<std::size_t>> clusters;
  const auto active = local.active_sensors();
  for (std::size_t v : active) {
    clusters[communities.membership[v]].push_back(v);
  }

  du::Table t({"cluster", "size", "members", "dominant true component",
               "purity"});
  for (const auto& [cid, members] : clusters) {
    std::map<std::string, std::size_t> truth_count;
    std::vector<std::string> names;
    for (std::size_t v : members) {
      const std::string& name = local.name(v);
      names.push_back(name);
      const auto it = plant.component_of.find(name);
      ++truth_count[it == plant.component_of.end()
                        ? std::string("aux")
                        : du::concat("c", std::to_string(it->second))];
    }
    std::string dominant;
    std::size_t best = 0;
    for (const auto& [comp, count] : truth_count) {
      if (count > best) {
        best = count;
        dominant = comp;
      }
    }
    t.add_row({std::to_string(cid), std::to_string(members.size()),
               du::join(names, " "), dominant,
               du::fixed(static_cast<double>(best) / members.size(), 2)});
  }
  std::cout << t.to_text("Fig 7: local subgraph " + label);

  // Isolation: edges between different clusters.
  std::size_t cross = 0;
  for (const auto& e : local.edges()) {
    cross += communities.membership[e.src] != communities.membership[e.dst]
                 ? 1
                 : 0;
  }
  std::cout << "  clusters: " << clusters.size() << ", cross-cluster edges: "
            << cross << " of " << local.edges().size()
            << " (paper: clusters mostly isolated, occasionally one "
               "connecting edge)\n\n";
}

}  // namespace

int main() {
  std::cout << "=== Figures 6 & 7: global and local subgraph structure ===\n";
  const dd::PlantDataset plant = dd::generate_plant(db::mini_plant_config());
  const auto fw = db::plant_framework(plant);
  const auto& g = fw.graph();
  const std::size_t pop_thresh = db::popular_threshold(g.sensor_count());

  // ---- Fig 6: global subgraph at [80, 90) ----
  const auto global = g.filter_bleu(80.0, 90.0);
  const auto popular = global.popular_sensors(pop_thresh);
  std::cout << "Fig 6: global subgraph [80,90): "
            << global.active_sensors().size() << " sensors, "
            << global.edges().size() << " edges, " << popular.size()
            << " popular node(s):";
  for (std::size_t v : popular) std::cout << " " << g.name(v);
  std::cout << "\n  (DOT export available via MvrGraph::to_dot(); "
            << global.to_dot().size() << " bytes)\n\n";

  // ---- Fig 7: local subgraphs ----
  analyze_local(global.without_sensors(popular), plant, "[80, 90)");
  const auto strong = g.filter_bleu(90.0, 100.5);
  analyze_local(strong.without_sensors(strong.popular_sensors(pop_thresh)),
                plant, "[90, 100]");

  db::expectation("local clusters reflect system components",
                  "confirmed by domain experts",
                  "purity column vs generator ground truth above");
  return 0;
}
