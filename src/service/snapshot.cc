#include "service/snapshot.h"

#include <utility>

namespace kgm::service {

vadalog::FactDb Snapshot::CloneFacts() const {
  return vadalog::FactDb(facts);
}

size_t Snapshot::TotalFacts() const {
  size_t total = 0;
  for (const auto& [pred, rel] : facts) total += rel->size();
  return total;
}

std::shared_ptr<const Snapshot> BuildSnapshot(pg::PropertyGraph graph,
                                              uint64_t epoch) {
  auto snap = std::make_shared<Snapshot>();
  snap->epoch = epoch;
  snap->published_at = std::chrono::steady_clock::now();
  snap->graph = std::make_shared<const pg::PropertyGraph>(std::move(graph));
  snap->catalog = metalog::GraphCatalog::FromGraph(*snap->graph);
  snap->catalog_fingerprint = snap->catalog.Fingerprint();
  vadalog::FactDb encoded = metalog::EncodeGraph(*snap->graph, snap->catalog);
  // Shared relations are never mutated, so the indexes reads probe are
  // built here: the structural columns every label has.  A probe on any
  // other column copies that one relation for the query.
  for (const std::string& label : snap->catalog.NodeLabels()) {
    encoded.GetIndexed(label, 0b001);  // oid
  }
  for (const std::string& label : snap->catalog.EdgeLabels()) {
    encoded.GetIndexed(label, 0b010);  // from
    encoded.GetIndexed(label, 0b100);  // to
  }
  snap->facts = std::move(encoded).Share();
  snap->num_nodes = snap->graph->num_nodes();
  snap->num_edges = snap->graph->num_edges();
  return snap;
}

}  // namespace kgm::service
