// Immutable, epoch-stamped view of a materialized knowledge graph.
//
// A Snapshot bundles everything a query needs — the property graph, its
// label catalog, and the relational encoding MTV-compiled programs run
// against — built once at publication time.  Snapshots are shared via
// `shared_ptr<const Snapshot>` and never mutated after publication, so
// readers pin one with a single atomic load and evaluate against it
// without locks while writers materialize the next epoch off to the side.
//
// The relational encoding is held as one immutable `shared_ptr<const
// Relation>` per predicate.  A query evaluates over a FactDb that shares
// these relations (CloneFacts) and copies only a relation it writes or
// probes on an unindexed column, so a read costs no copy of the encoding.
// The indexes reads probe are built at publication, because a shared
// relation is never mutated.  A *delta*
// snapshot (KgService::ApplyDelta) copies only the relations the delta
// touched and shares every other relation — and the graph, and the
// catalog — with the previous epoch by pointer.

#ifndef KGM_SERVICE_SNAPSHOT_H_
#define KGM_SERVICE_SNAPSHOT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "base/status.h"
#include "metalog/catalog.h"
#include "pg/property_graph.h"
#include "vadalog/database.h"

namespace kgm::service {

struct Snapshot {
  uint64_t epoch = 0;
  std::chrono::steady_clock::time_point published_at{};

  // Shared with delta descendants; never null after BuildSnapshot.
  std::shared_ptr<const pg::PropertyGraph> graph;
  // Catalog scanned from `graph` (FromGraph); queries compile against it.
  metalog::GraphCatalog catalog;
  uint64_t catalog_fingerprint = 0;
  // Relational encoding of `graph` per `catalog`, one immutable relation
  // per predicate, precomputed so queries share it instead of re-encoding
  // the graph per request.  Every node relation is indexed on its oid
  // (column 0) and every edge relation on its endpoints (columns 1 and
  // 2).  Delta snapshots alias unchanged relations with the previous
  // epoch.
  vadalog::SharedRelations facts;

  // True when this epoch was produced by ApplyDelta: `facts` has diverged
  // from `graph` (the graph still describes the base publication), so
  // queries that would need a fresh graph encoding must be rejected
  // instead of silently reading stale data.
  bool is_delta = false;

  // Sizes of `graph` (stale on delta snapshots, like the graph itself).
  size_t num_nodes = 0;
  size_t num_edges = 0;

  // A database for one evaluation that shares every relation of `facts`:
  // O(#relations) pointer copies; a relation is copied only when the
  // evaluation writes it or probes it through an unbuilt index.
  vadalog::FactDb CloneFacts() const;
  size_t TotalFacts() const;
};

// Builds a snapshot from a graph (taken by value; callers Clone() first if
// they need to keep their copy).  Pure function of the inputs — safe to
// run while readers serve an older epoch.
std::shared_ptr<const Snapshot> BuildSnapshot(pg::PropertyGraph graph,
                                              uint64_t epoch);

}  // namespace kgm::service

#endif  // KGM_SERVICE_SNAPSHOT_H_
