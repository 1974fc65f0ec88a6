#include "instance/pipeline.h"

#include <chrono>
#include <memory>
#include <set>
#include <unordered_map>

#include "metalog/parser.h"

namespace kgm::instance {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// The entities of one staged node label: one merged row per distinct OID,
// in the order of each OID's first row, holding in every column the last
// non-null value of that OID's rows.
class StagedEntities {
 public:
  static Result<StagedEntities> Read(const vadalog::FactDb& db,
                                     const metalog::GraphCatalog& catalog,
                                     const std::string& label) {
    StagedEntities out;
    KGM_ASSIGN_OR_RETURN(const vadalog::Relation* rel,
                         catalog.LabelRelation(db, label, /*is_edge=*/false));
    if (rel == nullptr) return out;
    for (const vadalog::Tuple& t : rel->tuples()) {
      auto [it, added] = out.index_.emplace(t[0], out.rows_.size());
      if (added) {
        out.rows_.push_back(t);
        continue;
      }
      vadalog::Tuple& merged = out.rows_[it->second];
      for (size_t c = 1; c < t.size(); ++c) {
        if (!t[c].is_null()) merged[c] = t[c];
      }
    }
    return out;
  }

  const std::vector<vadalog::Tuple>& rows() const { return rows_; }

  // The merged row of the entity with OID `oid`, or null.
  const vadalog::Tuple* Find(const Value& oid) const {
    auto it = index_.find(oid);
    return it == index_.end() ? nullptr : &rows_[it->second];
  }

 private:
  std::vector<vadalog::Tuple> rows_;
  std::unordered_map<Value, size_t, ValueHash> index_;
};

// A non-null string property of a merged row, or null.
const std::string* StringProp(const vadalog::Tuple& row, int column) {
  if (column < 0 || !row[column].is_string()) return nullptr;
  return &row[column].AsString();
}

// A non-null property of a merged row, or null.
const Value* Prop(const vadalog::Tuple& row, int column) {
  if (column < 0 || row[column].is_null()) return nullptr;
  return &row[column];
}

// The rows of one staged link label: each source OID's targets, in row
// order.
using StagedLinks =
    std::unordered_map<Value, std::vector<Value>, ValueHash>;

Result<StagedLinks> ReadLinks(const vadalog::FactDb& db,
                              const metalog::GraphCatalog& catalog,
                              const std::string& label) {
  StagedLinks out;
  KGM_ASSIGN_OR_RETURN(const vadalog::Relation* rel,
                       catalog.LabelRelation(db, label, /*is_edge=*/true));
  if (rel == nullptr) return out;
  for (const vadalog::Tuple& t : rel->tuples()) out[t[1]].push_back(t[2]);
  return out;
}

// The targets of `oid`'s links, or null.
const std::vector<Value>* Targets(const StagedLinks& links,
                                  const Value& oid) {
  auto it = links.find(oid);
  return it == links.end() ? nullptr : &it->second;
}

}  // namespace

metalog::GraphCatalog SchemaCatalog(const core::SuperSchema& schema) {
  metalog::GraphCatalog catalog;
  for (const core::NodeDef& node : schema.nodes()) {
    std::vector<std::string> props;
    for (const core::AttributeDef& a : schema.EffectiveAttributes(node.name)) {
      props.push_back(a.name);
    }
    catalog.AddNodeLabel(node.name, props);
  }
  for (const core::EdgeDef& edge : schema.edges()) {
    std::vector<std::string> props;
    for (const core::AttributeDef& a : edge.attributes) {
      props.push_back(a.name);
    }
    catalog.AddEdgeLabel(edge.name, props);
  }
  return catalog;
}

Result<MaterializeStats> Materialize(const core::SuperSchema& schema,
                                     const std::string& sigma_source,
                                     pg::PropertyGraph* data,
                                     const MaterializeOptions& options) {
  MaterializeStats stats;
  KGM_ASSIGN_OR_RETURN(metalog::MetaProgram sigma,
                       metalog::ParseMetaProgram(sigma_source));

  // --- load -------------------------------------------------------------------
  auto t0 = Clock::now();
  KGM_ASSIGN_OR_RETURN(InstanceFacts facts, LoadInstanceFacts(schema, *data));
  auto t1 = Clock::now();
  stats.load_seconds = Seconds(t0, t1);
  stats.loaded_nodes = facts.loaded_nodes;
  stats.loaded_edges = facts.loaded_edges;
  stats.loaded_attributes = facts.loaded_attributes;

  // --- reason: V_I + Sigma + V_O over the instance facts ----------------------
  const int64_t instance_oid = facts.instance_oid;
  KGM_ASSIGN_OR_RETURN(stats.input_views,
                       GenerateInputViews(schema, sigma, instance_oid));
  KGM_ASSIGN_OR_RETURN(stats.output_views,
                       GenerateOutputViews(schema, sigma, instance_oid));
  metalog::GraphCatalog catalog = facts.catalog;
  catalog.Merge(SchemaCatalog(schema));
  metalog::MetaRunOptions run_options;
  run_options.prepared = options.prepared;
  // One program text per component (V_I, Sigma, V_O in rule order), so a
  // prepared cache sees a stable key.
  KGM_ASSIGN_OR_RETURN(
      std::shared_ptr<const metalog::CompiledMeta> compiled,
      metalog::CompileMetaLogSource(
          stats.input_views + "\n" + sigma_source + "\n" + stats.output_views,
          catalog, run_options));
  if (!facts.catalog.SameColumnsIn(compiled->catalog)) {
    // The compilation added properties to a dictionary label (a schema
    // type named like one): load again with its columns.
    KGM_ASSIGN_OR_RETURN(facts, LoadInstanceFacts(schema, *data, instance_oid,
                                                  &compiled->catalog));
  }
  KGM_RETURN_IF_ERROR(
      compiled->engine->Run(&facts.db, options.engine, &stats.engine_stats));
  auto t2 = Clock::now();
  stats.reason_seconds = Seconds(t1, t2);
  stats.vadalog_rules = compiled->program.rules.size();
  stats.facts_derived = stats.engine_stats.facts_derived;

  // --- flush ------------------------------------------------------------------
  KGM_RETURN_IF_ERROR(
      FlushStaging(schema, compiled->catalog, facts.db, facts, data, &stats));
  stats.flush_seconds = Seconds(t2, Clock::now());
  return stats;
}

Status FlushStaging(const core::SuperSchema& schema,
                    const metalog::GraphCatalog& catalog,
                    const vadalog::FactDb& staged, const InstanceMap& loaded,
                    pg::PropertyGraph* data, MaterializeStats* stats) {
  KGM_ASSIGN_OR_RETURN(
      StagedEntities updates,
      StagedEntities::Read(staged, catalog, kOSmPropUpdate));
  KGM_ASSIGN_OR_RETURN(StagedEntities nodes,
                       StagedEntities::Read(staged, catalog, kOSmNode));
  KGM_ASSIGN_OR_RETURN(StagedEntities edges,
                       StagedEntities::Read(staged, catalog, kOSmEdge));
  KGM_ASSIGN_OR_RETURN(StagedEntities attributes,
                       StagedEntities::Read(staged, catalog, kOSmAttribute));
  KGM_ASSIGN_OR_RETURN(StagedLinks on, ReadLinks(staged, catalog, kOOn));
  KGM_ASSIGN_OR_RETURN(StagedLinks has_attr,
                       ReadLinks(staged, catalog, kOSmHasAttr));
  KGM_ASSIGN_OR_RETURN(StagedLinks from_links,
                       ReadLinks(staged, catalog, kOFrom));
  KGM_ASSIGN_OR_RETURN(StagedLinks to_links, ReadLinks(staged, catalog, kOTo));

  // Labels whose relational encoding this flush changes (see
  // MaterializeStats::changed_labels).
  std::set<std::string> changed_labels;
  // 1. Property updates on existing entities.
  const int update_name = catalog.NodePropColumn(kOSmPropUpdate, "name");
  const int update_value = catalog.NodePropColumn(kOSmPropUpdate, "value");
  for (const vadalog::Tuple& u : updates.rows()) {
    const std::string* name = StringProp(u, update_name);
    const Value* value = Prop(u, update_value);
    const std::vector<Value>* targets = Targets(on, u[0]);
    if (name == nullptr || value == nullptr || targets == nullptr) continue;
    for (const Value& target : *targets) {
      const pg::NodeId node = loaded.DataNodeOf(target);
      if (node == pg::kInvalidNode) continue;
      const Value* stored = data->NodeProperty(node, *name);
      if (stored != nullptr && *stored == *value) continue;  // no change
      data->SetNodeProperty(node, *name, *value);
      ++stats->updated_properties;
      // Every label relation of the node re-encodes the updated property.
      for (const std::string& l : data->node(node).labels) {
        changed_labels.insert(l);
      }
    }
  }
  // The attributes staged on a new node or edge.
  const int attr_name = catalog.NodePropColumn(kOSmAttribute, "name");
  const int attr_value = catalog.NodePropColumn(kOSmAttribute, "value");
  auto staged_attributes = [&](const Value& oid) {
    pg::PropertyMap out;
    const std::vector<Value>* targets = Targets(has_attr, oid);
    if (targets == nullptr) return out;
    for (const Value& target : *targets) {
      const vadalog::Tuple* attr = attributes.Find(target);
      if (attr == nullptr) continue;
      const std::string* name = StringProp(*attr, attr_name);
      const Value* value = Prop(*attr, attr_value);
      if (name != nullptr && value != nullptr) out[*name] = *value;
    }
    return out;
  };
  // 2. New nodes: label = nodeType plus its ancestors (type accumulation).
  std::unordered_map<Value, pg::NodeId, ValueHash> data_of_onode;
  const int node_type = catalog.NodePropColumn(kOSmNode, "nodeType");
  for (const vadalog::Tuple& o : nodes.rows()) {
    const std::string* type = StringProp(o, node_type);
    if (type == nullptr) continue;
    std::vector<std::string> labels = schema.AccumulatedLabels(*type);
    for (const std::string& l : labels) changed_labels.insert(l);
    data_of_onode.emplace(o[0],
                          data->AddNode(labels, staged_attributes(o[0])));
    ++stats->new_nodes;
  }
  // 3. New edges, deduplicated against existing (label, from, to) triples.
  // An endpoint is the target of the staged edge's last O_FROM / O_TO row.
  auto endpoint = [&](const StagedLinks& links,
                      const Value& oid) -> pg::NodeId {
    const std::vector<Value>* targets = Targets(links, oid);
    if (targets == nullptr) return pg::kInvalidNode;
    const pg::NodeId inode = loaded.DataNodeOf(targets->back());
    if (inode != pg::kInvalidNode) return inode;
    auto onode = data_of_onode.find(targets->back());
    return onode == data_of_onode.end() ? pg::kInvalidNode : onode->second;
  };
  const int edge_type = catalog.NodePropColumn(kOSmEdge, "edgeType");
  for (const vadalog::Tuple& o : edges.rows()) {
    const std::string* type = StringProp(o, edge_type);
    if (type == nullptr) continue;
    const pg::NodeId from = endpoint(from_links, o[0]);
    const pg::NodeId to = endpoint(to_links, o[0]);
    if (from == pg::kInvalidNode || to == pg::kInvalidNode) {
      auto describe = [&o](const StagedLinks& links) {
        const std::vector<Value>* targets = Targets(links, o[0]);
        return targets == nullptr ? std::string("none")
                                  : targets->back().ToString();
      };
      return FailedPrecondition(
          "staged edge " + *type + " " + o[0].ToString() +
          " has an unresolved endpoint: from " + describe(from_links) +
          ", to " + describe(to_links));
    }
    // Dedup: an identical edge may already exist (e.g. re-materialization).
    bool exists = false;
    for (pg::EdgeId e : data->OutEdges(from)) {
      if (data->HasEdge(e) && data->edge(e).to == to &&
          data->edge(e).label == *type) {
        exists = true;
        break;
      }
    }
    if (exists) continue;
    data->AddEdge(from, to, *type, staged_attributes(o[0]));
    ++stats->new_edges;
    changed_labels.insert(*type);
  }
  stats->changed_labels.assign(changed_labels.begin(), changed_labels.end());
  return OkStatus();
}

}  // namespace kgm::instance
