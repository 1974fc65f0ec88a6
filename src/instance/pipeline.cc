#include "instance/pipeline.h"

#include <chrono>
#include <map>
#include <set>

#include "base/check.h"
#include "metalog/parser.h"

namespace kgm::instance {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Reads the attributes attached to a staging construct.
pg::PropertyMap StagedAttributes(const pg::PropertyGraph& dict,
                                 pg::NodeId id) {
  pg::PropertyMap out;
  for (pg::EdgeId e : dict.OutEdges(id)) {
    if (!dict.HasEdge(e) || dict.edge(e).label != kOSmHasAttr) continue;
    pg::NodeId attr = dict.edge(e).to;
    const Value* name = dict.NodeProperty(attr, "name");
    const Value* value = dict.NodeProperty(attr, "value");
    if (name != nullptr && name->is_string() && value != nullptr &&
        !value->is_null()) {
      out[name->AsString()] = *value;
    }
  }
  return out;
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
  KGM_ASSIGN_OR_RETURN(LoadedInstance loaded,
                       LoadInstance(schema, *data, options.instance_oid));
  auto t1 = Clock::now();
  stats.load_seconds = Seconds(t0, t1);
  stats.loaded_nodes = loaded.loaded_nodes;
  stats.loaded_edges = loaded.loaded_edges;
  stats.loaded_attributes = loaded.loaded_attributes;

  // --- reason: V_I + Sigma + V_O over the dictionary --------------------------
  KGM_ASSIGN_OR_RETURN(
      stats.input_views,
      GenerateInputViews(schema, sigma, options.instance_oid));
  KGM_ASSIGN_OR_RETURN(
      stats.output_views,
      GenerateOutputViews(schema, sigma, options.instance_oid));
  metalog::MetaRunOptions run_options;
  run_options.engine = options.engine;
  run_options.extra_catalog = SchemaCatalog(schema);
  run_options.prepared = options.prepared;
  // One program text per component (V_I, Sigma, V_O in rule order), so a
  // prepared cache sees a stable key.
  KGM_ASSIGN_OR_RETURN(
      metalog::MetaRunResult reason,
      metalog::RunMetaLogSource(
          stats.input_views + "\n" + sigma_source + "\n" + stats.output_views,
          &loaded.dict, run_options, kFlushLabels));
  auto t2 = Clock::now();
  stats.reason_seconds = Seconds(t1, t2);
  stats.encode_seconds = reason.encode_seconds;
  stats.decode_seconds = reason.decode_seconds;
  stats.vadalog_rules = reason.vadalog_rule_count;
  stats.facts_derived = reason.engine_stats.facts_derived;
  stats.engine_stats = reason.engine_stats;

  // --- flush ------------------------------------------------------------------
  KGM_RETURN_IF_ERROR(FlushStaging(schema, loaded, data, &stats));
  stats.flush_seconds = Seconds(t2, Clock::now());
  return stats;
}

Status FlushStaging(const core::SuperSchema& schema,
                    const LoadedInstance& loaded, pg::PropertyGraph* data,
                    MaterializeStats* stats) {
  const pg::PropertyGraph& dict = loaded.dict;
  // Labels whose relational encoding this flush changes (see
  // MaterializeStats::changed_labels).
  std::set<std::string> changed_labels;
  // 1. Property updates on existing entities.
  for (pg::NodeId u : dict.NodesWithLabel(kOSmPropUpdate)) {
    const Value* name = dict.NodeProperty(u, "name");
    const Value* value = dict.NodeProperty(u, "value");
    if (name == nullptr || value == nullptr || value->is_null()) continue;
    for (pg::EdgeId e : dict.OutEdges(u)) {
      if (!dict.HasEdge(e) || dict.edge(e).label != kOOn) continue;
      auto it = loaded.data_of_inode.find(dict.edge(e).to);
      if (it == loaded.data_of_inode.end()) continue;
      data->SetNodeProperty(it->second, name->AsString(), *value);
      ++stats->updated_properties;
      // Every label relation of the node re-encodes the updated property.
      for (const std::string& l : data->node(it->second).labels) {
        changed_labels.insert(l);
      }
    }
  }
  // 2. New nodes: label = nodeType plus its ancestors (type accumulation).
  std::map<pg::NodeId, pg::NodeId> data_of_onode;
  for (pg::NodeId o : dict.NodesWithLabel(kOSmNode)) {
    const Value* type = dict.NodeProperty(o, "nodeType");
    if (type == nullptr || !type->is_string()) continue;
    std::vector<std::string> labels{type->AsString()};
    for (const std::string& ancestor :
         schema.AncestorsOf(type->AsString())) {
      labels.push_back(ancestor);
    }
    for (const std::string& l : labels) changed_labels.insert(l);
    pg::NodeId id = data->AddNode(labels, StagedAttributes(dict, o));
    data_of_onode[o] = id;
    ++stats->new_nodes;
  }
  // 3. New edges, deduplicated against existing (label, from, to) triples.
  auto resolve_endpoint = [&](pg::NodeId target) -> pg::NodeId {
    auto inode = loaded.data_of_inode.find(target);
    if (inode != loaded.data_of_inode.end()) return inode->second;
    auto onode = data_of_onode.find(target);
    if (onode != data_of_onode.end()) return onode->second;
    return pg::kInvalidNode;
  };
  for (pg::NodeId o : dict.NodesWithLabel(kOSmEdge)) {
    const Value* type = dict.NodeProperty(o, "edgeType");
    if (type == nullptr || !type->is_string()) continue;
    pg::NodeId from = pg::kInvalidNode;
    pg::NodeId to = pg::kInvalidNode;
    for (pg::EdgeId e : dict.OutEdges(o)) {
      if (!dict.HasEdge(e)) continue;
      if (dict.edge(e).label == kOFrom) {
        from = resolve_endpoint(dict.edge(e).to);
      } else if (dict.edge(e).label == kOTo) {
        to = resolve_endpoint(dict.edge(e).to);
      }
    }
    if (from == pg::kInvalidNode || to == pg::kInvalidNode) {
      std::string detail;
      for (pg::EdgeId e : dict.OutEdges(o)) {
        if (!dict.HasEdge(e)) continue;
        detail += " " + dict.edge(e).label + "->node" +
                  std::to_string(dict.edge(e).to) + "(";
        for (const std::string& l : dict.node(dict.edge(e).to).labels) {
          detail += l + ",";
        }
        detail += ")";
      }
      return Internal("staged edge " + type->AsString() +
                      " has unresolved endpoints:" + detail);
    }
    // Dedup: an identical edge may already exist (e.g. re-materialization).
    bool exists = false;
    for (pg::EdgeId e : data->OutEdges(from)) {
      if (data->HasEdge(e) && data->edge(e).to == to &&
          data->edge(e).label == type->AsString()) {
        exists = true;
        break;
      }
    }
    if (exists) continue;
    data->AddEdge(from, to, type->AsString(), StagedAttributes(dict, o));
    ++stats->new_edges;
    changed_labels.insert(type->AsString());
  }
  stats->changed_labels.assign(changed_labels.begin(), changed_labels.end());
  return OkStatus();
}

}  // namespace kgm::instance
