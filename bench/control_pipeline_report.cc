// E2 — the Section 6 performance experiment.
//
// The paper reports, for the Bank of Italy control component on a 16-core
// 128 GB VM: ~160 minutes of reasoning versus ~15 minutes of loading and
// flushing (ratio ~10.7:1), with the input views materialized once into a
// staging area.  This harness reruns the same staged pipeline
// (Algorithm 2) on synthetic ownership graphs of growing size and prints
// the phase timings and the reason : load+flush ratio, plus the "direct"
// execution that skips the instance machinery (the optimization discussed
// under "Performance Considerations").  Load builds the instance facts,
// reason is views, compile and the engine run, and flush reads the staged
// relations back into the graph.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "instance/pipeline.h"
#include "metalog/runner.h"

namespace {

using EndpointPairs = std::vector<std::pair<kgm::pg::NodeId, kgm::pg::NodeId>>;

// The (from, to) node ids of `g`'s CONTROLS edges, sorted, one entry per
// edge.  The staged and the direct run start from the same
// ToOwnershipGraph(), so their node ids agree.
EndpointPairs ControlsEndpoints(const kgm::pg::PropertyGraph& g) {
  EndpointPairs pairs;
  for (kgm::pg::EdgeId e : g.EdgesWithLabel("CONTROLS")) {
    pairs.emplace_back(g.edge(e).from, g.edge(e).to);
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

std::string Describe(const EndpointPairs& pairs,
                     EndpointPairs::const_iterator it) {
  if (it == pairs.end()) return "nothing";
  return std::to_string(it->first) + " -> " + std::to_string(it->second);
}

}  // namespace

int main() {
  using namespace kgm;
  using Clock = std::chrono::steady_clock;

  core::SuperSchema schema = finkg::CompanyKgSchema();
  const size_t company_scales[] = {500, 1000, 2000, 5000, 10000, 20000};

  std::printf("E2: control materialization, staged pipeline vs direct\n");
  std::printf(
      "paper (BoI KG, 11.97M nodes): reason ~160 min, load+flush ~15 min, "
      "ratio ~10.7:1\n\n");
  std::printf("%10s %10s %10s %10s %10s %10s %10s\n", "companies",
              "owns-edges", "load(s)", "reason(s)", "flush(s)", "ratio",
              "direct(s)");

  // Scales where reasoning took no longer than load+flush.
  std::string reason_not_dominant;
  for (size_t companies : company_scales) {
    finkg::GeneratorConfig config;
    config.num_companies = companies;
    config.num_persons = companies * 3 / 2;
    config.seed = 42;
    finkg::ShareholdingNetwork net =
        finkg::ShareholdingNetwork::Generate(config);

    // Staged pipeline (Algorithm 2).
    pg::PropertyGraph data = net.ToOwnershipGraph();
    size_t owns_edges = data.EdgesWithLabel("OWNS").size();
    auto staged = instance::Materialize(schema, finkg::kControlProgram,
                                        &data);
    if (!staged.ok()) {
      std::printf("staged run failed: %s\n",
                  staged.status().ToString().c_str());
      return 1;
    }
    double load_flush = staged->load_seconds + staged->flush_seconds;
    double ratio = load_flush > 0 ? staged->reason_seconds / load_flush : 0;
    if (staged->reason_seconds <= load_flush) {
      reason_not_dominant += " " + std::to_string(companies);
    }

    // Direct execution: the same MetaLog program straight on the data
    // graph, without instance constructs or views.
    pg::PropertyGraph direct_data = net.ToOwnershipGraph();
    auto t0 = Clock::now();
    auto direct = metalog::RunMetaLogSource(finkg::kControlProgram,
                                            &direct_data);
    auto t1 = Clock::now();
    if (!direct.ok()) {
      std::printf("direct run failed: %s\n",
                  direct.status().ToString().c_str());
      return 1;
    }
    std::printf("%10zu %10zu %10.3f %10.3f %10.3f %9.1f:1 %10.3f\n",
                companies, owns_edges, staged->load_seconds,
                staged->reason_seconds, staged->flush_seconds, ratio,
                std::chrono::duration<double>(t1 - t0).count());
    // Sanity: both paths derive the same CONTROLS edges.
    const EndpointPairs staged_pairs = ControlsEndpoints(data);
    const EndpointPairs direct_pairs = ControlsEndpoints(direct_data);
    if (staged_pairs != direct_pairs) {
      auto [s, d] = std::mismatch(staged_pairs.begin(), staged_pairs.end(),
                                  direct_pairs.begin(), direct_pairs.end());
      std::printf(
          "MISMATCH: staged %zu vs direct %zu CONTROLS edges; first "
          "difference (sorted by endpoints): staged %s, direct %s\n",
          staged_pairs.size(), direct_pairs.size(),
          Describe(staged_pairs, s).c_str(),
          Describe(direct_pairs, d).c_str());
      return 1;
    }
  }
  if (reason_not_dominant.empty()) {
    std::printf("\nshape check: reasoning exceeds load+flush at every scale");
  } else {
    std::printf(
        "\nshape check FAILED: reasoning does not exceed load+flush at "
        "companies =%s",
        reason_not_dominant.c_str());
  }
  std::printf(
      "; staged and direct derive the same CONTROLS edges (from, to) at "
      "every scale.\n");
  return 0;
}
