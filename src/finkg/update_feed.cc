#include "finkg/update_feed.h"

#include <algorithm>
#include <set>
#include <utility>

namespace kgm::finkg {

UpdateFeed::UpdateFeed(const vadalog::Relation* edges, UpdateFeedConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  if (edges == nullptr || edges->arity() < 3) return;
  arity_ = edges->arity();
  const vadalog::Relation::LiveTuples rows = edges->tuples();
  live_.assign(rows.begin(), rows.end());
  std::set<Value> seen;
  for (const vadalog::Tuple& t : live_) {
    if (t[0].is_int()) next_oid_ = std::max(next_oid_, t[0].AsInt() + 1);
    seen.insert(t[1]);
    seen.insert(t[2]);
  }
  endpoints_.assign(seen.begin(), seen.end());
}

vadalog::EdbDelta UpdateFeed::NextBatch() {
  vadalog::EdbDelta delta;
  if (endpoints_.empty() || config_.batch_size == 0) return delta;

  size_t deletes = static_cast<size_t>(
      static_cast<double>(config_.batch_size) * config_.delete_fraction);
  deletes = std::min(deletes, live_.size());
  for (size_t i = 0; i < deletes; ++i) {
    const size_t pick = rng_.NextBelow(live_.size());
    delta.deletes[config_.edge_pred].push_back(std::move(live_[pick]));
    live_[pick] = std::move(live_.back());
    live_.pop_back();
  }

  const size_t inserts = config_.batch_size - deletes;
  for (size_t i = 0; i < inserts; ++i) {
    vadalog::Tuple t;
    t.push_back(Value(next_oid_++));
    t.push_back(endpoints_[rng_.NextBelow(endpoints_.size())]);
    t.push_back(endpoints_[rng_.NextBelow(endpoints_.size())]);
    // Remaining columns are properties: copy them from a random live row
    // (so e.g. a HOLDS `right` string stays a valid right) but refresh
    // numeric ones with a new ownership percentage in (0, 0.6].
    const vadalog::Tuple* donor =
        live_.empty() ? nullptr : &live_[rng_.NextBelow(live_.size())];
    for (size_t col = 3; col < arity_; ++col) {
      const Value* from_donor =
          donor != nullptr && col < donor->size() ? &(*donor)[col] : nullptr;
      if (from_donor == nullptr || from_donor->is_numeric()) {
        t.push_back(Value(0.01 + 0.59 * rng_.NextDouble()));
      } else {
        t.push_back(*from_donor);
      }
    }
    delta.inserts[config_.edge_pred].push_back(t);
    live_.push_back(std::move(t));
  }
  return delta;
}

}  // namespace kgm::finkg
