#include "grooming/plan_index.hpp"

#include <algorithm>

namespace tgroom {

namespace {

template <class Run>
auto by_key(Run& v, std::int32_t key) {
  return std::lower_bound(v.begin(), v.end(), key,
                          [](const auto& c, std::int32_t k) { return c.key < k; });
}

/// Adds `delta` to the refs of `key` in the sorted run `v`, inserting or
/// erasing the entry as it appears or drops to zero; returns the new refs.
template <class T>
int bump(std::vector<T>& v, std::int32_t key, int delta) {
  auto it = by_key(v, key);
  if (it == v.end() || it->key != key) {
    TGROOM_DCHECK(delta > 0);
    v.insert(it, T{key, delta});
    return delta;
  }
  it->refs += delta;
  if (it->refs > 0) return it->refs;
  v.erase(it);
  return 0;
}

/// Sorts a run by key and merges equal keys, summing their refs.
template <class T>
void merge_run(std::vector<T>& v) {
  std::sort(v.begin(), v.end(),
            [](const T& x, const T& y) { return x.key < y.key; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (out > 0 && v[out - 1].key == v[i].key) {
      v[out - 1].refs += v[i].refs;
    } else {
      v[out++] = v[i];
    }
  }
  v.resize(out);
}

/// Lowest key missing from a run of distinct non-negative keys: keys[i]
/// >= i holds throughout, and the first i where it is greater is the gap.
template <class T>
int first_gap(const std::vector<T>& v) {
  const auto it = std::partition_point(
      v.begin(), v.end(), [&](const T& c) { return c.key == &c - v.data(); });
  return static_cast<int>(it - v.begin());
}

void insert_sorted(std::vector<int>& v, int x) {
  v.insert(std::lower_bound(v.begin(), v.end(), x), x);
}

void erase_sorted(std::vector<int>& v, int x) {
  auto it = std::lower_bound(v.begin(), v.end(), x);
  TGROOM_DCHECK(it != v.end() && *it == x);
  v.erase(it);
}

}  // namespace

PlanIndex::PlanIndex(const GroomingPlan& plan) : k_(plan.grooming_factor) {
  TGROOM_CHECK(k_ >= 1);
  lanes_.resize(static_cast<std::size_t>(plan.wavelength_count()));
  std::vector<std::size_t> load(lanes_.size(), 0);
  for (const GroomedPair& gp : plan.pairs) {
    ++load[static_cast<std::size_t>(gp.wavelength)];
  }
  for (std::size_t w = 0; w < lanes_.size(); ++w) {
    lanes_[w].slots.reserve(load[w]);
    lanes_[w].sites.reserve(2 * load[w]);
  }
  for (const GroomedPair& gp : plan.pairs) {
    Lane& lane = lanes_[static_cast<std::size_t>(gp.wavelength)];
    lane.slots.push_back(Count{gp.timeslot, 1});
    lane.sites.push_back(Count{gp.pair.a, 1});
    lane.sites.push_back(Count{gp.pair.b, 1});
  }
  for (std::size_t w = 0; w < lanes_.size(); ++w) {
    Lane& lane = lanes_[w];
    merge_run(lane.slots);
    merge_run(lane.sites);
    lane.sites.shrink_to_fit();  // reserved for 2 per pair; most are shared
    sadms_ += static_cast<long long>(lane.sites.size());
    if (lane.slots.empty()) ++empty_;
    if (full(lane)) continue;
    open_.push_back(static_cast<int>(w));
    for (const Count& site : lane.sites) {
      open_sites_[site.key].push_back(static_cast<int>(w));
    }
  }
}

int PlanIndex::site_refs(int wavelength, NodeId node) const {
  const auto& sites = lanes_[static_cast<std::size_t>(wavelength)].sites;
  const auto it = by_key(sites, node);
  return it == sites.end() || it->key != node ? 0 : it->refs;
}

int PlanIndex::lowest_free_slot(int wavelength) const {
  if (wavelength == wavelengths()) return 0;
  const int slot = first_gap(lanes_[static_cast<std::size_t>(wavelength)].slots);
  return slot < k_ ? slot : -1;
}

bool PlanIndex::full(const Lane& lane) const {
  return first_gap(lane.slots) >= k_;
}

PlanIndex::Choice PlanIndex::best_wavelength(NodeId a, NodeId b, int skip) {
  const auto list = [&](NodeId node) -> const std::vector<int>* {
    const auto it = open_sites_.find(node);
    return it == open_sites_.end() ? nullptr : &it->second;
  };
  const std::vector<int>* la = list(a);
  const std::vector<int>* lb = list(b);
  // Cost 0: the lowest wavelength in both lists.
  if (la != nullptr && lb != nullptr) {
    auto i = la->begin(), j = lb->begin();
    while (i != la->end() && j != lb->end()) {
      ++examined_;
      if (*i < *j) {
        ++i;
      } else if (*j < *i) {
        ++j;
      } else if (*i == skip) {
        ++i, ++j;
      } else {
        return Choice{*i, 0};
      }
    }
  }
  // Cost 1: the lowest wavelength in either list.
  const auto first = [&](const std::vector<int>* l) {
    if (l == nullptr) return -1;
    for (int w : *l) {
      ++examined_;
      if (w != skip) return w;
    }
    return -1;
  };
  const int wa = first(la), wb = first(lb);
  if (wa >= 0 || wb >= 0) {
    return Choice{wb < 0 || (wa >= 0 && wa < wb) ? wa : wb, 1};
  }
  // Cost 2: no non-full wavelength has a site of either endpoint, so the
  // lowest non-full one is the cheapest.
  for (int w : open_) {
    ++examined_;
    if (w != skip) return Choice{w, 2};
  }
  return Choice{};
}

void PlanIndex::set_open(int wavelength, bool open) {
  if (open) {
    insert_sorted(open_, wavelength);
  } else {
    erase_sorted(open_, wavelength);
  }
  for (const Count& site : lanes_[static_cast<std::size_t>(wavelength)].sites) {
    if (open) {
      insert_sorted(open_sites_[site.key], wavelength);
      continue;
    }
    const auto it = open_sites_.find(site.key);
    erase_sorted(it->second, wavelength);
    if (it->second.empty()) open_sites_.erase(it);
  }
}

void PlanIndex::add(const GroomedPair& gp) {
  const int w = gp.wavelength;
  TGROOM_DCHECK(w >= 0 && w <= wavelengths());
  if (w == wavelengths()) {
    lanes_.emplace_back();
    open_.push_back(w);
    ++empty_;
  }
  Lane& lane = lanes_[static_cast<std::size_t>(w)];
  const bool open = !full(lane);
  if (lane.slots.empty()) --empty_;
  for (NodeId node : {gp.pair.a, gp.pair.b}) {
    if (bump(lane.sites, node, 1) != 1) continue;
    ++sadms_;
    if (open) insert_sorted(open_sites_[node], w);
  }
  bump(lane.slots, gp.timeslot, 1);
  if (open && full(lane)) set_open(w, false);
}

void PlanIndex::remove(const GroomedPair& gp) {
  const int w = gp.wavelength;
  Lane& lane = lanes_[static_cast<std::size_t>(w)];
  const bool was_full = full(lane);
  for (NodeId node : {gp.pair.a, gp.pair.b}) {
    if (bump(lane.sites, node, -1) != 0) continue;
    --sadms_;
    if (was_full) continue;
    const auto it = open_sites_.find(node);
    erase_sorted(it->second, w);
    if (it->second.empty()) open_sites_.erase(it);
  }
  bump(lane.slots, gp.timeslot, -1);
  if (lane.slots.empty()) ++empty_;
  if (was_full && !full(lane)) set_open(w, true);
}

std::vector<int> PlanIndex::compact() {
  if (empty_ == 0) return {};
  std::vector<int> remap(lanes_.size(), -1);
  int next = 0;
  for (std::size_t w = 0; w < lanes_.size(); ++w) {
    if (lanes_[w].slots.empty()) continue;
    remap[w] = next;
    if (static_cast<std::size_t>(next) != w) {
      lanes_[static_cast<std::size_t>(next)] = std::move(lanes_[w]);
    }
    ++next;
  }
  lanes_.resize(static_cast<std::size_t>(next));
  // An empty wavelength is open and in no node's list; the map is
  // increasing, so every list stays sorted.
  std::size_t kept = 0;
  for (int w : open_) {
    if (remap[static_cast<std::size_t>(w)] >= 0) {
      open_[kept++] = remap[static_cast<std::size_t>(w)];
    }
  }
  open_.resize(kept);
  for (auto& [node, list] : open_sites_) {
    for (int& w : list) w = remap[static_cast<std::size_t>(w)];
  }
  empty_ = 0;
  return remap;
}

bool PlanIndex::verify(const GroomingPlan& plan) const {
  const PlanIndex fresh(plan);
  const auto same_lane = [](const Lane& x, const Lane& y) {
    return x.slots == y.slots && x.sites == y.sites;
  };
  return k_ == fresh.k_ && sadms_ == fresh.sadms_ && empty_ == fresh.empty_ &&
         std::equal(lanes_.begin(), lanes_.end(), fresh.lanes_.begin(),
                    fresh.lanes_.end(), same_lane) &&
         open_ == fresh.open_ && open_sites_ == fresh.open_sites_;
}

}  // namespace tgroom
