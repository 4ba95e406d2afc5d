#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "grooming/incremental.hpp"
#include "grooming/repair.hpp"
#include "util/thread_pool.hpp"

namespace tgroom {

namespace {

LatencySummary summarize_latency(std::vector<double>& samples_us) {
  LatencySummary summary;
  summary.count = static_cast<long long>(samples_us.size());
  if (samples_us.empty()) return summary;
  std::sort(samples_us.begin(), samples_us.end());
  auto percentile = [&](double p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(samples_us.size())));
    return samples_us[std::min(samples_us.size() - 1,
                               rank == 0 ? 0 : rank - 1)];
  };
  summary.p50_us = percentile(0.50);
  summary.p90_us = percentile(0.90);
  summary.p99_us = percentile(0.99);
  summary.max_us = samples_us.back();
  return summary;
}

}  // namespace

SimResult simulate_script(const DemandScript& script,
                          const SimOptions& options) {
  TGROOM_CHECK(options.k >= 1);
  TGROOM_CHECK(options.max_wavelengths >= 0);

  SimResult result;
  GroomingPlan plan;
  plan.ring_size = script.config.ring_size;
  plan.grooming_factor = options.k;

  // Demands blocked at arrival have no circuit to release at departure.
  std::vector<bool> active(script.demands.size(), false);
  std::vector<double> arrival_us;
  std::vector<double> release_us;
  if (options.collect_latency) {
    arrival_us.reserve(script.demands.size());
    release_us.reserve(script.demands.size());
  }
  using Clock = std::chrono::steady_clock;

  // The plan's totals, as the last accepted change left them.
  long long sadms = 0;
  int wavelengths = 0;
  std::vector<DemandPair> one(1);
  for (const SimEvent& event : script.events) {
    const DemandPair pair = script.demands[event.demand];
    one[0] = pair;
    if (event.kind == SimEvent::Kind::kArrival) {
      ++result.arrivals;
      const Clock::time_point start =
          options.collect_latency ? Clock::now() : Clock::time_point{};
      const IncrementalStats stats = extend_plan_incremental(plan, one);
      // Admission control: extend appends exactly one circuit, so a plan
      // that now exceeds the wavelength budget rolls back with pop_back
      // and the demand is blocked.
      if (options.max_wavelengths > 0 &&
          plan.wavelength_count() > options.max_wavelengths) {
        plan.pairs.pop_back();
        ++result.blocked;
        active[event.demand] = false;
      } else {
        ++result.accepted;
        active[event.demand] = true;
        result.sadms_added += stats.new_sadms;
        sadms = stats.sadms;
        wavelengths = stats.wavelengths;
      }
      if (options.collect_latency) {
        arrival_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - start)
                .count());
      }
    } else {
      if (!active[event.demand]) continue;
      active[event.demand] = false;
      const Clock::time_point start =
          options.collect_latency ? Clock::now() : Clock::time_point{};
      const ReleaseStats stats =
          release_demands(plan, one, options.repair);
      if (options.collect_latency) {
        release_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - start)
                .count());
      }
      ++result.departures;
      result.sadms_removed += stats.sadms_removed;
      result.repair_moves += stats.repair_moves;
      result.freed_wavelengths += stats.freed_wavelengths;
      sadms = stats.sadms;
      wavelengths = stats.wavelengths;
    }
    result.peak_sadms = std::max(result.peak_sadms, sadms);
    result.peak_wavelengths = std::max(result.peak_wavelengths, wavelengths);
    if (options.check_bound && !plan_within_prop2_bound(plan)) {
      result.bound_ok = false;
    }
  }

  result.blocking_rate =
      result.arrivals == 0
          ? 0.0
          : static_cast<double>(result.blocked) /
                static_cast<double>(result.arrivals);
  result.final_sadms = sadms;
  result.final_wavelengths = wavelengths;
  result.residual_demands = plan.pairs.size();
  result.arrival_latency = summarize_latency(arrival_us);
  result.release_latency = summarize_latency(release_us);
  return result;
}

std::uint64_t load_point_seed(std::uint64_t base_seed, std::size_t index) {
  std::uint64_t state =
      base_seed ^ (0x9e3779b97f4a7c15ULL *
                   (static_cast<std::uint64_t>(index) + 1));
  return splitmix64(state);
}

LoadSweepResult run_load_sweep(const LoadSweepOptions& options) {
  TGROOM_CHECK_MSG(options.load_steps >= 1,
                   "load sweep needs at least one step");
  TGROOM_CHECK_MSG(options.load_start > 0.0 && options.load_step > 0.0,
                   "load grid must be positive and increasing");

  LoadSweepResult sweep;
  sweep.points.resize(static_cast<std::size_t>(options.load_steps));
  // Each point is an independent cell written to its own slot — the
  // BatchGroomer determinism pattern — so worker count cannot affect the
  // output bytes.
  ThreadPool pool(options.workers);
  pool.parallel_for_index(
      sweep.points.size(), [&](std::size_t i) {
        TrafficConfig config = options.traffic;
        config.load =
            options.load_start + options.load_step * static_cast<double>(i);
        config.seed = load_point_seed(options.traffic.seed, i);
        LoadPoint& point = sweep.points[i];
        point.load = config.load;
        point.result = simulate_script(generate_script(config), options.sim);
      });
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    if (sweep.points[i].result.blocking_rate >=
        options.blocking_threshold) {
      sweep.threshold_index = static_cast<int>(i);
      break;
    }
  }
  return sweep;
}

}  // namespace tgroom
