#include "fleet/population.h"

#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace demuxabr::fleet {
namespace {

/// Throws std::invalid_argument naming the first setting plan_population
/// cannot expand: every later draw indexes the player mix, and arrivals
/// must come out finite and non-decreasing.
void validate_population(const FleetConfig& config) {
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string("plan_population: ") + what);
  };
  if (config.players.empty()) reject("FleetConfig::players is empty");
  if (config.client_count < 0) reject("client_count must be >= 0");
  if (config.arrivals == ArrivalProcess::kPoisson &&
      !(std::isfinite(config.arrival_rate_per_s) && config.arrival_rate_per_s > 0.0)) {
    reject("arrival_rate_per_s must be finite and > 0 under Poisson arrivals");
  }
  if (config.arrivals == ArrivalProcess::kDeterministic &&
      !(std::isfinite(config.arrival_interval_s) && config.arrival_interval_s >= 0.0)) {
    reject("arrival_interval_s must be finite and >= 0 under deterministic arrivals");
  }
  const ChurnConfig& churn = config.churn;
  if (!(churn.leave_probability >= 0.0 && churn.leave_probability <= 1.0)) {
    reject("churn.leave_probability must lie in [0, 1]");
  }
  if (!(std::isfinite(churn.min_watch_s) && std::isfinite(churn.max_watch_s) &&
        churn.min_watch_s >= 0.0 && churn.min_watch_s <= churn.max_watch_s)) {
    reject("churn watch window must satisfy 0 <= min_watch_s <= max_watch_s, "
           "both finite");
  }
}

}  // namespace

std::vector<ClientPlan> plan_population(const FleetConfig& config) {
  validate_population(config);
  Rng rng(config.seed);

  std::vector<double> weights;
  weights.reserve(config.players.size());
  for (const PlayerShare& share : config.players) weights.push_back(share.weight);

  std::vector<ClientPlan> plans;
  plans.reserve(static_cast<std::size_t>(config.client_count));
  double arrival = 0.0;
  for (int id = 0; id < config.client_count; ++id) {
    ClientPlan plan;
    plan.id = id;
    switch (config.arrivals) {
      case ArrivalProcess::kSimultaneous:
        break;
      case ArrivalProcess::kDeterministic:
        arrival = static_cast<double>(id) * config.arrival_interval_s;
        break;
      case ArrivalProcess::kPoisson:
        if (id > 0) arrival += rng.exponential(config.arrival_rate_per_s);
        break;
    }
    plan.arrival_s = arrival;
    plan.player_index =
        config.players.size() > 1 ? rng.weighted_index(weights) : 0;
    plan.player_label = config.players[plan.player_index].label;
    if (config.churn.leave_probability > 0.0 &&
        rng.bernoulli(config.churn.leave_probability)) {
      const double watch =
          rng.uniform(config.churn.min_watch_s, config.churn.max_watch_s);
      plan.leave_at_s = plan.arrival_s + watch;
    }
    plans.push_back(std::move(plan));
  }
  // Arrivals are generated non-decreasing by construction for every process,
  // so the id order already is arrival order.
  return plans;
}

}  // namespace demuxabr::fleet
