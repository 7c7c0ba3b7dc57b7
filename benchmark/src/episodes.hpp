// One explorer episode run the way explore::explore runs it: the scenario,
// its invariant verdicts and the canonical-trace hash, each call timed.
// Shared by the explore-churn workload and the traced run's explore probe.
#pragma once

#include <cstdint>
#include <vector>

#include "scenario/runner.hpp"

namespace bench {

struct Episode {
    int stack{0};
    bool churn{false};
    int index{0};
    failsig::scenario::Scenario scenario;
    // Filled by the run.
    failsig::scenario::ScenarioReport report;
    /// wall_s() stamps: start, run_scenario end, evaluate end, hash end. The
    /// traced run turns them into spans afterwards.
    double stamps[4] = {0, 0, 0, 0};
    std::uint64_t hash{0};
    /// The invariant checkers rerun over the trace by scenario::evaluate.
    std::vector<failsig::scenario::InvariantResult> verdicts;

    [[nodiscard]] double run_s() const { return stamps[1] - stamps[0]; }
    [[nodiscard]] double evaluate_s() const { return stamps[2] - stamps[1]; }
    [[nodiscard]] double hash_s() const { return stamps[3] - stamps[2]; }
};

/// Runs one episode; `observe` turns the program's obs plane on.
void run_episode(Episode& ep, bool observe);

/// Episodes on `jobs` threads (the caller's included); the first exception
/// in episode order is rethrown after all finish.
void run_parallel(std::vector<Episode>& eps, int jobs, bool observe);

}  // namespace bench
