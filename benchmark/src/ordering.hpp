// One deployment run of the ordering workload: build a deployment through
// deploy::make_deployment, drive tagged requests into it in a closed loop,
// run it to quiescence on the simulator, and check the delivery log.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "checker.hpp"
#include "common/batch.hpp"
#include "deploy/deployment.hpp"

namespace bench {

struct RoundSpec {
    SystemKind system{SystemKind::kNewTop};
    int n{4};
    /// Closed loop: every member keeps `window` requests outstanding (its own
    /// delivery of a request releases the next) until it has submitted
    /// `per_member`.
    int window{1};
    int per_member{0};
    std::size_t payload{8};
    /// Seeds the deployment and the request payloads.
    std::uint64_t seed{1};
    /// Traced run: the program's obs plane on.
    bool observe{false};
};

struct RoundResult {
    std::uint64_t requests{0};
    std::uint64_t deliveries{0};
    std::vector<double> sim_latency_ms;
    std::vector<double> wall_latency_ms;
    std::vector<double> submit_us;
    double build_s{0};
    double run_s{0};
    double run_cpu_s{0};
    double virtual_makespan_s{0};
    // Public counters read after the run.
    std::uint64_t net_messages{0};
    std::uint64_t net_bytes{0};
    std::uint64_t net_copied{0};
    std::uint64_t events_fired{0};
    std::uint64_t max_queue_footprint{0};
    failsig::BatchStats batch{};
    failsig::deploy::RecoveryStats recovery{};
    std::uint64_t verify_ops{0};
    std::uint64_t verify_hits{0};
    // Obs plane (observe only).
    std::uint64_t signs{0};
    double span_batch_wait_p50_us{0};
    double span_send_p50_us{0};
    double span_order_p50_us{0};
    double holdback_max{0};
    CheckResult check;
    /// Hash of everything virtual-time about the run (reruns must reproduce
    /// it exactly).
    std::uint64_t fingerprint{0};
};

RoundResult run_round(const RoundSpec& spec, SpanRecorder& spans);

}  // namespace bench
