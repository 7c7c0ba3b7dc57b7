// saturate-small, the ordering workload on the simulator. Each measured
// round runs every stack once, on inputs drawn from (--seed, round index), so
// every run attempts whole rounds of the same operations however long it
// lasts.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <thread>

#include "common/rng.hpp"
#include "layers.hpp"
#include "ordering.hpp"

namespace bench {

namespace {

std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round, SystemKind system) {
    std::uint64_t state = seed ^ (round * 0x9e3779b97f4a7c15ULL);
    std::uint64_t h = failsig::splitmix64(state);
    state = h ^ static_cast<std::uint64_t>(system);
    return failsig::splitmix64(state);
}

/// One stack's share of one round (its replicas).
struct RoundAcc {
    std::vector<double> sim_lat, wall_lat;
    double deliveries{0}, run_s{0}, ordered{0}, makespan_s{0};

    void add(const RoundResult& r) {
        sim_lat.insert(sim_lat.end(), r.sim_latency_ms.begin(), r.sim_latency_ms.end());
        wall_lat.insert(wall_lat.end(), r.wall_latency_ms.begin(), r.wall_latency_ms.end());
        deliveries += static_cast<double>(r.deliveries);
        run_s += r.run_s;
        ordered += static_cast<double>(r.requests);
        makespan_s += r.virtual_makespan_s;
    }
};

/// Per-stack figures over the measured rounds. End-to-end metrics are
/// medians of per-round figures, so one round disturbed by the machine does
/// not move them and memory stays bounded by one round's samples.
struct StackTotals {
    std::vector<double> rate, sim_p50, wall_p50, tput, sim_p99, wall_p99, sim_tail, wall_tail;
    std::string sim_tail_name, wall_tail_name;
    // Traced run only.
    std::vector<double> submit_us, build_ms;
    std::vector<double> span_batch_wait, span_send, span_order;
    std::uint64_t requests{0};
    double run_s{0}, run_cpu_s{0}, holdback_max{0};
    std::uint64_t net_messages{0}, net_bytes{0}, net_copied{0}, events{0}, footprint{0};
    std::uint64_t signs{0}, verify_ops{0}, verify_hits{0}, checkpoints{0}, log_retained{0};
    failsig::BatchStats batch{};

    void close_round(const RoundAcc& acc) {
        rate.push_back(acc.run_s > 0 ? acc.deliveries / acc.run_s : 0.0);
        sim_p50.push_back(median(acc.sim_lat));
        wall_p50.push_back(median(acc.wall_lat));
        tput.push_back(acc.makespan_s > 0 ? acc.ordered / acc.makespan_s : 0.0);
        sim_p99.push_back(percentile(acc.sim_lat, 0.99));
        wall_p99.push_back(percentile(acc.wall_lat, 0.99));
        const Tail st = tail_of(acc.sim_lat);
        const Tail wt = tail_of(acc.wall_lat);
        sim_tail.push_back(st.value);
        wall_tail.push_back(wt.value);
        sim_tail_name = st.name;
        wall_tail_name = wt.name;
    }

    void add_layers(const RoundResult& r) {
        submit_us.insert(submit_us.end(), r.submit_us.begin(), r.submit_us.end());
        build_ms.push_back(r.build_s * 1e3);
        span_batch_wait.push_back(r.span_batch_wait_p50_us);
        span_send.push_back(r.span_send_p50_us);
        span_order.push_back(r.span_order_p50_us);
        requests += r.requests;
        run_s += r.run_s;
        run_cpu_s += r.run_cpu_s;
        holdback_max = std::max(holdback_max, r.holdback_max);
        net_messages += r.net_messages;
        net_bytes += r.net_bytes;
        net_copied += r.net_copied;
        events += r.events_fired;
        footprint = std::max<std::uint64_t>(footprint, r.max_queue_footprint);
        signs += r.signs;
        verify_ops += r.verify_ops;
        verify_hits += r.verify_hits;
        checkpoints += r.recovery.checkpoints_taken;
        log_retained = std::max(log_retained, r.recovery.log_slots_retained);
        batch += r.batch;
    }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Runs replica(j) for every j < jobs, one thread each; the first replica's
/// exception, if any, is rethrown after all have finished.
template <typename Fn>
void on_threads(int jobs, const Fn& replica) {
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(jobs));
    std::vector<std::thread> threads;
    for (int j = 0; j < jobs; ++j) {
        threads.emplace_back([&, j] {
            try {
                replica(j);
            } catch (...) {
                errors[static_cast<std::size_t>(j)] = std::current_exception();
            }
        });
    }
    for (auto& t : threads) t.join();
    for (auto& e : errors) {
        if (e) std::rethrow_exception(e);
    }
}

// One stack's deployment run in a saturate-small round: a closed loop of
// unbatched 3-byte requests at n=10, the paper's knee, so fixed per-round
// costs dominate. Request counts differ per stack so each spends a similar
// share of the round's wall time. `warmup` asks for the short set-up run.
RoundSpec saturate_spec(SystemKind system, std::uint64_t seed, bool warmup) {
    RoundSpec s;
    s.system = system;
    s.n = 10;
    s.window = 2;
    s.per_member = system == SystemKind::kFsNewTop ? 6
                   : system == SystemKind::kPbft   ? 60
                                                   : 120;
    if (warmup) s.per_member /= 5;
    s.payload = 3;
    s.seed = seed;
    return s;
}

}  // namespace

Outcome run_saturate_small(const Options& opt, SpanRecorder& spans) {
    Outcome out;
    SpanRecorder quiet(false);

    // Every stack runs `jobs` replicas of its deployment run (inputs drawn
    // per replica) at once, one per thread, in the set-up and in each
    // measured round, and the figures pool them: each figure then averages
    // over the cores, so a run that lands on a slow core is not slow as a
    // whole. The traced run uses one thread (spans are recorded unlocked).
    const int jobs = opt.trace ? 1 : std::max(1, opt.jobs);
    SpanRecorder& replica_spans = opt.trace ? spans : quiet;

    // Set-up: build every stack's deployments and run a short warm-up round.
    // It runs once before the measured rounds and again after each further
    // tenth of the measured time, so the median set-up time samples the whole
    // run, as the other metrics do, and not only its first seconds.
    std::vector<double> setups;
    const auto setup = [&] {
        const double t0 = wall_s();
        const Scoped s(spans, "bench.setup");
        for (const Stack& stack : kStacks) {
            std::vector<RoundResult> warm(static_cast<std::size_t>(jobs));
            on_threads(jobs, [&](int j) {
                warm[static_cast<std::size_t>(j)] = run_round(
                    saturate_spec(stack.kind,
                                  round_seed(opt.seed, 1000 + static_cast<std::uint64_t>(j),
                                             stack.kind),
                                  true),
                    replica_spans);
            });
            for (const RoundResult& r : warm) {
                if (!r.check.ok) {
                    out.fail(std::string("warm-up ") + stack.suffix + ": " + r.check.error);
                }
            }
        }
        setups.push_back(wall_s() - t0);
    };
    setup();

    // Measured rounds. The traced run first runs each replica untraced, on
    // the same inputs, to price the tracing itself.
    StackTotals totals[3];
    std::vector<std::uint64_t> fingerprints[3];
    double traced_s = 0;
    double untraced_s = 0;
    std::vector<double> round_rate;  // stack replicas per wall second, per round
    std::uint64_t rounds = 0;
    double measured = 0;
    do {
        const double r0 = wall_s();
        for (int k = 0; k < 3; ++k) {
            std::vector<RoundResult> results(static_cast<std::size_t>(jobs));
            const auto replica = [&](int j) {
                const std::uint64_t seed =
                    round_seed(opt.seed, rounds * static_cast<std::uint64_t>(jobs) +
                                             static_cast<std::uint64_t>(j),
                               kStacks[k].kind);
                RoundSpec spec = saturate_spec(kStacks[k].kind, seed, false);
                RoundResult& result = results[static_cast<std::size_t>(j)];
                if (opt.trace) {
                    double t0 = wall_s();
                    (void)run_round(spec, quiet);
                    untraced_s += wall_s() - t0;
                    spec.observe = true;
                    t0 = wall_s();
                    result = run_round(spec, spans);
                    traced_s += wall_s() - t0;
                } else {
                    result = run_round(spec, quiet);
                }
            };
            on_threads(jobs, replica);
            RoundAcc acc;
            for (const RoundResult& r : results) {
                if (!r.check.ok) out.fail(std::string(kStacks[k].suffix) + ": " + r.check.error);
                if (opt.trace) totals[k].add_layers(r);
                acc.add(r);
                out.attempted += r.requests;
                if (rounds == 0) fingerprints[k].push_back(r.fingerprint);
            }
            totals[k].close_round(acc);
        }
        const double round_s = wall_s() - r0;
        measured += round_s;
        round_rate.push_back(3.0 * jobs / round_s);
        ++rounds;
        while (setups.size() <= 10 &&
               measured >= opt.seconds * static_cast<double>(setups.size()) / 10) {
            setup();
        }
    } while (measured < opt.seconds);

    // Determinism: round 0 rerun with the same seed reproduces its
    // virtual-time results and counters exactly.
    for (int k = 0; k < 3; ++k) {
        for (int j = 0; j < jobs; ++j) {
            RoundSpec spec = saturate_spec(
                kStacks[k].kind, round_seed(opt.seed, static_cast<std::uint64_t>(j), kStacks[k].kind),
                false);
            spec.observe = opt.trace;
            if (run_round(spec, quiet).fingerprint != fingerprints[k][static_cast<std::size_t>(j)]) {
                out.fail(std::string(kStacks[k].suffix) + ": rerun with the same seed diverged");
            }
        }
    }

    Metrics& m = out.metrics;
    if (!opt.trace) {
        m.set("setup_s", median(setups), "s");
        for (int k = 0; k < 3; ++k) {
            const StackTotals& t = totals[k];
            const std::string sfx = std::string(".") + kStacks[k].suffix;
            m.set("deliveries_per_s" + sfx, median(t.rate), "deliveries/s");
            m.set("sim_latency_p50_ms" + sfx, median(t.sim_p50), "ms");
            m.set("sim_throughput_msg_s" + sfx, median(t.tput), "requests/s");
            m.set("wall_latency_p50_ms" + sfx, median(t.wall_p50), "ms");
            char line[200];
            std::snprintf(line, sizeof line,
                          "%-9s sim_latency_ms  p50=%.4f p99=%.4f %s=%.4f (medians of %zu rounds)",
                          kStacks[k].suffix, median(t.sim_p50), median(t.sim_p99),
                          t.sim_tail_name.c_str(), median(t.sim_tail), t.rate.size());
            out.notes.emplace_back(line);
            std::snprintf(line, sizeof line,
                          "%-9s wall_latency_ms p50=%.4f p99=%.4f %s=%.4f (medians of %zu rounds)",
                          kStacks[k].suffix, median(t.wall_p50), median(t.wall_p99),
                          t.wall_tail_name.c_str(), median(t.wall_tail), t.rate.size());
            out.notes.emplace_back(line);
        }
        m.set("episodes_per_s", median(round_rate), "episodes/s");
        m.set("peak_rss_mib", peak_rss_mib(), "MiB");
        out.notes.push_back("rounds=" + std::to_string(rounds) +
                            " measured_s=" + std::to_string(measured) +
                            " setups=" + std::to_string(setups.size()));
        return out;
    }

    // Per-layer metrics (traced run).
    const LayerProbes probes = run_layer_probes(LayerShape{10, 3, 1}, spans);
    probes.emit(m);
    std::vector<double> build_ms, submit_us;
    double run_s = 0;
    double run_cpu_s = 0;
    for (int k = 0; k < 3; ++k) {
        const StackTotals& t = totals[k];
        const std::string sfx = std::string(".") + kStacks[k].suffix;
        const double req = static_cast<double>(t.requests);
        build_ms.insert(build_ms.end(), t.build_ms.begin(), t.build_ms.end());
        submit_us.insert(submit_us.end(), t.submit_us.begin(), t.submit_us.end());
        run_s += t.run_s;
        run_cpu_s += t.run_cpu_s;
        m.set("net.messages_per_request" + sfx, ratio(static_cast<double>(t.net_messages), req),
              "messages/request");
        m.set("net.bytes_per_request" + sfx, ratio(static_cast<double>(t.net_bytes), req),
              "B/request");
        m.set("net.copied_bytes_per_message" + sfx,
              ratio(static_cast<double>(t.net_copied), static_cast<double>(t.net_messages)),
              "B/message");
        m.set("sim.events_per_request" + sfx, ratio(static_cast<double>(t.events), req),
              "events/request");
        m.set("sim.max_queue_footprint" + sfx, static_cast<double>(t.footprint), "events");
        m.set("batch.requests_per_unit" + sfx,
              t.batch.batches_formed > 0
                  ? ratio(static_cast<double>(t.batch.requests_batched),
                          static_cast<double>(t.batch.batches_formed))
                  : 1.0,
              "requests/unit");
        m.set("batch.deadline_flush_ratio" + sfx,
              ratio(static_cast<double>(t.batch.flushes_on_deadline),
                    static_cast<double>(t.batch.flushes_on_deadline + t.batch.flushes_on_size)),
              "ratio");
        m.set("app.checkpoints_taken" + sfx, static_cast<double>(t.checkpoints), "count");
        if (kStacks[k].kind != SystemKind::kPbft) {
            m.set("span.batch_wait_us_p50" + sfx, median(t.span_batch_wait), "us");
            m.set("span.send_latency_us_p50" + sfx, median(t.span_send), "us");
            m.set("span.order_latency_us_p50" + sfx, median(t.span_order), "us");
            m.set("gc.holdback_depth_max" + sfx, t.holdback_max, "messages");
        }
        if (kStacks[k].kind == SystemKind::kFsNewTop) {
            const double lookups = static_cast<double>(t.verify_ops + t.verify_hits);
            m.set("crypto.signs_per_request", ratio(static_cast<double>(t.signs), req),
                  "signs/request");
            m.set("crypto.verifies_per_request", ratio(static_cast<double>(t.verify_ops), req),
                  "verifies/request");
            m.set("crypto.memo_hit_ratio", ratio(static_cast<double>(t.verify_hits), lookups),
                  "ratio");
            const double busy_ns = static_cast<double>(t.signs) * probes.hmac_tag_ns +
                                   static_cast<double>(t.verify_ops) * probes.verify_miss_ns +
                                   static_cast<double>(t.verify_hits) * probes.verify_hit_ns;
            m.set("crypto.est_busy_share", ratio(busy_ns, t.run_s * 1e9), "ratio");
        }
        if (kStacks[k].kind == SystemKind::kPbft) {
            m.set("baseline.log_slots_retained", static_cast<double>(t.log_retained), "slots");
            // Fault-free: no timers fire, so no view change.
            m.set("baseline.view_change_gap_ms", 0.0, "ms");
        }
    }
    m.set("deploy.setup_ms", median(build_ms), "ms");
    m.set("deploy.submit_us_p50", median(submit_us), "us");
    m.set("deploy.run_cpu_ratio", ratio(run_cpu_s, run_s), "ratio");
    m.set("trace.overhead_ratio", ratio(traced_s, untraced_s) - 1.0, "ratio");
    return out;
}

}  // namespace bench
