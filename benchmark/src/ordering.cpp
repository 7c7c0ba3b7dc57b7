#include "ordering.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace bench {

namespace {

using failsig::Bytes;
using failsig::TimePoint;
using failsig::kMillisecond;
using failsig::kSecond;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
}

/// Median of an obs histogram, as the lower bound of the bucket holding it.
double histogram_p50(const failsig::obs::Histogram& h) {
    if (h.count() == 0) return 0;
    const std::uint64_t rank = (h.count() + 1) / 2;
    std::uint64_t seen = h.zero_count();
    if (seen >= rank) return 0;
    for (const auto& [lower, count] : h.buckets()) {
        seen += count;
        if (seen >= rank) return static_cast<double>(lower);
    }
    return static_cast<double>(h.max());
}

struct Request {
    TimePoint submit_at{-1};
    double submit_wall{0};
};

/// Everything the observer hooks touch.
struct RoundState {
    std::vector<std::vector<Request>> requests;  // [sender][seq]
    std::vector<std::vector<Tag>> delivered;     // [member]
    std::vector<std::vector<TimePoint>> delivered_at;
    std::vector<std::uint32_t> next_seq;
    TimePoint first_submit{-1};
    TimePoint last_delivery{0};
};

}  // namespace

RoundResult run_round(const RoundSpec& spec, SpanRecorder& spans) {
    namespace deploy = failsig::deploy;
    RoundResult out;
    const int n = spec.n;
    const std::uint64_t salt = spec.seed * 0x2545F4914F6CDD1DULL;

    std::optional<failsig::obs::Obs> obs;
    deploy::DeploymentSpec ds;
    ds.group_size = n;
    ds.seed = spec.seed;
    if (spec.observe) {
        obs.emplace();
        ds.obs = &*obs;
    }

    const Scoped round_span(spans, std::string("round.") + deploy::name_of(spec.system));
    double t0 = wall_s();
    std::unique_ptr<deploy::Deployment> d;
    {
        const Scoped s(spans, "deploy.make_deployment", round_span.id());
        d = deploy::make_deployment(spec.system, ds);
    }
    out.build_s = wall_s() - t0;

    RoundState st;
    st.requests.assign(static_cast<std::size_t>(n), {});
    st.delivered.assign(static_cast<std::size_t>(n), {});
    st.delivered_at.assign(static_cast<std::size_t>(n), {});
    st.next_seq.assign(static_cast<std::size_t>(n), 0);

    deploy::Deployment& dep = *d;
    std::uint64_t run_span = round_span.id();  // submissions happen inside run()
    // Submits the next request of `member` now, from the benchmark side.
    const auto submit_next = [&](int member) {
        const auto m = static_cast<std::size_t>(member);
        Tag tag{static_cast<std::uint32_t>(member), 0};
        tag.seq = st.next_seq[m]++;
        Request r;
        r.submit_at = dep.now();
        r.submit_wall = wall_s();
        if (st.first_submit < 0) st.first_submit = r.submit_at;
        st.requests[m].push_back(r);
        Bytes payload = make_payload(tag, spec.payload, salt);
        const double s0 = wall_s();
        {
            const Scoped s(spans, "deploy.submit", run_span);
            dep.submit(member, std::move(payload));
        }
        out.submit_us.push_back((wall_s() - s0) * 1e6);
    };

    failsig::deploy::Observers observers;
    observers.delivered = [&](int member, const Bytes& payload) {
        Tag tag;
        if (!parse_tag(payload, tag)) return;
        const TimePoint vnow = dep.now();
        const double wnow = wall_s();
        const auto m = static_cast<std::size_t>(member);
        st.delivered[m].push_back(tag);
        st.delivered_at[m].push_back(vnow);
        st.last_delivery = std::max(st.last_delivery, vnow);
        if (tag.sender < st.requests.size() && tag.seq < st.requests[tag.sender].size()) {
            const Request& r = st.requests[tag.sender][tag.seq];
            out.sim_latency_ms.push_back(static_cast<double>(vnow - r.submit_at) / kMillisecond);
            out.wall_latency_ms.push_back((wnow - r.submit_wall) * 1e3);
        }
        // Closed loop: the sender's own delivery completes the request and
        // frees a window slot.
        if (tag.sender == static_cast<std::uint32_t>(member) &&
            st.next_seq[m] < static_cast<std::uint32_t>(spec.per_member)) {
            dep.schedule(vnow, [&submit_next, member] { submit_next(member); });
        }
    };
    {
        const Scoped s(spans, "deploy.attach", round_span.id());
        dep.attach(std::move(observers));
    }

    for (int w = 0; w < spec.window; ++w) {
        for (int m = 0; m < n; ++m) {
            dep.schedule(static_cast<TimePoint>(w * n + m) * 10, [&submit_next, m] { submit_next(m); });
        }
    }
    out.requests = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(spec.per_member);

    t0 = wall_s();
    const double c0 = process_cpu_s();
    {
        const Scoped s(spans, "deploy.run", round_span.id());
        run_span = s.id();
        dep.run();
    }
    out.run_cpu_s = process_cpu_s() - c0;
    out.run_s = wall_s() - t0;

    DeliveryLog log;
    log.submitted = st.next_seq;
    log.delivered = st.delivered;
    for (int m = 0; m < n; ++m) {
        const Scoped s(spans, "deploy.app_state_of", round_span.id());
        const auto info = dep.app_state_of(m);
        log.app.push_back(info ? AppState{info->applied, info->digest} : AppState{});
        if (!info) {
            out.check.ok = false;
            out.check.error = "member " + std::to_string(m) + " reports no app state";
        }
    }
    if (out.check.ok) {
        const Scoped s(spans, "bench.check_log", round_span.id());
        out.check = check_log(log, [&](Tag t) { return make_payload(t, spec.payload, salt); });
    }
    out.deliveries = 0;
    for (const auto& member_log : st.delivered) out.deliveries += member_log.size();
    if (st.first_submit >= 0 && st.last_delivery > st.first_submit) {
        out.virtual_makespan_s =
            static_cast<double>(st.last_delivery - st.first_submit) / kSecond;
    }

    failsig::net::Transport& net = dep.network();
    out.net_messages = net.messages_sent();
    out.net_bytes = net.bytes_sent();
    out.net_copied = net.payload_bytes_copied();
    out.events_fired = dep.sim().events_fired();
    out.max_queue_footprint = dep.sim().max_queue_footprint();
    out.batch = dep.batch_stats();
    out.recovery = dep.recovery_stats();
    out.verify_ops = dep.crypto_verify_ops();
    out.verify_hits = dep.crypto_verify_cache_hits();
    if (obs) {
        auto& reg = obs->metrics();
        out.signs = reg.histogram("crypto.sign_us").count();
        out.span_batch_wait_p50_us = histogram_p50(reg.histogram("span.batch_wait_us"));
        out.span_send_p50_us = histogram_p50(reg.histogram("span.send_latency_us"));
        out.span_order_p50_us = histogram_p50(reg.histogram("span.order_latency_us"));
        out.holdback_max = static_cast<double>(reg.histogram("gc.holdback_depth").max());
    }

    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t m = 0; m < st.delivered.size(); ++m) {
        for (std::size_t i = 0; i < st.delivered[m].size(); ++i) {
            h = mix(h, (static_cast<std::uint64_t>(st.delivered[m][i].sender) << 32) |
                           st.delivered[m][i].seq);
            h = mix(h, static_cast<std::uint64_t>(st.delivered_at[m][i]));
        }
        h = mix(h, log.app[m].digest);
    }
    for (const std::uint64_t v : {out.net_messages, out.net_bytes, out.events_fired,
                                  out.batch.batches_formed, out.recovery.checkpoints_taken,
                                  out.verify_ops, out.verify_hits}) {
        h = mix(h, v);
    }
    out.fingerprint = h;

    {
        const Scoped s(spans, "deploy.teardown", round_span.id());
        d.reset();
    }
    return out;
}

}  // namespace bench
