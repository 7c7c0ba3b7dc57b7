#include "layers.hpp"

#include <condition_variable>
#include <mutex>

#include "app/kv_store.hpp"
#include "baseline/pbft.hpp"
#include "checker.hpp"
#include "common/batch.hpp"
#include "common/rng.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "episodes.hpp"
#include "explore/explore.hpp"
#include "fs/wire.hpp"
#include "net/network.hpp"
#include "net/tcp_transport.hpp"
#include "newtop/wire.hpp"
#include "orb/orb.hpp"
#include "sim/simulation.hpp"

namespace bench {

namespace {

using failsig::Bytes;
using failsig::Endpoint;
using failsig::NodeId;
using failsig::PortId;

/// Keeps a computed value alive so the timed call is not optimized away.
volatile std::size_t g_sink = 0;

std::vector<Bytes> requests_of(const LayerShape& shape, std::size_t count) {
    std::vector<Bytes> out;
    for (std::size_t i = 0; i < count; ++i) {
        out.push_back(make_payload(Tag{static_cast<std::uint32_t>(i % 8),
                                       static_cast<std::uint32_t>(i)},
                                   shape.payload, 0xfeed));
    }
    return out;
}

/// A GC data message carrying one workload request.
failsig::newtop::GcMessage gc_data(const Bytes& payload) {
    failsig::newtop::GcMessage g;
    g.kind = failsig::newtop::GcKind::kData;
    g.sender = 3;
    g.stream_seq = 1234;
    g.sender_seq = 1234;
    g.lamport_ts = 98765;
    g.payload = payload;
    return g;
}

/// The FS order record wrapping that GC message: the region a fail-signal
/// pair signs and verifies for one request.
failsig::fs::FsOrder fs_order(const Bytes& payload) {
    failsig::fs::FsOrder o;
    o.seq = 4321;
    o.input.uid = "fs:FSO:3:1234:receiveNew";
    o.input.operation = "receiveNew";
    o.input.body = gc_data(payload).encode();
    o.input.origin_fs = "FSO:3";
    return o;
}

class NullServant final : public failsig::orb::Servant {
public:
    void dispatch(const failsig::orb::Request& request) override {
        g_sink = g_sink + request.operation.size();
    }
};

void probe_crypto(const LayerShape& shape, LayerProbes& p) {
    const Bytes region = fs_order(requests_of(shape, 1)[0]).encode();
    failsig::crypto::KeyService keys(failsig::crypto::KeyService::Backend::kHmac);
    keys.register_principal("FSO:3");
    const auto& signer = keys.signer("FSO:3");
    p.sha256_ns_small = time_per_call_ns(5, 4000, [&](int) {
        g_sink = g_sink + failsig::crypto::Sha256::hash(region)[0];
    });
    p.hmac_tag_ns = time_per_call_ns(5, 4000, [&](int) { g_sink = g_sink + signer.sign(region).size(); });

    // Distinct signed messages: the first pass misses the memo, later ones hit.
    constexpr int kDistinct = 2000;
    std::vector<Bytes> msgs, sigs;
    for (int i = 0; i < kDistinct * 5; ++i) {
        Bytes m = region;
        for (int b = 0; b < 4; ++b) m[m.size() - 1 - b] = static_cast<std::uint8_t>(i >> (8 * b));
        sigs.push_back(signer.sign(m));
        msgs.push_back(std::move(m));
    }
    int offset = 0;
    p.verify_miss_ns = time_per_call_ns(5, kDistinct, [&](int i) {
        const auto k = static_cast<std::size_t>(offset + i);
        g_sink = g_sink + keys.verify_cached("FSO:3", msgs[k], sigs[k]);
        if (i == kDistinct - 1) offset += kDistinct;
    });
    p.verify_hit_ns = time_per_call_ns(5, kDistinct, [&](int i) {
        const auto k = static_cast<std::size_t>(i);
        g_sink = g_sink + keys.verify_cached("FSO:3", msgs[k], sigs[k]);
    });

    const Bytes frame = failsig::Batch::encode(requests_of(shape, std::max<std::size_t>(shape.batch, 1)));
    const double ns = time_per_call_ns(5, 400, [&](int) {
        g_sink = g_sink + failsig::crypto::Sha256::hash(frame)[0];
    });
    p.sha256_mib_s = static_cast<double>(frame.size()) / (ns * 1e-9) / (1024.0 * 1024.0);
}

void probe_codecs(const LayerShape& shape, LayerProbes& p) {
    const auto reqs = requests_of(shape, std::max<std::size_t>(shape.batch, 1));
    p.batch_codec_ns = time_per_call_ns(5, 2000, [&](int) {
                           const Bytes f = failsig::Batch::encode(reqs);
                           g_sink = g_sink + failsig::Batch::decode(f).value().size();
                       }) /
                       static_cast<double>(reqs.size());

    const auto g = gc_data(reqs[0]);
    p.gc_codec_ns = time_per_call_ns(5, 4000, [&](int) {
        const Bytes e = g.encode();
        g_sink = g_sink + failsig::newtop::GcMessage::decode(e).value().payload.size();
    });

    const auto o = fs_order(reqs[0]);
    p.fs_codec_ns = time_per_call_ns(5, 4000, [&](int) {
        const Bytes e = o.encode();
        g_sink = g_sink + failsig::fs::FsOrder::decode(e).value().input.body.size();
    });

    failsig::baseline::PbftMessage pm;
    pm.kind = failsig::baseline::PbftKind::kPrePrepare;
    pm.sender = 1;
    pm.view = 0;
    pm.seq = 777;
    pm.digest = Bytes(16, 0xab);
    pm.request.origin = 2;
    pm.request.origin_seq = 55;
    pm.request.payload = reqs[0];
    p.pbft_codec_ns = time_per_call_ns(5, 4000, [&](int) {
        const Bytes e = pm.encode();
        g_sink = g_sink + failsig::baseline::PbftMessage::decode(e).value().request.payload.size();
    });

    const auto many = requests_of(shape, 4000);
    failsig::app::KvStore store(50);
    p.kv_apply_ns = time_per_call_ns(5, 4000, [&](int i) {
        g_sink = g_sink + store.apply(many[static_cast<std::size_t>(i)]);
    });
}

void probe_sim_net_orb(const LayerShape& shape, LayerProbes& p) {
    const auto reqs = requests_of(shape, 1);
    {
        failsig::sim::Simulation sim;
        p.event_ns = time_per_call_ns(5, 1, [&](int) {
                         for (int i = 0; i < 20000; ++i) {
                             sim.schedule_after(i % 97, [] { g_sink = g_sink + 1; });
                         }
                         sim.run();
                     }) /
                     20000.0;
    }
    {
        failsig::sim::Simulation sim;
        failsig::net::SimNetwork net(sim, failsig::Rng(7));
        const int n = shape.n;
        for (int i = 0; i < n; ++i) {
            net.bind(Endpoint{NodeId{static_cast<std::uint32_t>(i + 1)}, PortId{1}},
                     [](const failsig::net::Message& m) { g_sink = g_sink + m.payload.size(); });
        }
        p.sim_send_ns = time_per_call_ns(5, 1, [&](int) {
                            for (int i = 0; i < 10000; ++i) {
                                const auto a = static_cast<std::uint32_t>(i % n + 1);
                                const auto b = static_cast<std::uint32_t>((i + 1) % n + 1);
                                net.send(Endpoint{NodeId{a}, PortId{1}}, Endpoint{NodeId{b}, PortId{1}},
                                         reqs[0]);
                            }
                            sim.run();
                        }) /
                        10000.0;
    }
    {
        failsig::sim::Simulation sim;
        failsig::net::SimNetwork net(sim, failsig::Rng(7));
        failsig::orb::OrbDomain domain(sim, net, failsig::sim::CostModel{}, 2);
        NullServant servant;
        std::vector<failsig::orb::ObjectRef> targets;
        std::vector<failsig::orb::Orb*> orbs;
        for (int i = 0; i < shape.n; ++i) {
            auto& orb = domain.create_orb(NodeId{static_cast<std::uint32_t>(i + 1)});
            targets.push_back(orb.activate("gc", &servant));
            orbs.push_back(&orb);
        }
        p.fanout_invoke_ns = time_per_call_ns(5, 1, [&](int) {
                                 for (int i = 0; i < 2000; ++i) {
                                     orbs[0]->invoke_fanout(targets, "receiveNew",
                                                            failsig::orb::Any(reqs[0]));
                                 }
                                 sim.run();
                             }) /
                             2000.0;
    }
}

void probe_tcp(const LayerShape& shape, LayerProbes& p) {
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t arrived = 0;
    failsig::net::TcpTransport::Hooks hooks;
    hooks.post = [](NodeId, std::function<void()> task) { task(); };
    failsig::net::TcpTransport tcp(hooks, failsig::Rng(11));
    const Endpoint a{NodeId{1}, PortId{1}};
    const Endpoint b{NodeId{2}, PortId{1}};
    const auto on_frame = [&](const failsig::net::Message&) {
        const std::lock_guard lock(mu);
        ++arrived;
        cv.notify_all();
    };
    tcp.bind(a, on_frame);
    tcp.bind(b, on_frame);
    tcp.start();
    tcp.connect(NodeId{1}, NodeId{2});
    tcp.connect(NodeId{2}, NodeId{1});
    const Bytes body = requests_of(shape, 1)[0];
    const auto hop = [&](Endpoint from, Endpoint to) {
        std::unique_lock lock(mu);
        const std::uint64_t want = arrived + 1;
        lock.unlock();
        tcp.send(from, to, body);
        lock.lock();
        cv.wait(lock, [&] { return arrived >= want; });
    };
    hop(a, b);  // connection warm-up
    p.tcp_frame_rtt_us = time_per_call_ns(5, 200, [&](int) {
                             hop(a, b);
                             hop(b, a);
                         }) /
                         1e3;
    tcp.close();
}

void probe_explore(LayerProbes& p, SpanRecorder& spans) {
    failsig::explore::ExploreConfig config;
    config.group_sizes = {4};
    config.workload.msgs_per_member = 6;
    std::vector<double> gen_us, run_ms, eval_ms, hash_ms, events;
    for (const Stack& stack : kStacks) {
        for (int e = 0; e < 2; ++e) {
            Episode ep;
            const double t0 = wall_s();
            {
                const Scoped sp(spans, "explore.generate_episode");
                ep.scenario = failsig::explore::generate_episode(config, stack.kind, 4, 1, e);
            }
            gen_us.push_back((wall_s() - t0) * 1e6);
            run_episode(ep, false);
            spans.add("scenario.run_scenario", ep.stamps[0], ep.stamps[1], 0);
            spans.add("scenario.evaluate", ep.stamps[1], ep.stamps[2], 0);
            spans.add("scenario.trace_hash", ep.stamps[2], ep.stamps[3], 0);
            run_ms.push_back(ep.run_s() * 1e3);
            eval_ms.push_back(ep.evaluate_s() * 1e3);
            hash_ms.push_back(ep.hash_s() * 1e3);
            events.push_back(static_cast<double>(ep.report.trace.size()));
        }
    }
    p.generate_us = median(gen_us);
    p.run_ms = median(run_ms);
    p.evaluate_ms = median(eval_ms);
    p.trace_hash_ms = median(hash_ms);
    p.trace_events = median(events);
}

}  // namespace

LayerProbes run_layer_probes(const LayerShape& shape, SpanRecorder& spans) {
    LayerProbes p;
    const Scoped s(spans, "bench.layer_probes");
    probe_crypto(shape, p);
    probe_codecs(shape, p);
    probe_sim_net_orb(shape, p);
    probe_tcp(shape, p);
    probe_explore(p, spans);
    return p;
}

void LayerProbes::emit(Metrics& m) const {
    m.set("crypto.sha256_ns_small", sha256_ns_small, "ns");
    m.set("crypto.hmac_tag_ns", hmac_tag_ns, "ns");
    m.set("crypto.verify_cached_hit_ns", verify_hit_ns, "ns");
    m.set("crypto.verify_cached_miss_ns", verify_miss_ns, "ns");
    m.set("crypto.sha256_mib_s", sha256_mib_s, "MiB/s");
    m.set("net.sim_send_ns", sim_send_ns, "ns");
    m.set("net.tcp_frame_rtt_us", tcp_frame_rtt_us, "us");
    m.set("sim.event_ns", event_ns, "ns");
    m.set("orb.fanout_invoke_ns", fanout_invoke_ns, "ns");
    m.set("batch.codec_ns_per_request", batch_codec_ns, "ns");
    m.set("newtop.gc_codec_ns", gc_codec_ns, "ns");
    m.set("fs.wire_codec_ns", fs_codec_ns, "ns");
    m.set("baseline.pbft_codec_ns", pbft_codec_ns, "ns");
    m.set("app.kv_apply_ns", kv_apply_ns, "ns");
    m.set("explore.generate_us_per_episode", generate_us, "us");
    m.set("scenario.run_ms_per_episode", run_ms, "ms");
    m.set("scenario.evaluate_ms_per_episode", evaluate_ms, "ms");
    m.set("scenario.trace_hash_ms_per_episode", trace_hash_ms, "ms");
    m.set("scenario.trace_events_per_episode", trace_events, "events");
}

}  // namespace bench
