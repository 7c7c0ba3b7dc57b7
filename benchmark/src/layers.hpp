// Per-layer unit costs for the traced run: each probe times calls into one
// layer's public functions on inputs shaped like the workload's own
// requests (group size, payload size, batch size), and reports the median
// of several timed batches.
#pragma once

#include <cstddef>

#include "bench.hpp"

namespace bench {

struct LayerShape {
    int n{4};
    std::size_t payload{8};
    std::size_t batch{1};
};

struct LayerProbes {
    double sha256_ns_small{0};
    double hmac_tag_ns{0};
    double verify_hit_ns{0};
    double verify_miss_ns{0};
    double sha256_mib_s{0};
    double sim_send_ns{0};
    double tcp_frame_rtt_us{0};
    double event_ns{0};
    double fanout_invoke_ns{0};
    double batch_codec_ns{0};
    double gc_codec_ns{0};
    double fs_codec_ns{0};
    double pbft_codec_ns{0};
    double kv_apply_ns{0};
    // A few explorer episodes per stack through the public scenario calls.
    double generate_us{0};
    double run_ms{0};
    double evaluate_ms{0};
    double trace_hash_ms{0};
    double trace_events{0};

    /// Writes every probe metric (explore/scenario ones included).
    void emit(Metrics& m) const;
};

LayerProbes run_layer_probes(const LayerShape& shape, SpanRecorder& spans);

/// Times `fn` over `iters` calls in `batches` batches; median ns per call.
template <typename Fn>
double time_per_call_ns(int batches, int iters, Fn&& fn) {
    std::vector<double> per;
    for (int b = 0; b < batches; ++b) {
        const double t0 = wall_s();
        for (int i = 0; i < iters; ++i) fn(i);
        per.push_back((wall_s() - t0) * 1e9 / iters);
    }
    return median(per);
}

}  // namespace bench
