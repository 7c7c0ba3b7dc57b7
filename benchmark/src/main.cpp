// failsig_bench: the failsig benchmark program.
//
//   failsig_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out PATH]
//
// Runs one workload for S seconds of measurement (whole rounds), checks
// every output, prints the metrics by name and unit, and ends with one JSON
// line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 is the separate traced run that reports the
// per-layer metrics and writes the benchmark-side spans to --trace-out
// (required with --trace 1). Load runs on min(4, nproc) threads.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using namespace bench;

int usage(const char* why) {
    std::fprintf(stderr,
                 "failsig_bench: %s\n"
                 "usage: failsig_bench --workload saturate-small|explore-churn"
                 " --seed N --seconds S --trace 0|1 [--trace-out PATH]\n",
                 why);
    return 2;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out;
}

std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void write_trace(const Options& opt, const Outcome& out, const SpanRecorder& spans) {
    std::ofstream f(opt.trace_out);
    if (!f) {
        std::fprintf(stderr, "failsig_bench: cannot write %s\n", opt.trace_out.c_str());
        return;
    }
    f << "{\"format\":\"failsig-bench-trace-v1\",\"workload\":\"" << opt.workload
      << "\",\"seed\":" << opt.seed << ",\"per_layer\":{";
    bool first = true;
    for (const auto& [name, vu] : out.metrics.values()) {
        f << (first ? "" : ",") << "\"" << name << "\":{\"value\":" << number(vu.first)
          << ",\"unit\":\"" << vu.second << "\"}";
        first = false;
    }
    f << "},\"span_totals_us\":{";
    first = true;
    for (const auto& [name, ts] : spans.totals()) {
        f << (first ? "" : ",") << "\"" << name << "\":{\"count\":" << spans.count(name)
          << ",\"total\":" << number(ts.first) << ",\"self\":" << number(ts.second) << "}";
        first = false;
    }
    f << "},\"spans\":[";
    first = true;
    for (const Span& s : spans.spans()) {
        f << (first ? "" : ",") << "[\"" << s.name << "\"," << s.id << "," << s.parent << ","
          << number(s.start_us) << "," << number(s.end_us) << "]";
        first = false;
    }
    f << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    opt.jobs = static_cast<int>(std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                opt.workload = value;
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
                opt.trace = value == "1";
            } else if (arg == "--trace-out") {
                opt.trace_out = value;
            } else {
                return usage(("unknown option " + arg).c_str());
            }
        } catch (const std::exception&) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    if (!(opt.seconds > 0)) return usage("--seconds must be positive");
    if (opt.trace && opt.trace_out.empty()) return usage("--trace 1 needs --trace-out");

    SpanRecorder spans(opt.trace);
    Outcome out;
    try {
        if (opt.workload == "saturate-small") {
            out = run_saturate_small(opt, spans);
        } else if (opt.workload == "explore-churn") {
            out = run_explore_churn(opt, spans);
        } else {
            return usage(("unknown workload '" + opt.workload + "'").c_str());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "failsig_bench: %s: %s\n", opt.workload.c_str(), e.what());
        return 1;
    }

    for (const auto& [name, vu] : out.metrics.values()) {
        if (!std::isfinite(vu.first)) out.fail("metric " + name + " is not finite");
    }
    for (const auto& line : out.notes) std::printf("# %s\n", line.c_str());
    std::printf("# workload=%s seed=%llu trace=%d attempted=%llu failed=%llu correct=%s\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), out.correct ? "true" : "false");
    if (!out.correct) std::printf("# FAILED CHECK: %s\n", out.error.c_str());
    for (const auto& [name, vu] : out.metrics.values()) {
        std::printf("%-40s %16.6f %s\n", name.c_str(), vu.first, vu.second.c_str());
    }
    if (opt.trace) {
        write_trace(opt, out, spans);
        std::printf("# spans=%zu written to %s\n", spans.spans().size(), opt.trace_out.c_str());
    }

    std::string line = std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(out.attempted) +
                       ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, vu] : out.metrics.values()) {
        line += (first ? "\"" : ", \"") + json_escape(name) + "\": {\"value\": " +
                number(std::isfinite(vu.first) ? vu.first : 0.0) + ", \"unit\": \"" +
                json_escape(vu.second) + "\"}";
        first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}
