// Shared plumbing of the failsig benchmark: command-line options, the
// metric sink that renders the final result line, wall/CPU clocks, sample
// statistics and the in-memory span recorder of the traced run.
//
// The benchmark drives the program only through its public APIs
// (deploy::Deployment, scenario::run_scenario, explore::generate_episode)
// and times its own calls into them; nothing here reaches inside a layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "deploy/deployment.hpp"

namespace bench {

using failsig::deploy::SystemKind;

/// The three stacks in report order, with the suffix their metrics carry.
struct Stack {
    SystemKind kind;
    const char* suffix;
};
inline constexpr Stack kStacks[] = {{SystemKind::kNewTop, "newtop"},
                                    {SystemKind::kFsNewTop, "fsnewtop"},
                                    {SystemKind::kPbft, "pbft"}};

struct Options {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10};
    bool trace{false};
    /// Where the traced run writes its spans and per-layer metrics.
    std::string trace_out;
    /// Worker threads the benchmark itself uses: min(4, nproc).
    int jobs{1};
};

/// Wall clock in seconds since an arbitrary epoch (steady).
inline double wall_s() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// CPU time of the whole process (every thread), seconds.
double process_cpu_s();

/// Peak resident set of this process so far, MiB.
double peak_rss_mib();

/// Nearest-rank percentile of `samples` (q in [0, 1]); 0 when empty.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// Highest percentile with at least ten samples beyond it, as "pNN" text and
/// value; empty name when the sample is too small (< 40) to have a tail.
struct Tail {
    std::string name;
    double value{0};
};
Tail tail_of(const std::vector<double>& samples);

/// Longest virtual-time stretch after `fired` during which some request was
/// outstanding (submitted, not yet delivered at the observed member) and
/// nothing was delivered; a stretch still open at `end` closes there. Inputs
/// are the submission and delivery instants, in any order. Milliseconds.
double longest_stall_ms(std::int64_t fired, std::vector<std::int64_t> submits,
                        std::vector<std::int64_t> deliveries, std::int64_t end);

/// Named metrics with units; rendered as the result line's "metrics" object.
class Metrics {
public:
    void set(const std::string& name, double value, const std::string& unit) {
        values_[name] = {value, unit};
    }
    [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>& values() const {
        return values_;
    }

private:
    std::map<std::string, std::pair<double, std::string>> values_;
};

/// One benchmark-side span: a timed call into a layer's public function.
struct Span {
    std::string name;
    std::uint64_t id{0};
    std::uint64_t parent{0};
    double start_us{0};
    double end_us{0};
};

/// In-memory span log of the traced run; written out once at the end. A
/// disabled recorder (the untraced run) records nothing.
class SpanRecorder {
public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled), epoch_(wall_s()) {}

    /// Opens a span; returns its id (0 when disabled).
    std::uint64_t open(const std::string& name, std::uint64_t parent = 0);
    void close(std::uint64_t id);
    /// Records a span timed elsewhere (wall_s() stamps), e.g. on a worker.
    void add(const std::string& name, double start, double end, std::uint64_t parent);

    [[nodiscard]] bool enabled() const { return enabled_; }
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    /// Total and self time (duration minus child coverage) per span name, us.
    [[nodiscard]] std::map<std::string, std::pair<double, double>> totals() const;
    [[nodiscard]] std::size_t count(const std::string& name) const;

private:
    bool enabled_;
    double epoch_;
    std::uint64_t next_id_{1};
    std::vector<Span> spans_;
    std::map<std::uint64_t, std::size_t> open_;
};

/// RAII span around one call.
class Scoped {
public:
    Scoped(SpanRecorder& rec, const std::string& name, std::uint64_t parent = 0)
        : rec_(rec), id_(rec.open(name, parent)) {}
    ~Scoped() { rec_.close(id_); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;
    [[nodiscard]] std::uint64_t id() const { return id_; }

private:
    SpanRecorder& rec_;
    std::uint64_t id_;
};

/// What a workload hands back to main(): operations attempted and failed,
/// correctness verdict with the first error, and its metrics.
struct Outcome {
    bool correct{true};
    std::string error;
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    Metrics metrics;
    /// Human-readable lines printed above the result (tails, sample counts).
    std::vector<std::string> notes;

    void fail(const std::string& why) {
        if (correct) error = why;
        correct = false;
    }
};

// Workload entry points (one file each).
Outcome run_saturate_small(const Options& opt, SpanRecorder& spans);
Outcome run_explore_churn(const Options& opt, SpanRecorder& spans);

}  // namespace bench
