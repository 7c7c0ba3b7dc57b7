#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>

namespace bench {

double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double percentile(std::vector<double> samples, double q) {
    if (samples.empty()) return 0;
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size())));
    return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

Tail tail_of(const std::vector<double>& samples) {
    const auto n = static_cast<double>(samples.size());
    if (samples.size() < 40) return {};
    for (const auto& [q, name] : {std::pair{0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"},
                                  {0.9, "p90"}, {0.75, "p75"}}) {
        if (n * (1 - q) >= 10) return {name, percentile(samples, q)};
    }
    return {};
}

double longest_stall_ms(std::int64_t fired, std::vector<std::int64_t> submits,
                        std::vector<std::int64_t> deliveries, std::int64_t end) {
    // (instant, +1 submit / -1 delivery); submissions first at equal instants.
    std::vector<std::pair<std::int64_t, int>> events;
    for (const auto t : submits) events.emplace_back(t, -1);
    for (const auto t : deliveries) events.emplace_back(t, +1);
    std::sort(events.begin(), events.end());
    std::int64_t outstanding = 0;
    std::size_t i = 0;
    for (; i < events.size() && events[i].first < fired; ++i) outstanding -= events[i].second;
    std::int64_t stall_from = outstanding > 0 ? fired : -1;  // -1 = no open stretch
    std::int64_t longest = 0;
    for (; i < events.size(); ++i) {
        const auto [at, kind] = events[i];
        if (kind < 0) {
            if (outstanding++ == 0) stall_from = at;
            continue;
        }
        --outstanding;
        if (stall_from >= 0) longest = std::max(longest, at - stall_from);
        stall_from = outstanding > 0 ? at : -1;
    }
    if (stall_from >= 0) longest = std::max(longest, end - stall_from);
    return static_cast<double>(longest) / 1000.0;
}

std::uint64_t SpanRecorder::open(const std::string& name, std::uint64_t parent) {
    if (!enabled_) return 0;
    const std::uint64_t id = next_id_++;
    const double now = (wall_s() - epoch_) * 1e6;
    open_[id] = spans_.size();
    spans_.push_back(Span{name, id, parent, now, now});
    return id;
}

void SpanRecorder::close(std::uint64_t id) {
    if (!enabled_ || id == 0) return;
    const auto it = open_.find(id);
    if (it == open_.end()) return;
    spans_[it->second].end_us = (wall_s() - epoch_) * 1e6;
    open_.erase(it);
}

void SpanRecorder::add(const std::string& name, double start, double end, std::uint64_t parent) {
    if (!enabled_) return;
    spans_.push_back(Span{name, next_id_++, parent, (start - epoch_) * 1e6, (end - epoch_) * 1e6});
}

std::map<std::string, std::pair<double, double>> SpanRecorder::totals() const {
    std::map<std::uint64_t, double> child_time;
    for (const Span& s : spans_) {
        if (s.parent != 0) child_time[s.parent] += s.end_us - s.start_us;
    }
    std::map<std::string, std::pair<double, double>> out;
    for (const Span& s : spans_) {
        const double total = s.end_us - s.start_us;
        const auto it = child_time.find(s.id);
        // Worker-side children may overlap each other; self time floors at 0.
        const double self = std::max(0.0, total - (it == child_time.end() ? 0.0 : it->second));
        out[s.name].first += total;
        out[s.name].second += self;
    }
    return out;
}

std::size_t SpanRecorder::count(const std::string& name) const {
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(), [&](const Span& s) { return s.name == name; }));
}

}  // namespace bench
