// Self-test of the benchmark's order-and-validity checker: it must accept a
// clean delivery log and reject each of five corruptions of it.
//
//   checker_selftest        (exit 0 iff every case is judged as expected)
#include <cstdio>
#include <functional>
#include <string>

#include "app/kv_store.hpp"
#include "checker.hpp"

namespace {

using bench::AppState;
using bench::CheckResult;
using bench::DeliveryLog;
using bench::Tag;

constexpr std::size_t kPayload = 16;

failsig::Bytes payload_of(Tag t) { return bench::make_payload(t, kPayload, 42); }

/// Three members, three senders with 4 requests each, interleaved; app
/// state filled from an honest replay.
DeliveryLog clean_log() {
    DeliveryLog log;
    log.submitted = {4, 4, 4};
    std::vector<Tag> order;
    for (std::uint32_t q = 0; q < 4; ++q) {
        for (std::uint32_t s = 0; s < 3; ++s) order.push_back(Tag{(s + q) % 3, q});
    }
    log.delivered = {order, order, order};
    failsig::app::KvStore kv;
    for (const Tag t : order) kv.apply(payload_of(t));
    log.app.assign(3, AppState{kv.applied(), kv.digest()});
    return log;
}

/// Rebuilds member m's app state from its (possibly corrupted) log, so a
/// corruption of the order is not caught by the digest alone.
void refresh_app(DeliveryLog& log) {
    for (std::size_t m = 0; m < log.delivered.size(); ++m) {
        failsig::app::KvStore kv;
        for (const Tag t : log.delivered[m]) kv.apply(payload_of(t));
        log.app[m] = AppState{kv.applied(), kv.digest()};
    }
}

int failures = 0;

void expect(const char* name, const DeliveryLog& log, bool want_ok) {
    const CheckResult r = bench::check_log(log, payload_of);
    const bool pass = r.ok == want_ok;
    if (!pass) ++failures;
    std::printf("%-4s %-26s %s%s\n", pass ? "ok" : "FAIL", name,
                r.ok ? "accepted" : "rejected: ", r.error.c_str());
}

}  // namespace

int main() {
    expect("clean log", clean_log(), true);

    DeliveryLog dropped = clean_log();
    dropped.delivered[1].erase(dropped.delivered[1].begin() + 5);
    refresh_app(dropped);
    expect("dropped delivery", dropped, false);

    DeliveryLog duplicated = clean_log();
    duplicated.delivered[2].push_back(duplicated.delivered[2][3]);
    refresh_app(duplicated);
    expect("duplicated delivery", duplicated, false);

    // Two requests of one sender swapped at every member: still one total
    // order, but not the sender's submission order.
    DeliveryLog swapped = clean_log();
    for (auto& member : swapped.delivered) {
        std::size_t first = 0;
        std::size_t second = 0;
        for (std::size_t i = 0; i < member.size(); ++i) {
            if (member[i] == Tag{0, 1}) first = i;
            if (member[i] == Tag{0, 2}) second = i;
        }
        std::swap(member[first], member[second]);
    }
    refresh_app(swapped);
    expect("swapped pair", swapped, false);

    // Member 2 orders two different senders' requests the other way round.
    DeliveryLog disagree = clean_log();
    std::swap(disagree.delivered[2][0], disagree.delivered[2][1]);
    refresh_app(disagree);
    expect("members disagree on order", disagree, false);

    DeliveryLog digest = clean_log();
    digest.app[1].digest ^= 1;
    expect("members disagree on digest", digest, false);

    if (failures != 0) {
        std::printf("%d checker self-test case(s) judged wrongly\n", failures);
        return 1;
    }
    std::printf("all checker self-test cases judged as expected\n");
    return 0;
}
