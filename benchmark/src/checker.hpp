// Order-and-validity checker over one deployment run's delivery log.
//
// The benchmark tags every request itself (sender, per-sender sequence) and
// logs, per member, the tags its application delivered, in delivery order.
// The checker then tests properties every ordering stack must have, never a
// stored copy of an earlier run's output:
//   * every member delivers each submitted request exactly once,
//   * each sender's requests arrive in submission order,
//   * all members deliver in one total order,
//   * all members report the same replicated app state (applied, digest),
//     applied equals the number of requests delivered, and the digest equals
//     an independent replay of the delivered payloads through app::KvStore.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace bench {

struct Tag {
    std::uint32_t sender{0};
    std::uint32_t seq{0};
    friend auto operator<=>(const Tag&, const Tag&) = default;
};

struct AppState {
    std::uint64_t applied{0};
    std::uint64_t digest{0};
};

struct DeliveryLog {
    /// Per sender: requests submitted, tagged seq 0..submitted[s]-1 in
    /// submission order.
    std::vector<std::uint32_t> submitted;
    /// Per member: tags delivered, in delivery order.
    std::vector<std::vector<Tag>> delivered;
    /// Per member: replicated app state read at quiescence.
    std::vector<AppState> app;
};

struct CheckResult {
    bool ok{true};
    std::string error;
};

/// `payload_of` rebuilds the request bytes a tag was submitted with (the
/// digest replay).
CheckResult check_log(const DeliveryLog& log,
                      const std::function<failsig::Bytes(Tag)>& payload_of);

/// Request bytes for a tag: the tag up front (3-byte requests pack sender in
/// the top 4 bits and seq in the low 20), the rest filled from `salt`.
failsig::Bytes make_payload(Tag tag, std::size_t size, std::uint64_t salt);
/// Inverse of make_payload's tag encoding; false on a foreign payload.
bool parse_tag(const failsig::Bytes& payload, Tag& tag);

}  // namespace bench
