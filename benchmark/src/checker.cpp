#include "checker.hpp"

#include <map>
#include <set>

#include "app/kv_store.hpp"
#include "common/rng.hpp"

namespace bench {

namespace {

std::string tag_text(Tag t) { return std::to_string(t.sender) + ":" + std::to_string(t.seq); }

}  // namespace

failsig::Bytes make_payload(Tag tag, std::size_t size, std::uint64_t salt) {
    failsig::Bytes out;
    out.reserve(size);
    if (size == 3) {
        const std::uint32_t packed = (tag.sender << 20) | (tag.seq & 0xFFFFF);
        out = {static_cast<std::uint8_t>(packed >> 16), static_cast<std::uint8_t>(packed >> 8),
               static_cast<std::uint8_t>(packed)};
        return out;
    }
    for (const std::uint32_t v : {tag.sender, tag.seq}) {
        for (int shift = 24; shift >= 0; shift -= 8) {
            out.push_back(static_cast<std::uint8_t>(v >> shift));
        }
    }
    std::uint64_t state = salt ^ (static_cast<std::uint64_t>(tag.sender) << 32) ^ tag.seq;
    while (out.size() < size) {
        std::uint64_t word = failsig::splitmix64(state);
        for (int i = 0; i < 8 && out.size() < size; ++i, word >>= 8) {
            out.push_back(static_cast<std::uint8_t>(word));
        }
    }
    return out;
}

bool parse_tag(const failsig::Bytes& payload, Tag& tag) {
    if (payload.size() == 3) {
        const std::uint32_t packed = (static_cast<std::uint32_t>(payload[0]) << 16) |
                                     (static_cast<std::uint32_t>(payload[1]) << 8) | payload[2];
        tag = {packed >> 20, packed & 0xFFFFF};
        return true;
    }
    if (payload.size() < 8) return false;
    std::uint32_t v[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
        for (int i = 0; i < 4; ++i) v[k] = (v[k] << 8) | payload[static_cast<std::size_t>(4 * k + i)];
    }
    tag = {v[0], v[1]};
    return true;
}

CheckResult check_log(const DeliveryLog& log,
                      const std::function<failsig::Bytes(Tag)>& payload_of) {
    CheckResult r;
    const auto fail = [&r](std::string why) {
        r.ok = false;
        r.error = std::move(why);
        return r;
    };
    const std::size_t members = log.delivered.size();
    if (members == 0) return fail("no members");
    if (log.app.size() != members) return fail("app state missing for some member");

    // Exactly once at every member, and only submitted requests.
    std::map<Tag, std::size_t> holders;
    for (std::size_t m = 0; m < members; ++m) {
        std::set<Tag> seen;
        for (const Tag t : log.delivered[m]) {
            if (t.sender >= log.submitted.size() || t.seq >= log.submitted[t.sender]) {
                return fail("member " + std::to_string(m) + " delivered unknown request " +
                            tag_text(t));
            }
            if (!seen.insert(t).second) {
                return fail("member " + std::to_string(m) + " delivered " + tag_text(t) +
                            " twice");
            }
            ++holders[t];
        }
    }
    for (const auto& [t, count] : holders) {
        if (count != members) {
            return fail("request " + tag_text(t) + " delivered at " + std::to_string(count) +
                        " of " + std::to_string(members) + " members");
        }
    }
    for (std::uint32_t s = 0; s < log.submitted.size(); ++s) {
        for (std::uint32_t q = 0; q < log.submitted[s]; ++q) {
            if (!holders.contains(Tag{s, q})) {
                return fail("request " + tag_text({s, q}) + " never delivered");
            }
        }
    }

    // Each sender's requests in submission order.
    for (std::size_t m = 0; m < members; ++m) {
        std::map<std::uint32_t, std::int64_t> last;
        for (const Tag t : log.delivered[m]) {
            auto [it, fresh] = last.emplace(t.sender, -1);
            if (static_cast<std::int64_t>(t.seq) <= it->second) {
                return fail("member " + std::to_string(m) + " delivered " + tag_text(t) +
                            " after seq " + std::to_string(it->second) + " of the same sender");
            }
            it->second = t.seq;
        }
    }

    // One total order.
    for (std::size_t m = 1; m < members; ++m) {
        for (std::size_t i = 0; i < log.delivered[m].size(); ++i) {
            if (log.delivered[m][i] != log.delivered[0][i]) {
                return fail("members 0 and " + std::to_string(m) + " disagree at position " +
                            std::to_string(i) + ": " + tag_text(log.delivered[0][i]) + " vs " +
                            tag_text(log.delivered[m][i]));
            }
        }
    }

    // Replicated app state: agreement, count, and an independent replay.
    for (std::size_t m = 1; m < members; ++m) {
        if (log.app[m].applied != log.app[0].applied || log.app[m].digest != log.app[0].digest) {
            return fail("members 0 and " + std::to_string(m) + " disagree on the KV state");
        }
    }
    failsig::app::KvStore replay;
    for (const Tag t : log.delivered[0]) replay.apply(payload_of(t));
    for (std::size_t m = 0; m < members; ++m) {
        const AppState& a = log.app[m];
        if (a.applied != log.delivered[m].size()) {
            return fail("member " + std::to_string(m) + " applied " + std::to_string(a.applied) +
                        " but delivered " + std::to_string(log.delivered[m].size()));
        }
        if (a.digest != replay.digest()) {
            return fail("member " + std::to_string(m) +
                        " KV digest differs from the replay of the delivered requests");
        }
    }
    return r;
}

}  // namespace bench
