// JSON codec of netem::LinkModel — the serialization the scenario codec's
// "link" base field and "links" axis embed.
//
// Canonical form (compact, one line), with every default omitted so the
// legacy pipe is the empty object `{}`:
//
//   {"loss": {"up": L, "down": L},
//    "queue": {"up": Q, "down": Q},
//    "path": {"up_bps": N, "down_bps": N, "up_delay_ms": N, "down_delay_ms": N,
//             "up_jitter_ms": N, "down_jitter_ms": N}}
//
//   L = {"bernoulli": {"rate": R}}
//     | {"gilbert": {"p": P, "r": R, "loss_good": G, "loss_bad": B}}
//       (loss_good omitted at 0, loss_bad omitted at 1 — the classic
//        Gilbert channel)
//   Q = {"depth_pkts": N, "depth_bytes": N}
//       ({} = unbounded tail-drop FIFO; the parser also accepts
//        "aqm": "taildrop", the only discipline, which the writer omits,
//        and rejects any other AQM)
//
// The parser additionally accepts a "both" direction key in "loss" and
// "queue" as shorthand for identical up/down models (the writer always
// expands to up/down). "up" is client->server, "down" server->client.
// Writing a parse of any accepted document reproduces the canonical bytes,
// so scenario round trips (export-grid --check) and the spec content-hash
// are stable.
#pragma once

#include <string>

#include "netem/model.h"

namespace quicer::core {
class JsonValue;
}

namespace quicer::netem {

/// Canonical compact JSON of `model` ("{}" for the default pipe).
std::string LinkModelJson(const LinkModel& model);

/// Parses a LinkModel from a JSON value (as documented above). On failure
/// returns false and fills `error` with a "loss.up.gilbert.p: ..."-style
/// sub-path message (no outer field prefix — the scenario parser adds it).
bool ParseLinkModel(const core::JsonValue& value, LinkModel& out, std::string& error);

}  // namespace quicer::netem
