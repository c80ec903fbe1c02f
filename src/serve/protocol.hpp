// The speccc_serve wire protocol: newline-delimited JSON (NDJSON), one
// JSON object per line in each direction, over any byte stream (TCP in
// practice; plain strings in the tests). Chosen over HTTP deliberately:
// framing is one '\n', requests pipeline naturally on a single
// connection, and a soak client is a loop around getline.
//
// Requests ({"method": ...}):
//   check     {"method":"check","id":"r1","name":"spec-1",
//              "requirements":["the door is open", ...]        // or
//              "requirements":[{"id":"R1","text":"..."}, ...],
//              "priority":0, "deadline_ms":500}
//             id defaults to name; priority (an int) and deadline_ms
//             (at most serve::kMaxDeadlineMs; 0 / absent = the server
//             default) are optional.
//   ping      {"method":"ping","id":"p1"}           liveness probe
//   stats     {"method":"stats","id":"s1"}          service + cache counters
//   shutdown  {"method":"shutdown","id":"q1"}       drain and exit (as if
//                                                   SIGTERM'd)
//
// Responses echo "id" and carry "kind":
//   result             verdict reached; "status" is the batch TaskStatus
//                      name and "canonical" is EXACTLY the line
//                      `speccc_batch --canonical` prints for this spec
//                      (trailing newline stripped) -- the byte-comparable
//                      determinism bridge between daemon and batch.
//                      "queue_ms"/"run_ms" and, when the server runs with
//                      a cache, per-request "cache" hit/miss counters ride
//                      along as diagnostics.
//   rejected           backpressure; "retry_after_ms" says when to retry
//   deadline-exceeded  the deadline passed while queued or mid-run
//   error              malformed line or internal failure; "error" says why
//   pong / stats / shutting-down   for the non-check methods
//
// One response per request, in per-connection completion order (NOT
// submission order -- priorities and deadlines reorder); correlate by id.
// A malformed line yields one "error" response and the connection stays
// open. See docs/TOOLS.md for the full field reference.
#pragma once

#include <string>
#include <string_view>

#include "serve/service.hpp"

namespace speccc::serve {

enum class Method { kCheck, kPing, kStats, kShutdown };

/// One decoded request line.
struct ParsedRequest {
  Method method = Method::kPing;
  std::string id;    ///< correlation token (echoed); may be empty
  Request request;   ///< populated for kCheck
};

/// Decode one NDJSON request line. Throws util::ParseError with a
/// human-readable reason on malformed input (bad JSON, unknown method,
/// missing/mistyped fields); the caller turns that into an "error"
/// response.
[[nodiscard]] ParsedRequest parse_request(std::string_view line);

/// Render a service response as one JSON line (no trailing newline).
[[nodiscard]] std::string render_response(const Response& response);

/// Render an "error" response for a line that failed to parse.
[[nodiscard]] std::string render_error(std::string_view id,
                                       std::string_view message);

[[nodiscard]] std::string render_pong(std::string_view id);

/// Service counters plus, when `store` is non-null, whole-process cache
/// counters.
[[nodiscard]] std::string render_stats(std::string_view id,
                                       const ServiceStats& stats,
                                       const cache::Store* store);

/// Acknowledgement sent for a "shutdown" request before draining begins.
[[nodiscard]] std::string render_shutting_down(std::string_view id);

}  // namespace speccc::serve
