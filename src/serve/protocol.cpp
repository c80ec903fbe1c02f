#include "serve/protocol.hpp"

#include <cmath>
#include <limits>

#include "util/diagnostics.hpp"
#include "util/json.hpp"

namespace speccc::serve {

namespace {

namespace json = util::json;

[[noreturn]] void fail(const std::string& what) {
  throw util::ParseError("protocol: " + what);
}

std::string field_string(const json::Value& object, std::string_view key) {
  const json::Value* v = object.find(key);
  if (v == nullptr) fail("missing \"" + std::string(key) + "\"");
  if (v->kind() != json::Kind::kString) {
    fail("\"" + std::string(key) + "\" must be a string");
  }
  return v->as_string();
}

std::string optional_string(const json::Value& object, std::string_view key) {
  const json::Value* v = object.find(key);
  if (v == nullptr || v->is_null()) return {};
  if (v->kind() != json::Kind::kString) {
    fail("\"" + std::string(key) + "\" must be a string");
  }
  return v->as_string();
}

double optional_number(const json::Value& object, std::string_view key,
                       double fallback) {
  const json::Value* v = object.find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (v->kind() != json::Kind::kNumber) {
    fail("\"" + std::string(key) + "\" must be a number");
  }
  return v->as_number();
}

/// An optional `int` field; a fraction, a value outside int's range, or a
/// non-number is a protocol error.
int optional_int(const json::Value& object, std::string_view key) {
  constexpr int min = std::numeric_limits<int>::min();
  constexpr int max = std::numeric_limits<int>::max();
  const double v = optional_number(object, key, 0.0);
  if (!(v >= min && v <= max) || std::trunc(v) != v) {
    fail("\"" + std::string(key) + "\" must be an integer in [" +
         std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return static_cast<int>(v);
}

/// "requirements": an array of sentences, each either a plain string
/// (ids default to R1, R2, ... in order) or {"id": ..., "text": ...}.
std::vector<translate::RequirementText> parse_requirements(
    const json::Value& object) {
  const json::Value* v = object.find("requirements");
  if (v == nullptr) fail("missing \"requirements\"");
  if (v->kind() != json::Kind::kArray) {
    fail("\"requirements\" must be an array");
  }
  std::vector<translate::RequirementText> out;
  out.reserve(v->as_array().size());
  std::size_t index = 0;
  for (const json::Value& item : v->as_array()) {
    ++index;
    translate::RequirementText req;
    if (item.kind() == json::Kind::kString) {
      req.id = "R" + std::to_string(index);
      req.text = item.as_string();
    } else if (item.kind() == json::Kind::kObject) {
      req.text = field_string(item, "text");
      req.id = optional_string(item, "id");
      if (req.id.empty()) req.id = "R" + std::to_string(index);
    } else {
      fail("requirement " + std::to_string(index) +
           " must be a string or an {\"id\",\"text\"} object");
    }
    if (req.text.empty()) {
      fail("requirement " + std::to_string(index) + " has empty text");
    }
    out.push_back(std::move(req));
  }
  if (out.empty()) fail("\"requirements\" is empty");
  return out;
}

void put_ms(json::Object& o, const char* key, double seconds) {
  o[key] = std::llround(seconds * 1000.0);
}

/// Strip canonical_line's trailing newline for embedding as a JSON string;
/// clients re-append '\n' when reconstructing batch-comparable output.
std::string canonical_field(const batch::TaskResult& result) {
  std::string line = batch::canonical_line(result);
  if (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

std::string render(const json::Object& object) {
  std::string out;
  json::write(out, json::Value(object));
  return out;
}

}  // namespace

ParsedRequest parse_request(std::string_view line) {
  const json::Value doc = json::parse(line);
  if (doc.kind() != json::Kind::kObject) fail("request must be an object");

  ParsedRequest parsed;
  parsed.id = optional_string(doc, "id");

  const std::string method = field_string(doc, "method");
  if (method == "ping") {
    parsed.method = Method::kPing;
  } else if (method == "stats") {
    parsed.method = Method::kStats;
  } else if (method == "shutdown") {
    parsed.method = Method::kShutdown;
  } else if (method == "check") {
    parsed.method = Method::kCheck;
    Request& request = parsed.request;
    request.spec.name = optional_string(doc, "name");
    if (request.spec.name.empty()) request.spec.name = "spec";
    if (parsed.id.empty()) parsed.id = request.spec.name;
    request.id = parsed.id;
    request.spec.requirements = parse_requirements(doc);
    request.priority = optional_int(doc, "priority");
    const double deadline_ms = optional_number(doc, "deadline_ms", 0.0);
    if (!(deadline_ms >= 0.0 && deadline_ms <= kMaxDeadlineMs)) {
      fail("\"deadline_ms\" must be in [0, " +
           std::to_string(static_cast<long long>(kMaxDeadlineMs)) + "]");
    }
    request.deadline_seconds = deadline_ms / 1000.0;
    // Optional per-request substrate override ("auto", a substrate name,
    // or "race:a,b,..."); an unparseable spec is a protocol error like any
    // other malformed field.
    const std::string substrate = optional_string(doc, "substrate");
    if (!substrate.empty()) {
      try {
        request.substrate = core::SubstrateSpec::parse(substrate);
      } catch (const util::InvalidInputError& e) {
        fail(e.what());
      }
    }
  } else {
    fail("unknown method \"" + method + "\"");
  }
  return parsed;
}

std::string render_response(const Response& response) {
  json::Object o;
  o["id"] = response.id;
  o["kind"] = response_kind_name(response.kind);
  switch (response.kind) {
    case ResponseKind::kRejected:
      o["error"] = response.error;
      put_ms(o, "retry_after_ms", response.retry_after_seconds);
      break;
    case ResponseKind::kError:
      o["error"] = response.error;
      break;
    case ResponseKind::kDeadlineExceeded:
      o["error"] = response.error;
      put_ms(o, "queue_ms", response.queue_seconds);
      put_ms(o, "run_ms", response.result.seconds);
      break;
    case ResponseKind::kResult: {
      const batch::TaskResult& r = response.result;
      o["name"] = r.name;
      o["status"] = batch::status_name(r.status);
      o["canonical"] = canonical_field(r);
      put_ms(o, "queue_ms", response.queue_seconds);
      put_ms(o, "run_ms", r.seconds);
      // Substrate diagnostics (never part of "canonical"): which substrate
      // decided the spec, and the per-racer stats when it was raced.
      if (!r.substrate.empty()) o["substrate"] = r.substrate;
      if (r.portfolio.has_value()) {
        o["won"] = r.portfolio->winner;
        o["substrates"] = core::substrates_json(*r.portfolio);
      }
      // Per-request cache accounting (thread-local deltas); all-zero when
      // the server runs without a store, so only emitted when non-zero.
      const cache::StatsSnapshot& c = r.cache;
      if (c.hits() + c.misses() + c.evictions > 0) {
        o["cache"] = cache::stats_json(c);
      }
      break;
    }
  }
  return render(o);
}

std::string render_error(std::string_view id, std::string_view message) {
  return render({{"id", std::string(id)},
                 {"kind", "error"},
                 {"error", std::string(message)}});
}

std::string render_pong(std::string_view id) {
  return render({{"id", std::string(id)}, {"kind", "pong"}});
}

std::string render_stats(std::string_view id, const ServiceStats& stats,
                         const cache::Store* store) {
  json::Object o{{"id", std::string(id)},
                 {"kind", "stats"},
                 {"submitted", stats.submitted},
                 {"accepted", stats.accepted},
                 {"rejected", stats.rejected},
                 {"completed", stats.completed},
                 {"deadline_exceeded", stats.deadline_exceeded},
                 {"errors", stats.errors},
                 {"queue_depth", stats.queue_depth},
                 {"workers", stats.workers}};
  if (store != nullptr) {
    json::Object c = cache::stats_json(store->stats());
    c["entries"] = store->size();
    c["eviction"] = cache::eviction_name(store->options().eviction);
    o["cache"] = std::move(c);
  }
  return render(o);
}

std::string render_shutting_down(std::string_view id) {
  return render({{"id", std::string(id)}, {"kind", "shutting-down"}});
}

}  // namespace speccc::serve
