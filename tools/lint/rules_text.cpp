// The v1 line rules, ported behavior-identical onto the v2 engine: same
// regexes, same path gating, same messages. They consume the per-line
// projections the lexer produces; only pragma handling moved (into Sink).
#include <algorithm>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "lint_internal.hpp"

namespace g2g::lint::internal {

// ---------------------------------------------------------------------------
// Rule scopes. Paths are relative to the scanned root with '/' separators.
// ---------------------------------------------------------------------------

bool in_src(const std::string& rel) { return rel.rfind("src/", 0) == 0; }
bool in_tests(const std::string& rel) { return rel.rfind("tests/", 0) == 0; }

bool is_header(const std::string& rel) {
  return rel.size() > 4 && (rel.ends_with(".hpp") || rel.ends_with(".h"));
}

bool in_relay_core(const std::string& rel) {
  return rel.rfind("src/proto/src/relay/", 0) == 0 ||
         rel.rfind("src/proto/include/g2g/proto/relay/", 0) == 0;
}

bool is_view_type(const std::string& ident) {
  return ident.size() > 4 && ident.ends_with("View");
}

namespace {

bool in_obs(const std::string& rel) { return rel.rfind("src/obs/", 0) == 0; }
bool in_proto_headers(const std::string& rel) {
  return rel.rfind("src/proto/include/", 0) == 0;
}

struct TokenRule {
  const char* rule;
  std::regex pattern;
  const char* message;
  bool applies_to_tests;
};

const std::vector<TokenRule>& token_rules() {
  static const std::vector<TokenRule> rules = [] {
    std::vector<TokenRule> r;
    r.push_back({"no-rand", std::regex(R"(\b(?:srand|rand)\s*\()"),
                 "libc rand()/srand() is nondeterministic across platforms; use g2g::Rng",
                 true});
    r.push_back({"no-random-device",
                 std::regex(R"(\brandom_device\b)"),
                 "std::random_device breaks seed reproducibility; use g2g::Rng",
                 true});
    r.push_back({"no-wall-clock",
                 std::regex(R"(\bsystem_clock\b|\bgettimeofday\b|\blocaltime\b|\bgmtime\b|\bstd\s*::\s*time\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\))"),
                 "wall-clock reads make runs non-replayable; use sim TimePoint "
                 "(steady_clock is fine for profiling)",
                 false});
    r.push_back({"no-getenv", std::regex(R"(\bgetenv\b)"),
                 "environment reads hide run configuration; thread it through "
                 "ExperimentConfig",
                 false});
    return r;
  }();
  return rules;
}

const std::set<std::string>& registered_counter_prefixes() {
  // The counter namespace of docs/OBSERVABILITY.md. New areas are added here
  // deliberately, in the same commit that documents them.
  static const std::set<std::string> prefixes = {
      "buffer.", "detect.", "fastpath.", "g2g.", "hs.",
      "msg.",    "pom.",    "session.",  "wire.",
  };
  return prefixes;
}

const std::set<std::string>& registered_span_names() {
  // The span/stage name set of docs/OBSERVABILITY.md ("Spans & causal
  // tracing") and src/obs/include/g2g/obs/span.hpp; the three lists are kept
  // in sync deliberately, in the same commit.
  static const std::set<std::string> names = {
      // spans
      "msg", "relay_session", "audit_round", "pom_gossip",
      // stages
      "trace_gen", "communities", "warm_up", "simulation", "extraction",
  };
  return names;
}

}  // namespace

void scan_tokens(const FileContext& ctx, Sink& sink) {
  const bool src = in_src(ctx.rel);
  const bool tests = in_tests(ctx.rel);
  if (!src && !tests) return;
  const auto& lines = ctx.lexed.lines;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const TokenRule& rule : token_rules()) {
      if (tests && !rule.applies_to_tests) continue;
      if (!std::regex_search(lines[i].code_blanked, rule.pattern)) continue;
      sink.report(i + 1, rule.rule, rule.message);
    }
  }
}

void scan_unordered_iteration(const FileContext& ctx, Sink& sink) {
  if (!in_src(ctx.rel)) return;
  const auto& lines = ctx.lexed.lines;
  // Pass 1: names declared (in this file) with an unordered container type.
  static const std::regex kDecl(R"(unordered_(?:map|set)\s*<[^;]*>\s+(\w+)\s*[;{=(])");
  std::set<std::string> unordered_names;
  for (const SplitLine& line : lines) {
    auto begin = std::sregex_iterator(line.code_blanked.begin(),
                                      line.code_blanked.end(), kDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      unordered_names.insert((*it)[1].str());
    }
  }
  if (unordered_names.empty()) return;
  // Pass 2: range-for over, or begin() iteration of, one of those names.
  static const std::regex kRangeFor(R"(for\s*\([^)]*:\s*(\w+)\s*\))");
  static const std::regex kBegin(R"((\w+)\s*\.\s*c?begin\s*\()");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const auto* pattern : {&kRangeFor, &kBegin}) {
      auto begin = std::sregex_iterator(lines[i].code_blanked.begin(),
                                        lines[i].code_blanked.end(), *pattern);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        const std::string name = (*it)[1].str();
        if (unordered_names.count(name) == 0) continue;
        sink.report(i + 1, "no-unordered-iter",
                    "iteration over unordered container '" + name +
                        "' has unspecified order; use std::map or sort first");
      }
    }
  }
}

void scan_wire_triple(const FileContext& ctx, Sink& sink) {
  if (!in_proto_headers(ctx.rel) || !is_header(ctx.rel)) return;
  const auto& lines = ctx.lexed.lines;
  // Whole-file scan over blanked code: find each struct/class body and check
  // that encode() is accompanied by decode() and wire_size().
  std::string text;
  std::vector<std::size_t> line_of_offset(1, 1);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    text += lines[i].code_blanked;
    text += '\n';
    line_of_offset.push_back(i + 2);
  }
  static const std::regex kStruct(R"((?:struct|class)\s+(\w+)[^;{]*\{)");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kStruct);
       it != std::sregex_iterator(); ++it) {
    const std::size_t open = static_cast<std::size_t>(it->position()) +
                             static_cast<std::size_t>(it->length()) - 1;
    // Matching close brace.
    std::size_t depth = 0;
    std::size_t close = text.size();
    for (std::size_t p = open; p < text.size(); ++p) {
      if (text[p] == '{') ++depth;
      if (text[p] == '}' && --depth == 0) {
        close = p;
        break;
      }
    }
    const std::string body = text.substr(open, close - open);
    static const std::regex kEncode(R"(\bencode\s*\(\s*\)\s*const)");
    static const std::regex kDecode(R"(\bdecode\s*\()");
    static const std::regex kWireSize(R"(\bwire_size\s*\(\s*\)\s*const)");
    if (!std::regex_search(body, kEncode)) continue;
    std::string missing;
    if (!std::regex_search(body, kDecode)) missing = "decode()";
    if (!std::regex_search(body, kWireSize)) {
      if (!missing.empty()) missing += " and ";
      missing += "wire_size()";
    }
    if (missing.empty()) continue;
    const std::size_t line =
        line_of_offset[static_cast<std::size_t>(
            std::count(text.begin(), text.begin() + it->position(), '\n'))];
    sink.report(line, "wire-encode-triple",
                "'" + (*it)[1].str() + "' declares encode() but not " + missing +
                    "; every wire type carries the full codec triple");
  }
}

void scan_counters(const FileContext& ctx, Sink& sink) {
  if (!in_src(ctx.rel)) return;
  const auto& lines = ctx.lexed.lines;
  static const std::regex kCall(R"(\b(?:counter|histogram)\s*\(\s*"([^"]*)\")");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    auto begin = std::sregex_iterator(lines[i].code.begin(), lines[i].code.end(), kCall);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1].str();
      const auto& prefixes = registered_counter_prefixes();
      const bool ok = std::any_of(prefixes.begin(), prefixes.end(),
                                  [&](const std::string& p) {
                                    return name.rfind(p, 0) == 0;
                                  });
      if (ok) continue;
      sink.report(i + 1, "counter-name-prefix",
                  "counter/histogram name '" + name +
                      "' lacks a registered area prefix (see "
                      "docs/STATIC_ANALYSIS.md)");
    }
  }
}

void scan_span_names(const FileContext& ctx, Sink& sink) {
  if (!in_src(ctx.rel)) return;
  const auto& lines = ctx.lexed.lines;
  // Three emission sites carry span/stage names as string literals:
  // Tracer::open_span("..."), obs::StageTimer t(stages, "..."), and
  // StageRegistry::add("..."). Call sites must keep the name literal (no
  // constants) precisely so this rule can see it.
  static const std::regex kOpenSpan(R"(\bopen_span\s*\([^"]*"([^"]*)\")");
  static const std::regex kStageTimer(R"(\bStageTimer\s+\w+\s*\([^"]*"([^"]*)\")");
  static const std::regex kStagesAdd(R"(\bstages\s*\.\s*add\s*\(\s*"([^"]*)\")");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const auto* pattern : {&kOpenSpan, &kStageTimer, &kStagesAdd}) {
      auto begin =
          std::sregex_iterator(lines[i].code.begin(), lines[i].code.end(), *pattern);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        const std::string name = (*it)[1].str();
        if (registered_span_names().count(name) > 0) continue;
        sink.report(i + 1, "span-name-registry",
                    "span/stage name '" + name +
                        "' is not in the registered set (see "
                        "docs/OBSERVABILITY.md and g2g/obs/span.hpp)");
      }
    }
  }
}

void scan_adhoc_atomics(const FileContext& ctx, Sink& sink) {
  if (!in_src(ctx.rel) || in_obs(ctx.rel)) return;
  const auto& lines = ctx.lexed.lines;
  static const std::regex kAtomic(R"(\bstd\s*::\s*atomic\b)");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!std::regex_search(lines[i].code_blanked, kAtomic)) continue;
    sink.report(i + 1, "no-adhoc-atomic",
                "std::atomic outside src/obs — protocol counters go through "
                "obs::Registry; justify infrastructure atomics with an allow "
                "pragma");
  }
}

// Owning buffers on the relay hot path: the zero-copy message path encodes
// into the session arena (g2g/util/arena.hpp) and decodes through non-owning
// views, so constructing Bytes / std::vector<uint8_t> / Writer inside
// src/proto/src/relay/ reintroduces per-hop heap traffic. Genuinely cold
// paths (PoM gossip dedup, whose inputs must outlive the arena generation)
// justify themselves with an allow pragma.
void scan_owning_buffer_hot_path(const FileContext& ctx, Sink& sink) {
  if (ctx.rel.rfind("src/proto/src/relay/", 0) != 0 || is_header(ctx.rel)) return;
  const auto& lines = ctx.lexed.lines;
  // Owning-buffer constructions only: `Bytes name …`, a `Bytes(...)`
  // temporary, a raw byte vector, or an owning Writer. Return types
  // (`Bytes X::encode()`), references (`const Bytes&`), and the non-owning
  // BytesView/SpanWriter types do not match.
  static const std::regex kOwning(
      R"(\bBytes\s+\w+\s*[({=;]|\bBytes\s*\(|std::vector<\s*(?:std::)?uint8_t\s*>|\bWriter\s+\w+)");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!std::regex_search(lines[i].code_blanked, kOwning)) continue;
    sink.report(i + 1, "no-owning-buffer-hot-path",
                "owning buffer construction on the relay hot path; encode into "
                "the session arena and decode through views (DESIGN.md \"Buffer "
                "ownership\"), or justify a cold path with an allow pragma");
  }
}

}  // namespace g2g::lint::internal
