#include "src/analysis/lint.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "src/util/json.h"

namespace dumbnet {
namespace {

// ---------------------------------------------------------------------------------
// Source model: original lines, a comment/string-blanked mirror (same shape, so
// token columns line up), per-line comment text, and preprocessor-line flags.

struct SourceText {
  std::vector<std::string> raw;
  std::vector<std::string> code;      // comments and literal contents blanked
  std::vector<std::string> comments;  // comment text attributed to each line
  std::vector<bool> preproc;          // directive lines, including \ continuations
};

SourceText SplitAndBlank(const std::string& content) {
  SourceText src;
  src.raw.emplace_back();
  src.code.emplace_back();
  src.comments.emplace_back();

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;          // raw-string closing delimiter ")...\""
  size_t raw_match = 0;           // chars of raw_delim matched so far
  auto put = [&](char raw_ch, char code_ch) {
    src.raw.back().push_back(raw_ch);
    src.code.back().push_back(code_ch);
  };
  auto newline = [&] {
    src.raw.emplace_back();
    src.code.emplace_back();
    src.comments.emplace_back();
  };

  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) {
        state = State::kCode;
      }
      newline();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          put(c, ' ');
          break;
        }
        if (c == '/' && next == '*') {
          state = State::kBlockComment;
          put(c, ' ');
          put(next, ' ');
          ++i;
          break;
        }
        if (c == 'R' && next == '"') {
          // Raw string literal: R"delim( ... )delim". Only when R starts a token.
          const std::string& line = src.code.back();
          const char prev = line.empty() ? '\0' : line.back();
          if (!(std::isalnum(static_cast<unsigned char>(prev)) || prev == '_')) {
            size_t j = i + 2;
            std::string delim;
            while (j < content.size() && content[j] != '(' && content[j] != '\n') {
              delim.push_back(content[j]);
              ++j;
            }
            if (j < content.size() && content[j] == '(') {
              raw_delim = ")" + delim + "\"";
              raw_match = 0;
              for (size_t k = i; k <= j; ++k) {
                put(content[k], k == i ? 'R' : ' ');
              }
              i = j;
              state = State::kRawString;
              break;
            }
          }
          put(c, c);
          break;
        }
        if (c == '"') {
          state = State::kString;
          put(c, '"');
          break;
        }
        if (c == '\'') {
          // Digit separators (1'000'000) are not character literals.
          const std::string& line = src.code.back();
          const char prev = line.empty() ? '\0' : line.back();
          if (std::isalnum(static_cast<unsigned char>(prev)) &&
              (std::isalnum(static_cast<unsigned char>(next)) || next == '\0')) {
            put(c, c);
            break;
          }
          state = State::kChar;
          put(c, '\'');
          break;
        }
        put(c, c);
        break;
      case State::kLineComment:
        src.comments.back().push_back(c);
        put(c, ' ');
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          put(c, ' ');
          put(next, ' ');
          ++i;
          break;
        }
        src.comments.back().push_back(c);
        put(c, ' ');
        break;
      case State::kString:
        if (c == '\\' && next != '\0' && next != '\n') {
          put(c, ' ');
          put(next, ' ');
          ++i;
          break;
        }
        if (c == '"') {
          state = State::kCode;
          put(c, '"');
          break;
        }
        put(c, ' ');
        break;
      case State::kChar:
        if (c == '\\' && next != '\0' && next != '\n') {
          put(c, ' ');
          put(next, ' ');
          ++i;
          break;
        }
        if (c == '\'') {
          state = State::kCode;
          put(c, '\'');
          break;
        }
        put(c, ' ');
        break;
      case State::kRawString:
        raw_match = c == raw_delim[raw_match] ? raw_match + 1
                    : c == raw_delim[0]      ? 1
                                             : 0;
        if (raw_match == raw_delim.size()) {
          state = State::kCode;
          put(c, '"');  // make the literal read as closed in the code view
          break;
        }
        put(c, ' ');
        break;
    }
  }

  src.preproc.assign(src.code.size(), false);
  bool continued = false;
  for (size_t l = 0; l < src.code.size(); ++l) {
    const std::string& line = src.code[l];
    size_t first = line.find_first_not_of(" \t");
    bool starts = first != std::string::npos && line[first] == '#';
    src.preproc[l] = starts || continued;
    size_t last = src.raw[l].find_last_not_of(" \t");
    continued = src.preproc[l] && last != std::string::npos && src.raw[l][last] == '\\';
  }
  return src;
}

// ---------------------------------------------------------------------------------
// Tokenizer over the blanked code view.

struct Tok {
  bool ident = false;
  std::string text;
  size_t line = 0;  // 0-based internally
  size_t col = 0;
};

std::vector<Tok> Tokenize(const SourceText& src) {
  std::vector<Tok> toks;
  for (size_t l = 0; l < src.code.size(); ++l) {
    const std::string& line = src.code[l];
    size_t i = 0;
    while (i < line.size()) {
      const char c = line[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i + 1;
        while (j < line.size() && (std::isalnum(static_cast<unsigned char>(line[j])) ||
                                   line[j] == '_')) {
          ++j;
        }
        toks.push_back({true, line.substr(i, j - i), l, i});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t j = i + 1;  // numbers: swallow suffixes/exponents, never idents
        while (j < line.size() && (std::isalnum(static_cast<unsigned char>(line[j])) ||
                                   line[j] == '.' || line[j] == '\'')) {
          ++j;
        }
        toks.push_back({false, line.substr(i, j - i), l, i});
        i = j;
        continue;
      }
      if (c == ':' && i + 1 < line.size() && line[i + 1] == ':') {
        toks.push_back({false, "::", l, i});
        i += 2;
        continue;
      }
      toks.push_back({false, std::string(1, c), l, i});
      ++i;
    }
  }
  return toks;
}

// Original text between the start of token `from` and the start of token `to`.
std::string RawBetween(const SourceText& src, const Tok& from, const Tok& to) {
  if (from.line == to.line) {
    return src.raw[from.line].substr(from.col, to.col - from.col);
  }
  std::string out = src.raw[from.line].substr(from.col);
  for (size_t l = from.line + 1; l < to.line; ++l) {
    out += "\n" + src.raw[l];
  }
  out += "\n" + src.raw[to.line].substr(0, to.col);
  return out;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\n\r");
  if (b == std::string::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t\n\r");
  return s.substr(b, e - b + 1);
}

// Index of the token closing the paren opened at toks[open] ('(' expected), or
// toks.size() when unbalanced.
size_t MatchParen(const std::vector<Tok>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].ident) {
      continue;
    }
    if (toks[i].text == "(") {
      ++depth;
    } else if (toks[i].text == ")") {
      if (--depth == 0) {
        return i;
      }
    }
  }
  return toks.size();
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string NormalizeSlashes(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

bool IsLowerDotKey(const std::string& s) {
  if (s.empty() || s.front() == '.' || s.back() == '.' ||
      s.find("..") != std::string::npos) {
    return false;
  }
  for (char c : s) {
    if (!(std::islower(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '_' || c == '.')) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------------
// Suppression annotations (allow(rule-id, reason) behind the marker below).

struct Suppressions {
  // line (0-based) -> rules allowed on that line and the next.
  std::map<size_t, std::set<std::string>> allow;
};

Suppressions ParseSuppressions(const SourceText& src, const std::string& path,
                               std::vector<LintFinding>* findings) {
  static const std::string kMarker = "dn-lint:";
  Suppressions sup;
  const auto& known = KnownLintRules();
  for (size_t l = 0; l < src.comments.size(); ++l) {
    const std::string& comment = src.comments[l];
    size_t pos = comment.find(kMarker);
    while (pos != std::string::npos) {
      size_t cur = pos + kMarker.size();
      size_t open = comment.find("allow(", cur);
      if (open == std::string::npos) {
        findings->push_back({"bad-suppression", path, l + 1,
                             "dn-lint annotation without allow(rule, reason)"});
        break;
      }
      size_t close = comment.find(')', open);
      if (close == std::string::npos) {
        findings->push_back(
            {"bad-suppression", path, l + 1, "unterminated dn-lint allow(...)"});
        break;
      }
      std::string body = comment.substr(open + 6, close - open - 6);
      size_t comma = body.find(',');
      std::string rule = Trim(comma == std::string::npos ? body : body.substr(0, comma));
      std::string reason =
          comma == std::string::npos ? "" : Trim(body.substr(comma + 1));
      if (std::find(known.begin(), known.end(), rule) == known.end()) {
        findings->push_back({"bad-suppression", path, l + 1,
                             "allow() names unknown rule '" + rule + "'"});
      } else if (reason.empty()) {
        findings->push_back({"bad-suppression", path, l + 1,
                             "allow(" + rule + ") needs a reason: allow(" + rule +
                                 ", <why this is safe>)"});
      } else {
        sup.allow[l].insert(rule);
      }
      pos = comment.find(kMarker, close);
    }
  }
  return sup;
}

bool Suppressed(const Suppressions& sup, const std::string& rule, size_t line0) {
  auto covers = [&](size_t l) {
    auto it = sup.allow.find(l);
    return it != sup.allow.end() && it->second.count(rule) > 0;
  };
  return covers(line0) || (line0 > 0 && covers(line0 - 1));
}

// ---------------------------------------------------------------------------------
// Rule: raw-random / wall-clock.

const std::set<std::string>& RawRandomIdents() {
  static const std::set<std::string> kSet = {
      "rand",          "srand",        "rand_r",       "drand48",
      "lrand48",       "mrand48",      "random_device", "mt19937",
      "mt19937_64",    "minstd_rand",  "minstd_rand0", "default_random_engine",
      "random_shuffle"};
  return kSet;
}

const std::set<std::string>& WallClockIdents() {
  static const std::set<std::string> kSet = {
      "system_clock", "steady_clock", "high_resolution_clock", "gettimeofday",
      "clock_gettime", "timespec_get", "localtime",            "gmtime",
      "mktime"};
  return kSet;
}

void CheckDeterminism(const std::vector<Tok>& toks, const std::string& path,
                      std::vector<LintFinding>* findings) {
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].ident) {
      continue;
    }
    const std::string& t = toks[i].text;
    const bool call = i + 1 < toks.size() && toks[i + 1].text == "(";
    if (RawRandomIdents().count(t) > 0) {
      findings->push_back({"raw-random", path, toks[i].line + 1,
                           "'" + t + "' breaks run-to-run determinism; draw from " +
                               "src/util/rng.h (Rng) instead"});
    } else if (WallClockIdents().count(t) > 0 ||
               ((t == "time" || t == "clock") && call)) {
      findings->push_back({"wall-clock", path, toks[i].line + 1,
                           "'" + t + "' reads the wall clock; simulated code must " +
                               "use virtual time (Simulator::Now)"});
    }
  }
}

// ---------------------------------------------------------------------------------
// Rule: unordered-iter.

const std::set<std::string>& UnorderedTypeNames() {
  static const std::set<std::string> kSet = {"unordered_map", "unordered_set",
                                             "unordered_multimap",
                                             "unordered_multiset"};
  return kSet;
}

// Names of variables/members declared with an unordered container type, plus
// type aliases (`using Foo = std::unordered_map<...>`) so `Foo bar;` is caught.
void CollectUnorderedNames(const std::vector<Tok>& toks, std::set<std::string>* names,
                           std::set<std::string>* type_aliases) {
  auto is_unordered_type = [&](const std::string& t) {
    return UnorderedTypeNames().count(t) > 0 || type_aliases->count(t) > 0;
  };
  // Alias pass: using X = ... unordered_xxx ... ;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!(toks[i].ident && toks[i].text == "using" && toks[i + 1].ident &&
          toks[i + 2].text == "=")) {
      continue;
    }
    for (size_t j = i + 3; j < toks.size() && toks[j].text != ";"; ++j) {
      if (toks[j].ident && UnorderedTypeNames().count(toks[j].text) > 0) {
        type_aliases->insert(toks[i + 1].text);
        break;
      }
    }
  }
  // Declaration pass: <unordered-type> [<template-args>] [&*const]* <name>
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].ident || !is_unordered_type(toks[i].text)) {
      continue;
    }
    size_t j = i + 1;
    if (j < toks.size() && toks[j].text == "<") {
      int depth = 0;
      for (; j < toks.size(); ++j) {
        if (toks[j].text == "<") {
          ++depth;
        } else if (toks[j].text == ">") {
          if (--depth == 0) {
            ++j;
            break;
          }
        } else if (toks[j].text == ";") {
          break;  // malformed / non-declaration use
        }
      }
    }
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" || toks[j].text == "const")) {
      ++j;
    }
    if (j < toks.size() && toks[j].ident && toks[j].text != "const") {
      names->insert(toks[j].text);
    }
  }
}

void CheckUnorderedIteration(const std::vector<Tok>& toks,
                             const std::set<std::string>& unordered_names,
                             const std::set<std::string>& aliases,
                             const std::string& path,
                             std::vector<LintFinding>* findings) {
  auto is_unordered_expr_token = [&](const Tok& t) {
    return t.ident && (unordered_names.count(t.text) > 0 ||
                       UnorderedTypeNames().count(t.text) > 0 ||
                       aliases.count(t.text) > 0);
  };
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!(toks[i].ident && toks[i].text == "for" && toks[i + 1].text == "(")) {
      continue;
    }
    const size_t open = i + 1;
    const size_t close = MatchParen(toks, open);
    if (close == toks.size()) {
      continue;
    }
    // Find the range-for ':' at paren depth 1 ("::" is its own token).
    size_t colon = close;
    int depth = 0;
    for (size_t j = open; j < close; ++j) {
      if (toks[j].text == "(" || toks[j].text == "[" || toks[j].text == "{") {
        ++depth;
      } else if (toks[j].text == ")" || toks[j].text == "]" || toks[j].text == "}") {
        --depth;
      } else if (toks[j].text == ":" && depth == 1) {
        colon = j;
        break;
      }
    }
    bool flagged = false;
    if (colon != close) {
      for (size_t j = colon + 1; j < close && !flagged; ++j) {
        if (is_unordered_expr_token(toks[j])) {
          findings->push_back(
              {"unordered-iter", path, toks[i].line + 1,
               "range-for over unordered container '" + toks[j].text +
                   "' in an order-sensitive layer; iterate a sorted snapshot or a "
                   "deterministic container, or annotate dn-lint: "
                   "allow(unordered-iter, <reason>)"});
          flagged = true;
        }
      }
    } else {
      for (size_t j = open + 1; j + 2 < close && !flagged; ++j) {
        if (is_unordered_expr_token(toks[j]) && toks[j + 1].text == "." &&
            (toks[j + 2].text == "begin" || toks[j + 2].text == "cbegin")) {
          findings->push_back(
              {"unordered-iter", path, toks[i].line + 1,
               "iterator loop over unordered container '" + toks[j].text +
                   "' in an order-sensitive layer; iterate a sorted snapshot or a "
                   "deterministic container, or annotate dn-lint: "
                   "allow(unordered-iter, <reason>)"});
          flagged = true;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------------
// Rule: pointer-key (order-sensitive layers only). Pointer values vary run to
// run with the allocator; a container keyed (or ordered) by them, or an address
// laundered into an integer key, silently breaks trace determinism.

const std::set<std::string>& KeyedContainerNames() {
  static const std::set<std::string> kSet = {
      "map",           "multimap",           "set",           "multiset",
      "unordered_map", "unordered_multimap", "unordered_set", "unordered_multiset"};
  return kSet;
}

void CheckPointerKeys(const std::vector<Tok>& toks, const std::string& path,
                      std::vector<LintFinding>* findings) {
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].ident) {
      continue;
    }
    // <container><<T>*...>: pointer in the first template argument (the key for
    // maps, the element for sets). Later arguments — mapped values, custom
    // comparators — may legitimately hold pointers.
    if (KeyedContainerNames().count(toks[i].text) > 0 && toks[i + 1].text == "<") {
      int depth = 0;
      for (size_t j = i + 1; j < toks.size(); ++j) {
        const std::string& t = toks[j].text;
        if (toks[j].ident) {
          continue;
        }
        if (t == "<") {
          ++depth;
        } else if (t == ">") {
          if (--depth == 0) {
            break;
          }
        } else if (t == ";") {
          break;  // not a type usage after all
        } else if (depth == 1 && t == ",") {
          break;
        } else if (depth == 1 && t == "*") {
          findings->push_back(
              {"pointer-key", path, toks[i].line + 1,
               "'" + toks[i].text +
                   "' keyed by a pointer: addresses vary run to run, so ordering "
                   "and iteration leak allocator state into the event stream; key "
                   "by a stable id (uid, mac, index) or annotate dn-lint: "
                   "allow(pointer-key, <why order never escapes>)"});
          break;
        }
      }
      continue;
    }
    // reinterpret_cast<integer>(...): a pointer address turned into a number.
    // Casting *to* a pointer type (has a '*' in the target) is not flagged.
    if (toks[i].text == "reinterpret_cast" && toks[i + 1].text == "<") {
      int depth = 0;
      bool to_pointer = false;
      std::string last_ident;
      for (size_t j = i + 1; j < toks.size(); ++j) {
        if (toks[j].ident) {
          last_ident = toks[j].text;
          continue;
        }
        const std::string& t = toks[j].text;
        if (t == "<") {
          ++depth;
        } else if (t == ">") {
          if (--depth == 0) {
            break;
          }
        } else if (t == "*" || t == "&") {
          to_pointer = true;
        } else if (t == ";") {
          break;
        }
      }
      const bool integer_target =
          last_ident == "uintptr_t" || last_ident == "intptr_t" ||
          last_ident == "size_t" || last_ident.rfind("uint", 0) == 0 ||
          last_ident.rfind("int", 0) == 0;
      if (!to_pointer && integer_target) {
        findings->push_back(
            {"pointer-key", path, toks[i].line + 1,
             "reinterpret_cast<" + last_ident +
                 "> launders a pointer address into an integer; addresses vary "
                 "run to run and must never feed keys, hashes, or ordering — use "
                 "a stable id, or annotate dn-lint: allow(pointer-key, <why the "
                 "value never affects simulation state>)"});
      }
    }
  }
}

// ---------------------------------------------------------------------------------
// Rules: audit-message, log-kv-key.

// Top-level comma positions (token indexes) between toks[open+1, close).
// Angle brackets are deliberately NOT tracked: in expression context `<` is
// almost always a comparison (`a <= b`), and template-argument commas inside a
// macro condition are far rarer than comparisons.
std::vector<size_t> TopLevelCommas(const std::vector<Tok>& toks, size_t open,
                                   size_t close) {
  std::vector<size_t> commas;
  int depth = 0;
  for (size_t j = open; j < close; ++j) {
    const std::string& t = toks[j].text;
    if (toks[j].ident) {
      continue;
    }
    if (t == "(" || t == "[" || t == "{") {
      ++depth;
    } else if (t == ")" || t == "]" || t == "}") {
      --depth;
    } else if (t == "," && depth == 1) {
      commas.push_back(j);
    }
  }
  return commas;
}

void CheckMacroContracts(const std::vector<Tok>& toks, const SourceText& src,
                         const std::string& path,
                         std::vector<LintFinding>* findings) {
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].ident || src.preproc[toks[i].line]) {
      continue;  // macro *definitions* are not call sites
    }
    const std::string& name = toks[i].text;
    const bool is_audit = name == "DUMBNET_ASSERT" || name == "DUMBNET_AUDIT";
    const bool is_logkv = name == "DN_LOG_KV";
    const bool is_kv = name == "Kv" && i > 0 && toks[i - 1].text == ".";
    if (!(is_audit || is_logkv || is_kv) || toks[i + 1].text != "(") {
      continue;
    }
    const size_t open = i + 1;
    const size_t close = MatchParen(toks, open);
    if (close == toks.size()) {
      continue;
    }
    const auto commas = TopLevelCommas(toks, open, close);
    if (is_audit) {
      if (commas.empty()) {
        findings->push_back({"audit-message", path, toks[i].line + 1,
                             name + " must carry a message: " + name +
                                 "(cond, \"what invariant failed and why it "
                                 "matters\")"});
        continue;
      }
      const std::string msg =
          Trim(RawBetween(src, toks[commas.front() + 1], toks[close]));
      if (msg.empty() || msg == "\"\"") {
        findings->push_back({"audit-message", path, toks[i].line + 1,
                             name + " message must be non-empty"});
      }
      continue;
    }
    // DN_LOG_KV(level, "event") / .Kv("key", value): the key argument must be a
    // lowercase.dot string literal.
    size_t key_begin;
    size_t key_end;
    if (is_logkv) {
      if (commas.empty()) {
        findings->push_back({"log-kv-key", path, toks[i].line + 1,
                             "DN_LOG_KV needs (level, \"event.name\")"});
        continue;
      }
      key_begin = commas.front() + 1;
      key_end = commas.size() > 1 ? commas[1] : close;
    } else {
      key_begin = open + 1;
      key_end = commas.empty() ? close : commas.front();
    }
    if (key_begin >= key_end) {
      continue;
    }
    const std::string key = Trim(RawBetween(src, toks[key_begin], toks[key_end]));
    if (key.size() < 2 || key.front() != '"' || key.back() != '"') {
      if (is_logkv) {
        findings->push_back({"log-kv-key", path, toks[i].line + 1,
                             "DN_LOG_KV event name must be a string literal"});
      }
      continue;  // .Kv with a computed key: out of scope for a token linter
    }
    const std::string inner = key.substr(1, key.size() - 2);
    if (!IsLowerDotKey(inner)) {
      findings->push_back(
          {"log-kv-key", path, toks[i].line + 1,
           std::string(is_logkv ? "DN_LOG_KV event" : ".Kv key") + " '" + inner +
               "' must be a lowercase.dot identifier ([a-z0-9_.])"});
    }
  }
}

// ---------------------------------------------------------------------------------
// Rules: hot-alloc, reactor-block. Flow-aware in the lexical sense: a
// DN_HOT_SCOPE(...) or DN_REACTOR_CONTEXT token opens a region reaching to the
// end of its enclosing brace block, and the rule fires on forbidden tokens
// inside it. What the region *calls into* is out of a token linter's sight —
// that half is covered by the runtime enforcement layer in
// src/analysis/contracts.cc (allocation interposer, nonblocking-fd guards).

// Allocation and container-growth identifiers forbidden in hot scopes. Method
// names only count in member-call position (after '.' or '->'); `new` always
// counts; make_shared/make_unique count in call or template position.
const std::set<std::string>& HotGrowthIdents() {
  static const std::set<std::string> kSet = {
      "push_back", "emplace_back", "emplace", "push_front", "emplace_front",
      "insert",    "resize",       "reserve", "append"};
  return kSet;
}

// Blocking calls forbidden in reactor context (call position required).
const std::set<std::string>& ReactorBlockingCalls() {
  static const std::set<std::string> kSet = {
      "read",    "write",   "pread",     "pwrite",    "readv",     "writev",
      "recv",    "recvfrom", "recvmsg",  "send",      "sendto",    "sendmsg",
      "connect", "accept",  "accept4",   "poll",      "ppoll",     "select",
      "pselect", "sleep",   "usleep",    "nanosleep", "sleep_for", "sleep_until",
      "wait",    "wait_for", "wait_until", "join",    "flock",     "fsync",
      "fdatasync", "system", "lock"};
  return kSet;
}

// Blocking lock types (template or constructor position).
const std::set<std::string>& ReactorBlockingTypes() {
  static const std::set<std::string> kSet = {"lock_guard", "unique_lock",
                                             "scoped_lock"};
  return kSet;
}

void CheckContractRegions(const std::vector<Tok>& toks, const SourceText& src,
                          const std::string& path,
                          std::vector<LintFinding>* findings) {
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].ident || src.preproc[toks[i].line]) {
      continue;  // the macro definitions in contracts.h are not regions
    }
    const bool hot = toks[i].text == "DN_HOT_SCOPE";
    const bool reactor = toks[i].text == "DN_REACTOR_CONTEXT";
    if (!hot && !reactor) {
      continue;
    }
    size_t j = i + 1;
    if (hot) {
      if (j >= toks.size() || toks[j].text != "(") {
        continue;
      }
      j = MatchParen(toks, j);
      if (j == toks.size()) {
        continue;
      }
      ++j;
    }
    // Walk to the end of the enclosing block, skipping DN_HOT_EXEMPT
    // sub-blocks (from the marker to the end of *its* enclosing block).
    int depth = 0;
    int exempt_until = -1;  // >= 0: skipping while depth >= exempt_until
    for (; j < toks.size(); ++j) {
      const Tok& t = toks[j];
      if (!t.ident) {
        if (t.text == "{") {
          ++depth;
        } else if (t.text == "}") {
          --depth;
          if (depth < 0) {
            break;  // region (and enclosing block) ended
          }
          if (exempt_until >= 0 && depth < exempt_until) {
            exempt_until = -1;
          }
        }
        continue;
      }
      if (src.preproc[t.line]) {
        continue;
      }
      if (hot && t.text == "DN_HOT_EXEMPT" && exempt_until < 0) {
        exempt_until = depth;
        continue;
      }
      if (exempt_until >= 0) {
        continue;
      }
      const bool call = j + 1 < toks.size() && toks[j + 1].text == "(";
      const bool call_or_tmpl =
          call || (j + 1 < toks.size() && toks[j + 1].text == "<");
      const bool member =
          j > 0 && (toks[j - 1].text == "." ||
                    (toks[j - 1].text == ">" && j > 1 && toks[j - 2].text == "-"));
      if (hot) {
        const bool is_new = t.text == "new";
        const bool is_maker =
            (t.text == "make_shared" || t.text == "make_unique") && call_or_tmpl;
        const bool is_growth = HotGrowthIdents().count(t.text) > 0 && call && member;
        if (is_new || is_maker || is_growth) {
          findings->push_back(
              {"hot-alloc", path, t.line + 1,
               "'" + t.text + "' inside DN_HOT_SCOPE region opened at line " +
                   std::to_string(toks[i].line + 1) +
                   ": the annotated fast path must not allocate; hoist the "
                   "allocation out, reuse capacity, or fence a declared-cold "
                   "subpath with a DN_HOT_EXEMPT(reason) block"});
        }
      } else {
        const bool is_block_call = ReactorBlockingCalls().count(t.text) > 0 && call;
        const bool is_block_type =
            ReactorBlockingTypes().count(t.text) > 0 && call_or_tmpl;
        if (is_block_call || is_block_type) {
          findings->push_back(
              {"reactor-block", path, t.line + 1,
               "'" + t.text + "' inside DN_REACTOR_CONTEXT region opened at line " +
                   std::to_string(toks[i].line + 1) +
                   ": blocking on the epoll thread stalls every timer and "
                   "socket the node owns; use the nonblocking contracts::Guarded* "
                   "shims, post the work off-thread, or annotate dn-lint: "
                   "allow(reactor-block, <why this cannot block>)"});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------------
// Rule: mutex-rank (deployment-runtime layers only). Every std::mutex member
// declared in src/wire or src/ctrl must carry a DN_MUTEX_RANK(name, rank)
// annotation in the same file, so the global lock order is total and the
// runtime inversion tracker (contracts.cc) sees every lock.

void CheckMutexRanks(const std::vector<Tok>& toks, const SourceText& src,
                     const std::string& path,
                     std::vector<LintFinding>* findings) {
  // Pass 1: names already annotated — DN_MUTEX_RANK(<name>, ...).
  std::set<std::string> ranked;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].ident && toks[i].text == "DN_MUTEX_RANK" &&
        !src.preproc[toks[i].line] && toks[i + 1].text == "(" &&
        toks[i + 2].ident) {
      ranked.insert(toks[i + 2].text);
    }
  }
  // Pass 2: declarations — `mutex <name> ;` (or brace/equals initializer).
  // References (`mutex&`), pointers, and template arguments (`<std::mutex>`)
  // never match because the token after `mutex` is not an identifier.
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!toks[i].ident || toks[i].text != "mutex" || src.preproc[toks[i].line]) {
      continue;
    }
    if (!toks[i + 1].ident) {
      continue;
    }
    const std::string& term = toks[i + 2].text;
    if (term != ";" && term != "{" && term != "=") {
      continue;
    }
    const std::string& name = toks[i + 1].text;
    if (ranked.count(name) > 0) {
      continue;
    }
    findings->push_back(
        {"mutex-rank", path, toks[i].line + 1,
         "std::mutex '" + name +
             "' in the deployment runtime has no declared lock rank; add "
             "DN_MUTEX_RANK(" + name +
             ", <rank>) after the member (global order lives in "
             "src/analysis/contracts.h) so the runtime inversion tracker "
             "covers it"});
  }
}

// ---------------------------------------------------------------------------------
// Rules: include-guard, using-namespace-header.

bool IsGuardName(const std::string& name) {
  if (name.size() < 3 || !EndsWith(name, "_H_")) {
    return false;
  }
  for (char c : name) {
    if (!(std::isupper(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  return true;
}

void CheckHeaderHygiene(const std::vector<Tok>& toks, const SourceText& src,
                        const std::string& path,
                        std::vector<LintFinding>* findings) {
  // Gather directives: (line, keyword, first argument token text).
  struct Directive {
    size_t line;
    std::string word;
    std::string arg;
  };
  std::vector<Directive> directives;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "#" || !toks[i + 1].ident || toks[i + 1].line != toks[i].line ||
        (i > 0 && toks[i - 1].line == toks[i].line)) {
      continue;
    }
    std::string arg;
    if (i + 2 < toks.size() && toks[i + 2].ident && toks[i + 2].line == toks[i].line) {
      arg = toks[i + 2].text;
    }
    directives.push_back({toks[i].line, toks[i + 1].text, arg});
  }
  if (directives.empty() || directives.front().word != "ifndef") {
    findings->push_back({"include-guard", path, 1,
                         "header must open with an #ifndef include guard"});
  } else {
    const Directive& g = directives.front();
    if (directives.size() < 2 || directives[1].word != "define" ||
        directives[1].arg != g.arg) {
      findings->push_back({"include-guard", path, g.line + 1,
                           "#ifndef " + g.arg + " must be followed by #define " +
                               g.arg});
    } else if (!IsGuardName(g.arg)) {
      findings->push_back({"include-guard", path, g.line + 1,
                           "guard '" + g.arg +
                               "' must be an UPPER_SNAKE name ending in _H_"});
    } else if (directives.back().word != "endif") {
      findings->push_back({"include-guard", path, directives.back().line + 1,
                           "include guard is never closed by a trailing #endif"});
    }
  }
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].ident && toks[i].text == "using" && toks[i + 1].ident &&
        toks[i + 1].text == "namespace" && !src.preproc[toks[i].line]) {
      findings->push_back({"using-namespace-header", path, toks[i].line + 1,
                           "'using namespace' in a header leaks into every "
                           "includer; qualify names instead"});
    }
  }
}

}  // namespace

const std::vector<std::string>& KnownLintRules() {
  static const std::vector<std::string> kRules = {
      "raw-random",    "wall-clock",             "unordered-iter",
      "pointer-key",   "audit-message",          "log-kv-key",
      "hot-alloc",     "reactor-block",          "mutex-rank",
      "include-guard", "using-namespace-header", "bad-suppression"};
  return kRules;
}

std::vector<LintFinding> LintSource(const std::string& path, const std::string& content,
                                    const std::string& companion_header,
                                    const LintOptions& options) {
  const std::string norm = NormalizeSlashes(path);
  const SourceText src = SplitAndBlank(content);
  const std::vector<Tok> toks = Tokenize(src);

  std::vector<LintFinding> raw_findings;
  Suppressions sup = ParseSuppressions(src, path, &raw_findings);

  bool determinism_exempt = false;
  for (const std::string& suffix : options.determinism_exempt_suffixes) {
    determinism_exempt = determinism_exempt || EndsWith(norm, suffix);
  }
  if (!determinism_exempt) {
    CheckDeterminism(toks, path, &raw_findings);
  }

  bool order_sensitive = false;
  for (const std::string& dir : options.order_sensitive_dirs) {
    order_sensitive = order_sensitive || norm.find(dir) != std::string::npos;
  }
  if (order_sensitive) {
    std::set<std::string> names;
    std::set<std::string> aliases;
    CollectUnorderedNames(toks, &names, &aliases);
    if (!companion_header.empty()) {
      const SourceText header_src = SplitAndBlank(companion_header);
      CollectUnorderedNames(Tokenize(header_src), &names, &aliases);
    }
    CheckUnorderedIteration(toks, names, aliases, path, &raw_findings);
    CheckPointerKeys(toks, path, &raw_findings);
  }

  CheckMacroContracts(toks, src, path, &raw_findings);
  CheckContractRegions(toks, src, path, &raw_findings);

  bool mutex_ranked = false;
  for (const std::string& dir : options.mutex_rank_dirs) {
    mutex_ranked = mutex_ranked || norm.find(dir) != std::string::npos;
  }
  if (mutex_ranked) {
    CheckMutexRanks(toks, src, path, &raw_findings);
  }

  if (EndsWith(norm, ".h")) {
    CheckHeaderHygiene(toks, src, path, &raw_findings);
  }

  std::vector<LintFinding> findings;
  for (LintFinding& f : raw_findings) {
    if (f.rule != "bad-suppression" && Suppressed(sup, f.rule, f.line - 1)) {
      continue;
    }
    findings.push_back(std::move(f));
  }
  std::sort(findings.begin(), findings.end(),
            [](const LintFinding& a, const LintFinding& b) {
              return std::tie(a.file, a.line, a.rule, a.detail) <
                     std::tie(b.file, b.line, b.rule, b.detail);
            });
  return findings;
}

std::vector<LintFinding> LintSource(const std::string& path, const std::string& content,
                                    const LintOptions& options) {
  return LintSource(path, content, /*companion_header=*/"", options);
}

std::vector<LintFinding> LintFile(const std::string& path, const LintOptions& options) {
  auto read = [](const std::string& p, std::string* out) {
    std::ifstream in(p);
    if (!in) {
      return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
  };
  std::string content;
  if (!read(path, &content)) {
    return {{"io-error", path, 0, "cannot read file"}};
  }
  std::string companion;
  const std::string norm = NormalizeSlashes(path);
  for (const char* ext : {".cc", ".cpp"}) {
    if (EndsWith(norm, ext)) {
      std::string header = norm.substr(0, norm.size() - std::strlen(ext)) + ".h";
      (void)read(header, &companion);
      break;
    }
  }
  return LintSource(path, content, companion, options);
}

std::string FormatLintFindings(const std::vector<LintFinding>& findings) {
  std::ostringstream os;
  for (const LintFinding& f : findings) {
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.detail << "\n";
  }
  return os.str();
}

std::string LintFindingsJson(const std::vector<LintFinding>& findings) {
  std::ostringstream os;
  os << "{\"count\":" << findings.size() << ",\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const LintFinding& f = findings[i];
    os << (i > 0 ? "," : "") << "{\"rule\":\"" << JsonEscape(f.rule) << "\",\"file\":\""
       << JsonEscape(f.file) << "\",\"line\":" << f.line << ",\"detail\":\""
       << JsonEscape(f.detail) << "\"}";
  }
  os << "]}";
  return os.str();
}

}  // namespace dumbnet
