#include "tools/srclint/srclint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/base/json.h"

namespace srclint {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// ---------------------------------------------------------------------------
// Escape-hatch pragmas
// ---------------------------------------------------------------------------

// Extracts every `srclint: allow(<rule>)[: <reason>]` from one comment.
// `first_line` is the line the comment starts on; newlines inside the
// comment advance the pragma's recorded line.
void CollectAllows(std::string_view comment, int first_line,
                   std::vector<AllowPragma>* out) {
  int line = first_line;
  size_t scanned = 0;
  while (true) {
    size_t at = comment.find("srclint:", scanned);
    if (at == std::string_view::npos) {
      return;
    }
    line += static_cast<int>(
        std::count(comment.begin() + scanned, comment.begin() + at, '\n'));
    scanned = at + 8;  // Past "srclint:".
    size_t pos = scanned;
    while (pos < comment.size() && comment[pos] == ' ') {
      ++pos;
    }
    if (comment.substr(pos, 6) != "allow(") {
      continue;  // Not a pragma ("srclint:" in prose); keep scanning.
    }
    pos += 6;
    size_t close = comment.find(')', pos);
    if (close == std::string_view::npos) {
      continue;
    }
    AllowPragma pragma;
    pragma.rule = std::string(comment.substr(pos, close - pos));
    pragma.line = line;
    pos = close + 1;
    while (pos < comment.size() && comment[pos] == ' ') {
      ++pos;
    }
    if (pos < comment.size() && comment[pos] == ':') {
      ++pos;
      // Reason runs to end of comment line; comment decorations like a
      // leading "// " on continuation lines stay part of the reason text,
      // which only needs to be non-empty and human-readable.
      size_t eol = comment.find('\n', pos);
      std::string_view reason = comment.substr(
          pos, eol == std::string_view::npos ? comment.size() - pos
                                             : eol - pos);
      while (!reason.empty() && reason.front() == ' ') {
        reason.remove_prefix(1);
      }
      while (!reason.empty() &&
             (reason.back() == ' ' || reason.back() == '\r')) {
        reason.remove_suffix(1);
      }
      pragma.reason = std::string(reason);
    }
    out->push_back(std::move(pragma));
    scanned = pos;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Tokenizer (the text_lexer.h idiom, extended to C++ surface syntax)
// ---------------------------------------------------------------------------

ScannedFile Tokenize(std::string_view text) {
  ScannedFile scan;
  size_t pos = 0;
  int line = 1;
  bool at_line_start = true;  // Only whitespace seen since the last newline.

  auto advance = [&](size_t n) {
    for (size_t i = 0; i < n && pos < text.size(); ++i) {
      if (text[pos] == '\n') {
        ++line;
        at_line_start = true;
      }
      ++pos;
    }
  };

  while (pos < text.size()) {
    const char c = text[pos];

    // Whitespace.
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }

    // Line comment.
    if (c == '/' && pos + 1 < text.size() && text[pos + 1] == '/') {
      size_t end = text.find('\n', pos);
      if (end == std::string_view::npos) {
        end = text.size();
      }
      CollectAllows(text.substr(pos, end - pos), line, &scan.allows);
      advance(end - pos);
      continue;
    }

    // Block comment.
    if (c == '/' && pos + 1 < text.size() && text[pos + 1] == '*') {
      size_t end = text.find("*/", pos + 2);
      if (end == std::string_view::npos) {
        end = text.size();
      } else {
        end += 2;
      }
      CollectAllows(text.substr(pos, end - pos), line, &scan.allows);
      advance(end - pos);
      continue;
    }

    // Preprocessor directive: '#' first on its line; honors backslash
    // continuations. Collapsed into one token holding the full text.
    if (c == '#' && at_line_start) {
      Token token{TokenKind::kPreprocessor, "", line};
      size_t end = pos;
      while (end < text.size()) {
        size_t eol = text.find('\n', end);
        if (eol == std::string_view::npos) {
          eol = text.size();
        }
        size_t last = eol;
        while (last > end &&
               (text[last - 1] == '\r' || text[last - 1] == ' ')) {
          --last;
        }
        if (last > end && text[last - 1] == '\\') {
          end = eol + 1;  // Continuation: keep consuming.
          continue;
        }
        end = eol;
        break;
      }
      token.text = std::string(text.substr(pos, end - pos));
      scan.tokens.push_back(std::move(token));
      advance(end - pos);
      continue;
    }
    at_line_start = false;

    // String / char literal (with escapes).
    if (c == '"' || c == '\'') {
      // Raw string: the lexer below folds prefixes like R/u8R into the
      // preceding identifier token, so a quote right after such an
      // identifier is handled there; a bare '"' here is always cooked.
      Token token{TokenKind::kString, std::string(1, c), line};
      size_t end = pos + 1;
      while (end < text.size() && text[end] != c) {
        if (text[end] == '\\' && end + 1 < text.size()) {
          ++end;
        }
        ++end;
      }
      if (end < text.size()) {
        ++end;  // Closing quote.
      }
      token.text = std::string(text.substr(pos, end - pos));
      scan.tokens.push_back(std::move(token));
      advance(end - pos);
      continue;
    }

    // Identifier (or raw-string prefix).
    if (IsIdentStart(c)) {
      size_t end = pos;
      while (end < text.size() && IsIdentChar(text[end])) {
        ++end;
      }
      std::string ident(text.substr(pos, end - pos));
      const bool raw_prefix =
          (ident == "R" || ident == "LR" || ident == "uR" || ident == "UR" ||
           ident == "u8R") &&
          end < text.size() && text[end] == '"';
      if (raw_prefix) {
        // R"delim( ... )delim"
        size_t open = text.find('(', end);
        std::string delim =
            open == std::string_view::npos
                ? std::string()
                : std::string(text.substr(end + 1, open - end - 1));
        std::string closer = ")" + delim + "\"";
        size_t close = open == std::string_view::npos
                           ? std::string_view::npos
                           : text.find(closer, open + 1);
        size_t stop = close == std::string_view::npos
                          ? text.size()
                          : close + closer.size();
        scan.tokens.push_back(Token{
            TokenKind::kString, std::string(text.substr(pos, stop - pos)),
            line});
        advance(stop - pos);
        continue;
      }
      scan.tokens.push_back(Token{TokenKind::kIdentifier, std::move(ident),
                                  line});
      advance(end - pos);
      continue;
    }

    // Number (loose: digits, digit separators, hex/float spellings).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t end = pos;
      while (end < text.size() &&
             (IsIdentChar(text[end]) || text[end] == '.' ||
              (text[end] == '\'' && end + 1 < text.size() &&
               IsIdentChar(text[end + 1])))) {
        ++end;
      }
      scan.tokens.push_back(Token{TokenKind::kNumber,
                                  std::string(text.substr(pos, end - pos)),
                                  line});
      advance(end - pos);
      continue;
    }

    // Everything else: one punctuation character per token.
    scan.tokens.push_back(Token{TokenKind::kPunct, std::string(1, c), line});
    advance(1);
  }
  return scan;
}

// ---------------------------------------------------------------------------
// Rule machinery
// ---------------------------------------------------------------------------

namespace {

// The declarative layering table for src/. `allowed` lists the OTHER
// src/ directories a file in `dir` may include (its own directory is
// always allowed). This is the source-level twin of the CMake link
// layering in src/CMakeLists.txt: crsat_core at the bottom, the oracle
// beside (not atop) the production stack, and only the differential
// driver (exempt below) allowed to see both worlds.
struct LayerRule {
  const char* dir;
  const char* allowed;  // Space-separated directory names.
};

constexpr LayerRule kLayering[] = {
    {"base", ""},
    {"math", "base"},
    {"cr", "base math"},
    {"generator", "base math cr"},
    {"analysis", "base math cr"},
    {"flow", "base math"},
    {"lp", "base math"},
    {"expansion", "base math cr"},
    // The reasoner may ask the Lenzerini-Nobili baseline first (check's
    // and the unsat-core probes' ISA-free fast path); the baseline itself
    // needs only the LP layer's acceptable-support fixpoint.
    {"reasoner", "base math cr lp expansion witness baseline"},
    {"witness", "base math cr lp flow expansion reasoner"},
    {"baseline", "base math cr lp"},
    // The conformance ground truth: bare CR semantics only. Including
    // expansion/, lp/, or flow/ here would let the system under test
    // leak into its own oracle (see src/CMakeLists.txt layering).
    {"oracle", "base math cr generator"},
    // The graph-saturation witness engine: the harness's third voice.
    // Like the oracle it votes against the reasoner, so it may see only
    // the bare CR semantics — an lp/ or reasoner/ include would let the
    // engines share a bug and hollow out the vote.
    {"saturation", "base cr"},
    // The verbs crsat_cli and crsatd share: a layer over the production
    // stack that nothing below it may include.
    {"commands", "base math cr analysis expansion lp flow reasoner witness "
                 "baseline"},
    // The crsatd daemon: a leaf over the whole production stack. The
    // reverse direction — reasoning code including server/ — is the
    // server-layering rule below.
    {"server", "base math cr analysis expansion lp flow reasoner witness "
               "baseline commands"},
};

// Files exempt from the layering rule: the public umbrella header and
// the differential driver, which by design sees both worlds.
bool LayeringExempt(const std::string& path) {
  return path == "src/crsat.h" || path == "src/oracle/conformance.h" ||
         path == "src/oracle/conformance.cc";
}

// Directories whose .cc files must thread a ResourceGuard through loops.
constexpr const char* kGuardedDirs[] = {"expansion", "lp", "flow", "witness",
                                        "saturation"};

// Directories holding exact-arithmetic tiers where double/float are
// banned (a single rounding would turn a proof into a guess).
constexpr const char* kExactDirs[] = {"lp", "math"};

// Escape-hatch rules a `srclint: allow(...)` pragma may name.
constexpr const char* kAllowableRules[] = {"unguarded-loop", "float-arith"};

// "src/lp/simplex.cc" -> "lp"; "src/crsat.h" -> ""; non-src -> "".
std::string SrcDirOf(const std::string& path) {
  if (path.rfind("src/", 0) != 0) {
    return "";
  }
  size_t slash = path.find('/', 4);
  if (slash == std::string::npos) {
    return "";
  }
  return path.substr(4, slash - 4);
}

bool InList(const std::string& needle, const char* space_separated) {
  std::istringstream stream(space_separated);
  std::string word;
  while (stream >> word) {
    if (word == needle) {
      return true;
    }
  }
  return false;
}

bool HasAllow(const ScannedFile& scan, const std::string& rule) {
  for (const AllowPragma& pragma : scan.allows) {
    if (pragma.rule == rule && !pragma.reason.empty()) {
      return true;
    }
  }
  return false;
}

// Extracts the include target from a `#include` directive, or "".
std::string IncludeTarget(const std::string& directive) {
  size_t pos = directive.find_first_not_of(" \t", 1);  // Past '#'.
  if (pos == std::string::npos ||
      directive.compare(pos, 7, "include") != 0) {
    return "";
  }
  size_t open = directive.find_first_of("\"<", pos + 7);
  if (open == std::string::npos) {
    return "";
  }
  const char close = directive[open] == '"' ? '"' : '>';
  size_t end = directive.find(close, open + 1);
  if (end == std::string::npos) {
    return "";
  }
  return directive.substr(open + 1, end - open - 1);
}

void Emit(std::vector<Finding>* findings, const std::string& file, int line,
          const char* rule, std::string message) {
  findings->push_back(Finding{file, line, rule, std::move(message)});
}

// --- Rule: include-layering -----------------------------------------------

void CheckLayering(const std::string& path, const ScannedFile& scan,
                   std::vector<Finding>* findings) {
  if (LayeringExempt(path)) {
    return;
  }
  const std::string dir = SrcDirOf(path);
  if (dir.empty()) {
    return;
  }
  const LayerRule* rule = nullptr;
  for (const LayerRule& candidate : kLayering) {
    if (dir == candidate.dir) {
      rule = &candidate;
      break;
    }
  }
  for (const Token& token : scan.tokens) {
    if (token.kind != TokenKind::kPreprocessor) {
      continue;
    }
    const std::string target = IncludeTarget(token.text);
    const std::string target_dir = SrcDirOf(target);
    if (target_dir.empty() || target_dir == dir) {
      continue;  // System header, src/-root header, or own directory.
    }
    if (rule == nullptr) {
      Emit(findings, path, token.line, "include-layering",
           "directory src/" + dir +
               "/ is missing from the layering table in "
               "tools/srclint/srclint.cc; add it before including \"" +
               target + "\"");
      return;
    }
    if (!InList(target_dir, rule->allowed)) {
      Emit(findings, path, token.line, "include-layering",
           "src/" + dir + "/ may not include \"" + target + "\" (allowed: " +
               (rule->allowed[0] == '\0' ? "only src/" + dir + "/"
                                         : std::string(rule->allowed)) +
               "); see the layering table in tools/srclint/srclint.cc");
    }
  }
}

// --- Rule: server-layering ------------------------------------------------

// src/server/ (the crsatd daemon, src/server/server.h) is a strict leaf:
// no other src/ directory may include it, with no exemptions — not even
// the files the include-layering rule exempts (src/crsat.h stays a
// library umbrella; the differential driver cross-checks reasoners, not
// daemons). A reverse edge would drag sockets and the scheduler into the
// embeddable reasoning core and invert the CMake link order
// (crsat_server links crsat, never the other way).
void CheckServerLayering(const std::string& path, const ScannedFile& scan,
                         std::vector<Finding>* findings) {
  if (path.rfind("src/", 0) != 0 || SrcDirOf(path) == "server") {
    return;
  }
  for (const Token& token : scan.tokens) {
    if (token.kind != TokenKind::kPreprocessor) {
      continue;
    }
    const std::string target = IncludeTarget(token.text);
    if (SrcDirOf(target) == "server") {
      Emit(findings, path, token.line, "server-layering",
           "src/server/ is a leaf layer: \"" + target +
               "\" may not be included from " + path +
               " — the reasoning core must stay embeddable without the "
               "daemon (link order: crsat_server -> crsat, never back)");
    }
  }
}

// --- Rule: saturation-layering --------------------------------------------

// src/saturation/ (the graph-saturation witness engine) is the third
// independent voice in the differential harness, and its entire value is
// that independence. The include-layering table above keeps its own
// includes down to bare CR semantics; this rule enforces the reverse
// direction: no production code may include it. Only the differential
// driver and the public umbrella (the include-layering exemptions) may
// see it — a reasoner/ or lp/ edge into saturation/ would let the
// system under test borrow its cross-check's logic, so the two could
// share a bug and the three-way vote would quietly become a two-way one
// (link order: crsat_conformance -> crsat_saturation, never into crsat).
void CheckSaturationLayering(const std::string& path, const ScannedFile& scan,
                             std::vector<Finding>* findings) {
  if (path.rfind("src/", 0) != 0 || SrcDirOf(path) == "saturation" ||
      LayeringExempt(path)) {
    return;
  }
  for (const Token& token : scan.tokens) {
    if (token.kind != TokenKind::kPreprocessor) {
      continue;
    }
    const std::string target = IncludeTarget(token.text);
    if (SrcDirOf(target) == "saturation") {
      Emit(findings, path, token.line, "saturation-layering",
           "src/saturation/ is an independent witness engine: \"" + target +
               "\" may only be included by the differential driver "
               "(src/oracle/conformance.*) and the umbrella header — a "
               "production edge into the engine would let the system under "
               "test share bugs with its own cross-check");
    }
  }
}

// --- Rule: unguarded-loop -------------------------------------------------

void CheckUnguardedLoops(const std::string& path, const ScannedFile& scan,
                         std::vector<Finding>* findings) {
  const std::string dir = SrcDirOf(path);
  bool applies = path.size() > 3 &&
                 path.compare(path.size() - 3, 3, ".cc") == 0;
  applies = applies && std::any_of(std::begin(kGuardedDirs),
                                   std::end(kGuardedDirs),
                                   [&](const char* d) { return dir == d; });
  if (!applies || HasAllow(scan, "unguarded-loop")) {
    return;
  }
  int first_loop_line = 0;
  bool references_guard = false;
  for (size_t i = 0; i < scan.tokens.size(); ++i) {
    const Token& token = scan.tokens[i];
    if (token.kind != TokenKind::kIdentifier) {
      continue;
    }
    if (first_loop_line == 0 && (token.text == "for" || token.text == "while") &&
        i + 1 < scan.tokens.size() && scan.tokens[i + 1].kind == TokenKind::kPunct &&
        scan.tokens[i + 1].text == "(") {
      first_loop_line = token.line;
    }
    if (token.text == "ResourceGuard" || token.text == "guard" ||
        token.text == "guard_") {
      references_guard = true;
    }
  }
  if (first_loop_line != 0 && !references_guard) {
    Emit(findings, path, first_loop_line, "unguarded-loop",
         "loop in src/" + dir +
             "/ without any ResourceGuard reference: hot paths must be "
             "resource-bounded (DESIGN.md §9); thread a guard through, or "
             "explain why the loops are bounded with "
             "`// srclint: allow(unguarded-loop): <reason>`");
  }
}

// --- Rule: banned-construct -----------------------------------------------

void CheckBannedConstructs(const std::string& path, const ScannedFile& scan,
                           std::vector<Finding>* findings) {
  const std::string dir = SrcDirOf(path);
  const bool exact_tier =
      std::any_of(std::begin(kExactDirs), std::end(kExactDirs),
                  [&](const char* d) { return dir == d; });
  const bool float_allowed = HasAllow(scan, "float-arith");
  const std::vector<Token>& tokens = scan.tokens;

  auto is_punct = [&](size_t i, const char* p) {
    return i < tokens.size() && tokens[i].kind == TokenKind::kPunct &&
           tokens[i].text == p;
  };
  auto is_ident = [&](size_t i, const char* name) {
    return i < tokens.size() && tokens[i].kind == TokenKind::kIdentifier &&
           tokens[i].text == name;
  };
  // True when the identifier at `i` is reached through a member or
  // namespace qualifier (`.x`, `->x`, `ns::x`).
  auto qualified = [&](size_t i) {
    if (i == 0) {
      return false;
    }
    return is_punct(i - 1, ".") || is_punct(i - 1, ":") ||
           (i >= 2 && is_punct(i - 1, ">") && is_punct(i - 2, "-"));
  };

  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != TokenKind::kIdentifier) {
      continue;
    }

    // std::rand / unqualified rand(.
    if (token.text == "rand" && is_punct(i + 1, "(")) {
      bool std_qualified = i >= 3 && is_punct(i - 1, ":") &&
                           is_punct(i - 2, ":") && is_ident(i - 3, "std");
      if (std_qualified || !qualified(i)) {
        Emit(findings, path, token.line, "banned-construct",
             "std::rand is non-reentrant and implementation-defined; use "
             "DeterministicRng (src/base/deterministic.h)");
      }
    }

    // Argless time(): time(), time(0), time(NULL), time(nullptr).
    if (token.text == "time" && is_punct(i + 1, "(") && !qualified(i)) {
      const bool argless =
          is_punct(i + 2, ")") ||
          ((is_ident(i + 2, "NULL") || is_ident(i + 2, "nullptr") ||
            (i + 2 < tokens.size() &&
             tokens[i + 2].kind == TokenKind::kNumber &&
             tokens[i + 2].text == "0")) &&
           is_punct(i + 3, ")"));
      if (argless) {
        Emit(findings, path, token.line, "banned-construct",
             "argless time() makes runs non-reproducible; take a "
             "std::chrono clock or a ResourceGuard deadline instead");
      }
    }

    // Raw new[]: `new` followed by a type spelling then '['.
    if (token.text == "new" && !qualified(i)) {
      for (size_t j = i + 1; j < tokens.size(); ++j) {
        const Token& t = tokens[j];
        const bool type_spelling =
            t.kind == TokenKind::kIdentifier || t.kind == TokenKind::kNumber ||
            (t.kind == TokenKind::kPunct &&
             (t.text == ":" || t.text == "<" || t.text == ">" ||
              t.text == "," || t.text == "*"));
        if (!type_spelling) {
          if (t.kind == TokenKind::kPunct && t.text == "[") {
            Emit(findings, path, token.line, "banned-construct",
                 "raw new[] has no owner; use std::vector or "
                 "std::make_unique<T[]>");
          }
          break;
        }
      }
    }

    // double/float arithmetic inside the exact tiers.
    if (exact_tier && !float_allowed &&
        (token.text == "double" || token.text == "float")) {
      Emit(findings, path, token.line, "banned-construct",
           "`" + token.text + "` inside src/" + dir +
               "/ (exact arithmetic tier): one rounding turns an "
               "infeasibility proof into a guess; use Rational / "
               "SmallRational, or justify with "
               "`// srclint: allow(float-arith): <reason>`");
    }
  }
}

// --- Rule: certify-non-bypass ---------------------------------------------

void CheckCertifyNonBypass(const std::string& path, const ScannedFile& scan,
                           std::vector<Finding>* findings) {
  if (path.rfind("src/witness/certify.", 0) == 0) {
    return;  // The one home of the class.
  }
  const bool in_witness_pipeline = path.rfind("src/witness/", 0) == 0;
  const std::vector<Token>& tokens = scan.tokens;
  auto is_punct = [&](size_t i, const char* p) {
    return i < tokens.size() && tokens[i].kind == TokenKind::kPunct &&
           tokens[i].text == p;
  };
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokenKind::kIdentifier ||
        tokens[i].text != "CertifiedWitness") {
      continue;
    }
    const int line = tokens[i].line;
    if (i > 0 && tokens[i - 1].kind == TokenKind::kIdentifier &&
        (tokens[i - 1].text == "class" || tokens[i - 1].text == "struct")) {
      Emit(findings, path, line, "certify-non-bypass",
           "CertifiedWitness may only be defined (or forward-declared) in "
           "src/witness/certify.h — include it instead");
      continue;
    }
    bool befriended = false;
    for (size_t back = 1; back <= 3 && back <= i; ++back) {
      if (tokens[i - back].kind == TokenKind::kIdentifier &&
          tokens[i - back].text == "friend") {
        befriended = true;
      }
    }
    if (befriended) {
      Emit(findings, path, line, "certify-non-bypass",
           "befriending CertifiedWitness would bypass the "
           "private-constructor guarantee (only ModelChecker-certified "
           "interpretations become witnesses)");
      continue;
    }
    if (is_punct(i + 1, "(")) {
      Emit(findings, path, line, "certify-non-bypass",
           "direct construction of CertifiedWitness outside "
           "src/witness/certify.*: the only factory is "
           "CertifiedWitness::Certify, which runs ModelChecker");
      continue;
    }
    if (!in_witness_pipeline && is_punct(i + 1, ":") && is_punct(i + 2, ":") &&
        i + 3 < tokens.size() && tokens[i + 3].kind == TokenKind::kIdentifier &&
        tokens[i + 3].text == "Certify") {
      Emit(findings, path, line, "certify-non-bypass",
           "CertifiedWitness::Certify may only be invoked from the witness "
           "pipeline (src/witness/); call WitnessSynthesizer instead");
    }
  }
}

// --- Rule: dual-pivot-guard -----------------------------------------------

// The dual-simplex warm-start repair pivots BEFORE phase 1's guard-polled
// main loop is reachable, so every definition of RepairPrimalFeasibility
// in src/lp/ must carry its own bound: a ResourceGuard poll under the
// "simplex/dual_pivot" key and an explicit pivot cap (`max_pivots`). A
// refactor that drops either turns a rejected carried basis into a
// potential hang — the repair loop is the one place where an adversarial
// warm start controls the iteration count.
void CheckDualPivotGuard(const std::string& path, const ScannedFile& scan,
                         std::vector<Finding>* findings) {
  if (SrcDirOf(path) != "lp") {
    return;
  }
  const std::vector<Token>& tokens = scan.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokenKind::kIdentifier ||
        tokens[i].text != "RepairPrimalFeasibility") {
      continue;
    }
    // Find a definition: parameter list, optional trailing specifiers,
    // then '{'. Declarations and call sites end in ';' or ',' instead.
    size_t j = i + 1;
    if (j >= tokens.size() || tokens[j].kind != TokenKind::kPunct ||
        tokens[j].text != "(") {
      continue;
    }
    int parens = 0;
    while (j < tokens.size()) {
      if (tokens[j].kind == TokenKind::kPunct) {
        if (tokens[j].text == "(") {
          ++parens;
        } else if (tokens[j].text == ")" && --parens == 0) {
          break;
        }
      }
      ++j;
    }
    ++j;
    while (j < tokens.size() && tokens[j].kind == TokenKind::kIdentifier) {
      ++j;  // const, noexcept, ...
    }
    if (j >= tokens.size() || tokens[j].kind != TokenKind::kPunct ||
        tokens[j].text != "{") {
      continue;
    }
    bool polled = false;
    bool capped = false;
    int depth = 0;
    for (; j < tokens.size(); ++j) {
      const Token& t = tokens[j];
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "{") {
          ++depth;
        } else if (t.text == "}" && --depth == 0) {
          break;
        }
      } else if (t.kind == TokenKind::kString &&
                 t.text.find("simplex/dual_pivot") != std::string::npos) {
        polled = true;
      } else if (t.kind == TokenKind::kIdentifier &&
                 t.text == "max_pivots") {
        capped = true;
      }
    }
    if (!polled) {
      Emit(findings, path, tokens[i].line, "dual-pivot-guard",
           "RepairPrimalFeasibility (the dual-simplex repair loop) must "
           "poll the ResourceGuard under the \"simplex/dual_pivot\" key on "
           "every pivot: it runs before phase 1's polled loop, so without "
           "its own poll an adversarial carried basis pivots unbounded");
    }
    if (!capped) {
      Emit(findings, path, tokens[i].line, "dual-pivot-guard",
           "RepairPrimalFeasibility must enforce an explicit pivot cap "
           "(`max_pivots`): dual repair is an acceleration and must reject "
           "the carried basis and fall back to cold phase 1 instead of "
           "grinding");
    }
    i = j;
  }
}

// --- Rule: failpoint-hygiene ----------------------------------------------

// Mirror of the registry in src/base/failpoint.cc (kept sorted). The
// drift-guard test in tests/srclint_test.cc parses the real registry out
// of that file and asserts set equality with this table, so adding a
// failpoint without updating the mirror fails tier 1.
constexpr const char* kFailpointRegistry[] = {
    "alloc/expansion",
    "alloc/simplex",
    "guard/trip",
    "incremental/force_cold",
    "lp/dual_repair_abort",
    "lp/fast_tier_overflow",
    "lp/support_cover_fail",
    "lp/warm_start_reject",
    "saturation/expand",
    "saturation/materialize",
    "server/accept",
    "server/queue-full",
    "server/short-read",
    "witness/force_flow_refine",
    "witness/force_rescale",
};

// A failpoint that never fires because its id was typo'd (or computed at
// runtime, defeating the static check entirely) is a silent hole in the
// chaos sweep's coverage: the degradation path it was meant to exercise
// goes untested while the sweep still reports green. And the oracle side
// of the differential harness must stay fault-free — a fault injected
// into the ground truth makes "faulted run agrees with baseline"
// meaningless — so src/oracle/ may contain no sites at all (the chaos
// driver arms faults through the registry API, not the macro).
void CheckFailpointHygiene(const std::string& path, const ScannedFile& scan,
                           std::vector<Finding>* findings) {
  if (path == "src/base/failpoint.h" || path == "src/base/failpoint.cc") {
    return;  // The macro's and registry's own home.
  }
  const bool in_oracle = path.rfind("src/oracle/", 0) == 0;
  const std::vector<Token>& tokens = scan.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokenKind::kIdentifier ||
        tokens[i].text != "CRSAT_FAILPOINT") {
      continue;
    }
    const int line = tokens[i].line;
    if (in_oracle) {
      Emit(findings, path, line, "failpoint-hygiene",
           "CRSAT_FAILPOINT site in src/oracle/: the conformance ground "
           "truth must stay fault-free (arm faults through the registry "
           "API from the chaos driver instead)");
      continue;
    }
    if (i + 1 >= tokens.size() || tokens[i + 1].kind != TokenKind::kPunct ||
        tokens[i + 1].text != "(") {
      continue;  // A mention, not a call site.
    }
    const bool literal_arg = i + 2 < tokens.size() &&
                             tokens[i + 2].kind == TokenKind::kString &&
                             tokens[i + 2].text.size() >= 2 &&
                             tokens[i + 2].text.front() == '"';
    if (!literal_arg) {
      Emit(findings, path, line, "failpoint-hygiene",
           "CRSAT_FAILPOINT argument must be a string literal so the id "
           "is statically checkable against the registry in "
           "src/base/failpoint.cc");
      continue;
    }
    const std::string id =
        tokens[i + 2].text.substr(1, tokens[i + 2].text.size() - 2);
    const bool registered =
        std::any_of(std::begin(kFailpointRegistry),
                    std::end(kFailpointRegistry),
                    [&](const char* r) { return id == r; });
    if (!registered) {
      Emit(findings, path, line, "failpoint-hygiene",
           "CRSAT_FAILPOINT(\"" + id +
               "\") names an unregistered id — it can never fire and "
               "silently exempts this seam from the chaos sweep; register "
               "it in src/base/failpoint.cc (and mirror it in "
               "tools/srclint/srclint.cc)");
    }
  }
}

// --- Rule: bad-allow ------------------------------------------------------

void CheckAllowPragmas(const std::string& path, const ScannedFile& scan,
                       std::vector<Finding>* findings) {
  for (const AllowPragma& pragma : scan.allows) {
    const bool known =
        std::any_of(std::begin(kAllowableRules), std::end(kAllowableRules),
                    [&](const char* r) { return pragma.rule == r; });
    if (!known) {
      Emit(findings, path, pragma.line, "bad-allow",
           "unknown escape-hatch rule '" + pragma.rule +
               "' (allowed: unguarded-loop, float-arith)");
    } else if (pragma.reason.empty()) {
      Emit(findings, path, pragma.line, "bad-allow",
           "escape hatch allow(" + pragma.rule +
               ") requires a reason: `// srclint: allow(" + pragma.rule +
               "): <why this is safe>` — a hatch without a rationale is "
               "denied");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

std::vector<Finding> CheckSource(const std::string& path,
                                 std::string_view content) {
  std::vector<Finding> findings;
  const ScannedFile scan = Tokenize(content);
  CheckLayering(path, scan, &findings);
  CheckServerLayering(path, scan, &findings);
  CheckSaturationLayering(path, scan, &findings);
  CheckUnguardedLoops(path, scan, &findings);
  CheckBannedConstructs(path, scan, &findings);
  CheckCertifyNonBypass(path, scan, &findings);
  CheckDualPivotGuard(path, scan, &findings);
  CheckFailpointHygiene(path, scan, &findings);
  CheckAllowPragmas(path, scan, &findings);
  return findings;
}

const std::vector<std::string>& FailpointRegistry() {
  static const std::vector<std::string>* ids = [] {
    return new std::vector<std::string>(std::begin(kFailpointRegistry),
                                        std::end(kFailpointRegistry));
  }();
  return *ids;
}

std::vector<Finding> CheckTree(const std::string& repo_root,
                               std::vector<std::string>* scanned) {
  namespace fs = std::filesystem;
  std::vector<Finding> findings;
  const fs::path src_root = fs::path(repo_root) / "src";
  std::error_code ec;
  if (!fs::is_directory(src_root, ec)) {
    findings.push_back(Finding{src_root.generic_string(), 1, "io-error",
                               "not a directory (pass the repo root via "
                               "--root)"});
    return findings;
  }
  std::vector<std::string> files;
  for (fs::recursive_directory_iterator it(src_root, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file()) {
      continue;
    }
    const std::string ext = it->path().extension().string();
    if (ext == ".h" || ext == ".cc") {
      files.push_back(
          fs::relative(it->path(), repo_root, ec).generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  for (const std::string& file : files) {
    std::ifstream in(fs::path(repo_root) / file, std::ios::binary);
    if (!in) {
      findings.push_back(Finding{file, 1, "io-error", "unreadable file"});
      continue;
    }
    std::ostringstream content;
    content << in.rdbuf();
    std::vector<Finding> file_findings = CheckSource(file, content.str());
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
    if (scanned != nullptr) {
      scanned->push_back(file);
    }
  }
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.file != b.file ? a.file < b.file
                                             : a.line < b.line;
                   });
  return findings;
}

std::string FindingsToText(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& finding : findings) {
    out += finding.file + ":" + std::to_string(finding.line) + ": [" +
           finding.rule + "] " + finding.message + "\n";
  }
  return out;
}

std::string FindingsToJson(const std::vector<Finding>& findings) {
  std::string out = "{\"findings\": [";
  bool first = true;
  for (const Finding& finding : findings) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += "{\"file\": \"" + crsat::JsonEscape(finding.file) +
           "\", \"line\": " + std::to_string(finding.line) + ", \"rule\": \"" +
           crsat::JsonEscape(finding.rule) + "\", \"message\": \"" +
           crsat::JsonEscape(finding.message) + "\"}";
  }
  out += "], \"count\": " + std::to_string(findings.size()) + "}";
  return out;
}

}  // namespace srclint
