// Tests for tools/srclint: tokenizer behavior, every rule family against
// a violating and a clean fixture tree (tools/srclint/testdata/), the
// escape-hatch policy, and a mutation-style end-to-end check that plants
// a forbidden include into a copy of a real oracle file and expects the
// scan (library and CLI binary both) to turn red.

#include "tools/srclint/srclint.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace {

namespace fs = std::filesystem;
using srclint::CheckSource;
using srclint::CheckTree;
using srclint::Finding;
using srclint::ScannedFile;
using srclint::Token;
using srclint::TokenKind;
using srclint::Tokenize;

std::string Testdata(const std::string& tree) {
  return std::string(CRSAT_SOURCE_DIR) + "/tools/srclint/testdata/" + tree;
}

std::set<std::string> Rules(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const Finding& finding : findings) {
    rules.insert(finding.rule);
  }
  return rules;
}

// --- Tokenizer ------------------------------------------------------------

TEST(SrclintTokenizerTest, CommentsAreNotTokensButYieldPragmas) {
  ScannedFile scan = Tokenize(
      "// srclint: allow(unguarded-loop): bounded by construction\n"
      "int x; /* srclint: allow(float-arith): fixture */\n");
  ASSERT_EQ(scan.allows.size(), 2u);
  EXPECT_EQ(scan.allows[0].rule, "unguarded-loop");
  EXPECT_EQ(scan.allows[0].reason, "bounded by construction");
  EXPECT_EQ(scan.allows[0].line, 1);
  EXPECT_EQ(scan.allows[1].rule, "float-arith");
  EXPECT_EQ(scan.allows[1].line, 2);
  // Only `int` and `x` and `;` survive as tokens.
  ASSERT_EQ(scan.tokens.size(), 3u);
  EXPECT_EQ(scan.tokens[0].text, "int");
  EXPECT_EQ(scan.tokens[2].kind, TokenKind::kPunct);
}

TEST(SrclintTokenizerTest, PragmaWithoutReasonHasEmptyReason) {
  ScannedFile scan = Tokenize("// srclint: allow(unguarded-loop)\n");
  ASSERT_EQ(scan.allows.size(), 1u);
  EXPECT_EQ(scan.allows[0].reason, "");
}

TEST(SrclintTokenizerTest, StringContentsDoNotLeakTokens) {
  ScannedFile scan = Tokenize(
      "const char* s = \"for (std::rand) while\";\n"
      "const char* r = R\"(new int[3] for while)\";\n"
      "char c = '\\'';\n");
  for (const Token& token : scan.tokens) {
    EXPECT_NE(token.text, "for") << "loop keyword leaked from a literal";
    EXPECT_NE(token.text, "rand");
    EXPECT_NE(token.text, "new");
  }
}

TEST(SrclintTokenizerTest, PreprocessorDirectiveIsOneTokenWithContinuation) {
  ScannedFile scan = Tokenize(
      "#define PLUS(a, b) \\\n  ((a) + (b))\n"
      "#include \"src/base/status.h\"\n"
      "int y;\n");
  ASSERT_GE(scan.tokens.size(), 2u);
  EXPECT_EQ(scan.tokens[0].kind, TokenKind::kPreprocessor);
  EXPECT_NE(scan.tokens[0].text.find("(a) + (b)"), std::string::npos);
  EXPECT_EQ(scan.tokens[1].kind, TokenKind::kPreprocessor);
  EXPECT_EQ(scan.tokens[1].line, 3);
  // The directive's interior never shows up as identifier tokens.
  EXPECT_EQ(scan.tokens[2].text, "int");
}

TEST(SrclintTokenizerTest, TracksLineNumbers) {
  ScannedFile scan = Tokenize("a\n\nb\n  c\n");
  ASSERT_EQ(scan.tokens.size(), 3u);
  EXPECT_EQ(scan.tokens[0].line, 1);
  EXPECT_EQ(scan.tokens[1].line, 3);
  EXPECT_EQ(scan.tokens[2].line, 4);
}

// --- Rule fixtures: one violating + one clean tree per family -------------

TEST(SrclintRuleTest, LayeringViolationCaught) {
  std::vector<Finding> findings = CheckTree(Testdata("layering_violation"));
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "include-layering");
  EXPECT_EQ(findings[0].file, "src/oracle/peek.cc");
  EXPECT_EQ(findings[0].line, 2);
  // The shared verb layer (src/commands/) sits above the reasoner.
  EXPECT_EQ(findings[1].rule, "include-layering");
  EXPECT_EQ(findings[1].file, "src/reasoner/verbs.cc");
  EXPECT_EQ(findings[1].line, 3);
}

TEST(SrclintRuleTest, LayeringCleanPasses) {
  EXPECT_TRUE(CheckTree(Testdata("layering_clean")).empty());
}

TEST(SrclintRuleTest, ServerLayeringViolationCaught) {
  std::vector<Finding> findings =
      CheckTree(Testdata("serverlayering_violation"));
  std::set<std::string> rules = Rules(findings);
  EXPECT_TRUE(rules.count("server-layering"));
  // Both the src/-root header and the reasoner file are flagged.
  int server_layering = 0;
  for (const Finding& finding : findings) {
    if (finding.rule == "server-layering") {
      ++server_layering;
      EXPECT_TRUE(finding.file == "src/crsat_fixture.h" ||
                  finding.file == "src/reasoner/engine_fixture.cc")
          << finding.file;
    }
  }
  EXPECT_EQ(server_layering, 2);
}

TEST(SrclintRuleTest, ServerLayeringCleanPasses) {
  EXPECT_TRUE(CheckTree(Testdata("serverlayering_clean")).empty());
}

TEST(SrclintRuleTest, ServerLayeringIgnoresLayeringExemptions) {
  // include-layering exempts the umbrella header and the differential
  // driver; server-layering deliberately does not — the daemon stays
  // out of the library surface no matter who asks.
  std::set<std::string> rules = Rules(CheckSource(
      "src/crsat.h", "#include \"src/server/server.h\"\n"));
  EXPECT_TRUE(rules.count("server-layering"));
  rules = Rules(CheckSource("src/oracle/conformance.cc",
                            "#include \"src/server/client.h\"\n"));
  EXPECT_TRUE(rules.count("server-layering"));
  // And the daemon including itself (or downward) stays clean.
  EXPECT_TRUE(CheckSource("src/server/server.cc",
                          "#include \"src/server/handlers.h\"\n"
                          "#include \"src/reasoner/satisfiability.h\"\n")
                  .empty());
}

TEST(SrclintRuleTest, BaselineSitsBelowTheReasoner) {
  // The reasoner asks the Lenzerini-Nobili baseline first, so the
  // baseline may reach only the LP layer's acceptable-support fixpoint,
  // never back into the reasoner.
  EXPECT_TRUE(CheckSource("src/reasoner/unsat_core.cc",
                          "#include \"src/baseline/fast_path.h\"\n")
                  .empty());
  EXPECT_TRUE(CheckSource("src/baseline/ln_reasoner.cc",
                          "#include \"src/lp/homogeneous.h\"\n")
                  .empty());
  EXPECT_TRUE(Rules(CheckSource("src/baseline/ln_reasoner.cc",
                                "#include \"src/reasoner/satisfiability.h\"\n"))
                  .count("include-layering"));
}

TEST(SrclintRuleTest, SaturationLayeringViolationCaught) {
  std::vector<Finding> findings =
      CheckTree(Testdata("saturationlayering_violation"));
  std::set<std::string> rules = Rules(findings);
  // The engine reaching into lp/ breaks the include-layering table entry;
  // the reasoner peeking into the engine trips the dedicated rule.
  EXPECT_TRUE(rules.count("include-layering"));
  EXPECT_TRUE(rules.count("saturation-layering"));
  for (const Finding& finding : findings) {
    if (finding.rule == "saturation-layering") {
      EXPECT_EQ(finding.file, "src/reasoner/peek_fixture.cc");
    }
  }
}

TEST(SrclintRuleTest, SaturationLayeringCleanPasses) {
  EXPECT_TRUE(CheckTree(Testdata("saturationlayering_clean")).empty());
}

TEST(SrclintRuleTest, SaturationLayeringExemptsOnlyTheDriver) {
  // The differential driver and the umbrella are where the three-way
  // vote and the public surface live; everything else in production is
  // fenced out, including the rest of src/oracle/.
  EXPECT_TRUE(CheckSource("src/oracle/conformance.cc",
                          "#include \"src/saturation/saturation.h\"\n")
                  .empty());
  EXPECT_TRUE(CheckSource("src/crsat.h",
                          "#include \"src/saturation/graph.h\"\n")
                  .empty());
  std::set<std::string> rules = Rules(CheckSource(
      "src/oracle/brute_force.cc",
      "#include \"src/saturation/saturation.h\"\n"));
  EXPECT_TRUE(rules.count("saturation-layering"));
}

TEST(SrclintRuleTest, RealReasonerStaysOutOfTheSaturationEngine) {
  // Mutation-style pin, same idiom as RealDualRepairStaysGuarded: the
  // real reasoner core scans clean of the rule today, and planting the
  // engine include turns the scan red — so a refactor that quietly
  // couples the system under test to its cross-check fails tier 1.
  std::ifstream in(fs::path(CRSAT_SOURCE_DIR) / "src" / "reasoner" /
                   "satisfiability.cc");
  ASSERT_TRUE(in.is_open());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string original = buffer.str();
  for (const Finding& finding :
       CheckSource("src/reasoner/satisfiability.cc", original)) {
    EXPECT_NE(finding.rule, "saturation-layering") << finding.message;
  }
  std::set<std::string> rules = Rules(
      CheckSource("src/reasoner/satisfiability.cc",
                  "#include \"src/saturation/graph.h\"\n" + original));
  EXPECT_TRUE(rules.count("saturation-layering"));
}

TEST(SrclintRuleTest, UnguardedLoopCaught) {
  std::vector<Finding> findings = CheckTree(Testdata("unguarded_violation"));
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].rule, "unguarded-loop");
  EXPECT_EQ(findings[0].file, "src/flow/pump.cc");
}

TEST(SrclintRuleTest, GuardedLoopPasses) {
  EXPECT_TRUE(CheckTree(Testdata("unguarded_clean")).empty());
}

TEST(SrclintRuleTest, ReasonedHatchSuppressesUnguardedLoop) {
  EXPECT_TRUE(CheckTree(Testdata("unguarded_allowed")).empty());
}

TEST(SrclintRuleTest, BannedConstructsCaught) {
  std::vector<Finding> findings = CheckTree(Testdata("banned_violation"));
  // new[], std::rand, argless time() — one finding each.
  ASSERT_EQ(findings.size(), 3u);
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.rule, "banned-construct");
  }
}

TEST(SrclintRuleTest, BannedCleanPasses) {
  EXPECT_TRUE(CheckTree(Testdata("banned_clean")).empty());
}

TEST(SrclintRuleTest, FloatInExactTierCaught) {
  std::vector<Finding> findings =
      CheckTree(Testdata("banned_float_violation"));
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].rule, "banned-construct");
  EXPECT_NE(findings[0].message.find("double"), std::string::npos);
}

TEST(SrclintRuleTest, CertifyBypassCaught) {
  std::vector<Finding> findings = CheckTree(Testdata("certify_violation"));
  // Definition, direct construction, out-of-pipeline Certify call.
  ASSERT_EQ(findings.size(), 3u);
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.rule, "certify-non-bypass");
  }
}

TEST(SrclintRuleTest, CertifyLegitimateUsePasses) {
  EXPECT_TRUE(CheckTree(Testdata("certify_clean")).empty());
}

TEST(SrclintRuleTest, DualPivotGuardViolationCaught) {
  std::vector<Finding> findings = CheckTree(Testdata("dualpivot_violation"));
  // Missing guard poll AND missing pivot cap — one finding each.
  ASSERT_EQ(findings.size(), 2u);
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.rule, "dual-pivot-guard");
    EXPECT_EQ(finding.file, "src/lp/repair.cc");
  }
}

TEST(SrclintRuleTest, DualPivotGuardCleanPasses) {
  EXPECT_TRUE(CheckTree(Testdata("dualpivot_clean")).empty());
}

TEST(SrclintRuleTest, RealDualRepairStaysGuarded) {
  // The rule exists to pin the production repair loop; check it against
  // the real file, then mutate the poll key away and expect red — this
  // is what keeps the rule from going silently dead under a rename.
  std::ifstream in(fs::path(CRSAT_SOURCE_DIR) / "src" / "lp" / "simplex.cc");
  ASSERT_TRUE(in.is_open());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string original = buffer.str();
  ASSERT_NE(original.find("RepairPrimalFeasibility"), std::string::npos);
  for (const Finding& finding : CheckSource("src/lp/simplex.cc", original)) {
    EXPECT_NE(finding.rule, "dual-pivot-guard") << finding.message;
  }
  std::string mutated = original;
  size_t at = mutated.find("\"simplex/dual_pivot\"");
  ASSERT_NE(at, std::string::npos);
  mutated.replace(at, 20, "\"simplex/unpolled\"");
  std::set<std::string> rules = Rules(CheckSource("src/lp/simplex.cc",
                                                  mutated));
  EXPECT_TRUE(rules.count("dual-pivot-guard"));
}

TEST(SrclintRuleTest, FailpointHygieneViolationCaught) {
  std::vector<Finding> findings = CheckTree(Testdata("failpoint_violation"));
  // Unregistered id + non-literal argument in src/lp/, plus a site in
  // src/oracle/ (flagged even with a registered id).
  ASSERT_EQ(findings.size(), 3u);
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.rule, "failpoint-hygiene");
  }
  EXPECT_EQ(findings[0].file, "src/lp/probe.cc");
  EXPECT_NE(findings[0].message.find("unregistered"), std::string::npos);
  EXPECT_EQ(findings[1].file, "src/lp/probe.cc");
  EXPECT_NE(findings[1].message.find("string literal"), std::string::npos);
  EXPECT_EQ(findings[2].file, "src/oracle/inject.cc");
  EXPECT_NE(findings[2].message.find("fault-free"), std::string::npos);
}

TEST(SrclintRuleTest, FailpointHygieneCleanPasses) {
  EXPECT_TRUE(CheckTree(Testdata("failpoint_clean")).empty());
}

TEST(SrclintRuleTest, OracleFailpointFlaggedDespiteLayeringExemption) {
  // The conformance driver is exempt from include-layering (it sees both
  // worlds by design) but NOT from failpoint hygiene: the ground truth
  // side must stay fault-free, and the driver arms faults through the
  // registry API, never the macro.
  std::set<std::string> rules = Rules(CheckSource(
      "src/oracle/conformance.cc",
      "bool F() { return CRSAT_FAILPOINT(\"guard/trip\"); }\n"));
  EXPECT_TRUE(rules.count("failpoint-hygiene"));
}

TEST(SrclintRuleTest, RealFailpointSeamsStayRegistered) {
  // Same idiom as RealDualRepairStaysGuarded: the production warm-start
  // seam must scan clean, and a typo'd id must turn the scan red — a
  // typo'd failpoint never fires and silently drops its seam from the
  // chaos sweep.
  std::ifstream in(fs::path(CRSAT_SOURCE_DIR) / "src" / "lp" / "simplex.cc");
  ASSERT_TRUE(in.is_open());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string original = buffer.str();
  ASSERT_NE(original.find("CRSAT_FAILPOINT"), std::string::npos);
  for (const Finding& finding : CheckSource("src/lp/simplex.cc", original)) {
    EXPECT_NE(finding.rule, "failpoint-hygiene") << finding.message;
  }
  std::string mutated = original;
  size_t at = mutated.find("\"lp/warm_start_reject\"");
  ASSERT_NE(at, std::string::npos);
  mutated.replace(at, 22, "\"lp/warm_start_rejekt\"");
  std::set<std::string> rules = Rules(CheckSource("src/lp/simplex.cc",
                                                  mutated));
  EXPECT_TRUE(rules.count("failpoint-hygiene"));
}

TEST(SrclintRuleTest, FailpointCatalogMatchesRealRegistry) {
  // Drift guard for the mirrored catalog: parse the registry array out of
  // src/base/failpoint.cc and require set equality. Registering a new
  // failpoint without mirroring it (or vice versa) fails right here.
  std::ifstream in(fs::path(CRSAT_SOURCE_DIR) / "src" / "base" /
                   "failpoint.cc");
  ASSERT_TRUE(in.is_open());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string source = buffer.str();
  size_t pos = source.find("kRegisteredFailpoints[]");
  ASSERT_NE(pos, std::string::npos);
  size_t end = source.find("};", pos);
  ASSERT_NE(end, std::string::npos);
  std::set<std::string> registry;
  while (true) {
    size_t open = source.find('"', pos);
    if (open == std::string::npos || open >= end) {
      break;
    }
    size_t close = source.find('"', open + 1);
    ASSERT_NE(close, std::string::npos);
    registry.insert(source.substr(open + 1, close - open - 1));
    pos = close + 1;
  }
  std::set<std::string> mirrored(srclint::FailpointRegistry().begin(),
                                 srclint::FailpointRegistry().end());
  EXPECT_EQ(mirrored, registry);
}

TEST(SrclintRuleTest, BadAllowCaught) {
  std::vector<Finding> findings = CheckTree(Testdata("badallow_violation"));
  std::set<std::string> rules = Rules(findings);
  // The reasonless hatch is flagged AND stays ineffective: the loop it
  // tried to waive is still reported.
  EXPECT_TRUE(rules.count("bad-allow"));
  EXPECT_TRUE(rules.count("unguarded-loop"));
}

// --- CheckSource details --------------------------------------------------

TEST(SrclintRuleTest, ConformanceDriverIsLayeringExempt) {
  EXPECT_TRUE(CheckSource("src/oracle/conformance.cc",
                          "#include \"src/reasoner/satisfiability.h\"\n")
                  .empty());
  EXPECT_FALSE(CheckSource("src/oracle/brute_force.cc",
                           "#include \"src/reasoner/satisfiability.h\"\n")
                   .empty());
}

TEST(SrclintRuleTest, HeadersExemptFromUnguardedLoop) {
  // The guard-threading rule targets .cc files; a header-only helper
  // loop (e.g. an inline accessor) is the including file's business.
  EXPECT_TRUE(CheckSource("src/lp/helper.h",
                          "inline int S(int n) {\n"
                          "  int t = 0;\n"
                          "  for (int i = 0; i < n; ++i) t += i;\n"
                          "  return t;\n"
                          "}\n")
                  .empty());
}

TEST(SrclintRuleTest, QualifiedRandAndMemberTimeAllowed) {
  EXPECT_TRUE(CheckSource("src/cr/ok.cc",
                          "int f(MyRng& rng, Clock& c) {\n"
                          "  return myns::rand() + rng.rand() + c.time(3);\n"
                          "}\n")
                  .empty());
}

TEST(SrclintRuleTest, FindingsRenderWithFileLineAndRule) {
  std::vector<Finding> findings = CheckTree(Testdata("layering_violation"));
  ASSERT_FALSE(findings.empty());
  std::string text = srclint::FindingsToText(findings);
  EXPECT_NE(text.find("src/oracle/peek.cc:2:"), std::string::npos);
  EXPECT_NE(text.find("[include-layering]"), std::string::npos);
  std::string json = srclint::FindingsToJson(findings);
  EXPECT_NE(json.find("\"rule\": \"include-layering\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": "), std::string::npos);
}

// --- Mutation-style end-to-end check --------------------------------------

class SrclintMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("srclint_mutation_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
    fs::create_directories(root_ / "src" / "oracle");
    std::ifstream in(fs::path(CRSAT_SOURCE_DIR) / "src" / "oracle" /
                     "brute_force.cc");
    ASSERT_TRUE(in.is_open());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    original_ = buffer.str();
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void WriteCopy(const std::string& content) {
    std::ofstream out(root_ / "src" / "oracle" / "brute_force.cc");
    out << content;
  }

  int RunBinary() {
    std::string command = std::string(SRCLINT_BINARY) + " --root " +
                          root_.string() + " > /dev/null 2>&1";
    int status = std::system(command.c_str());
    return WEXITSTATUS(status);
  }

  fs::path root_;
  std::string original_;
};

TEST_F(SrclintMutationTest, UnmutatedOracleFileIsClean) {
  WriteCopy(original_);
  EXPECT_TRUE(CheckTree(root_.string()).empty());
  EXPECT_EQ(RunBinary(), 0);
}

TEST_F(SrclintMutationTest, PlantedForbiddenIncludeTurnsTheScanRed) {
  WriteCopy("#include \"src/lp/simplex.h\"\n" + original_);
  std::vector<Finding> findings = CheckTree(root_.string());
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].rule, "include-layering");
  EXPECT_EQ(findings[0].file, "src/oracle/brute_force.cc");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(RunBinary(), 1);
}

}  // namespace
