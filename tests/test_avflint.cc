/**
 * @file
 * Unit tests for avflint: the lexer, every domain check (positive and
 * negative fixtures), the suppression comment machinery, and the
 * baseline ratchet. Fixtures are in-memory snippets passed through
 * lintText() with a path chosen to exercise the per-path scoping
 * rules (sanctioned files, header-only checks).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "avflint/checks.hh"
#include "avflint/lexer.hh"
#include "avflint/report.hh"
#include "util/json.hh"

#include "test_helpers.hh"

namespace
{

using avf::lint::Baseline;
using avf::lint::collectFiles;
using avf::lint::Finding;
using avf::lint::formatJsonReport;
using avf::lint::lex;
using avf::lint::Linter;
using avf::lint::lintText;
using avf::lint::Report;
using avf::lint::Severity;
using avf::lint::SourceFile;
using avf::lint::TokKind;

std::vector<Finding>
withId(const std::vector<Finding> &findings, const std::string &id)
{
    std::vector<Finding> out;
    for (const Finding &f : findings)
        if (f.id == id)
            out.push_back(f);
    return out;
}

// ---------------------------------------------------------------- //
// Lexer                                                             //
// ---------------------------------------------------------------- //

TEST(AvflintLexer, StripsCommentsAndStrings)
{
    SourceFile src = lex("x.cc",
                         "int a = 1; // rand() in a comment\n"
                         "const char *s = \"rand()\";\n"
                         "/* srand(1); */ int b;\n");
    for (const auto &tok : src.tokens) {
        EXPECT_NE(tok.text, "rand");
        EXPECT_NE(tok.text, "srand");
    }
    // The string literal survives as a single String token.
    auto it = std::find_if(src.tokens.begin(), src.tokens.end(),
                           [](const auto &t) {
                               return t.kind == TokKind::String;
                           });
    ASSERT_NE(it, src.tokens.end());
    EXPECT_EQ(it->text, "\"rand()\"");
    EXPECT_EQ(it->line, 2);
}

TEST(AvflintLexer, TracksLineNumbersAcrossBlockComments)
{
    SourceFile src = lex("x.cc", "/* one\ntwo\nthree */\nint a;\n");
    ASSERT_GE(src.tokens.size(), 2u);
    EXPECT_EQ(src.tokens[0].text, "int");
    EXPECT_EQ(src.tokens[0].line, 4);
}

TEST(AvflintLexer, HandlesRawStrings)
{
    SourceFile src =
        lex("x.cc", "auto s = R\"(exit(1); \" quote)\"; int a;\n");
    auto it = std::find_if(src.tokens.begin(), src.tokens.end(),
                           [](const auto &t) {
                               return t.isIdent("exit");
                           });
    EXPECT_EQ(it, src.tokens.end());
    EXPECT_TRUE(std::any_of(src.tokens.begin(), src.tokens.end(),
                            [](const auto &t) {
                                return t.isIdent("a");
                            }));
}

TEST(AvflintLexer, RecognizesEncodedRawStrings)
{
    // Regression: u8R"(...)" used to be lexed as the identifier `u8R`
    // followed by an ordinary string, so the raw body leaked tokens
    // (here: a determinism violation that is really just text).
    SourceFile src = lex(
        "x.cc",
        "auto a = u8R\"(rand() \" quote)\"; int u8done;\n"
        "auto b = LR\"sep(srand(7))sep\"; int ldone;\n");
    for (const auto &tok : src.tokens) {
        EXPECT_NE(tok.text, "rand");
        EXPECT_NE(tok.text, "srand");
    }
    EXPECT_TRUE(std::any_of(src.tokens.begin(), src.tokens.end(),
                            [](const auto &t) {
                                return t.isIdent("u8done");
                            }));
    EXPECT_TRUE(std::any_of(src.tokens.begin(), src.tokens.end(),
                            [](const auto &t) {
                                return t.isIdent("ldone");
                            }));
    EXPECT_TRUE(withId(lintText("x.cc",
                                "auto s = u8R\"(rand())\";\n"),
                       "determinism")
                    .empty());
}

TEST(AvflintLexer, MultiLineStringReportsOpeningLine)
{
    // Regression: a string continued over a backslash-newline used to
    // be anchored at its *closing* line, so findings (and allow
    // directives) pointed one-or-more lines below the code.
    SourceFile src = lex("x.cc",
                         "const char *s = \"line one \\\n"
                         "line two\";\n"
                         "char c = 'x';\n"
                         "int after;\n");
    auto str = std::find_if(src.tokens.begin(), src.tokens.end(),
                            [](const auto &t) {
                                return t.kind == TokKind::String;
                            });
    ASSERT_NE(str, src.tokens.end());
    EXPECT_EQ(str->line, 1);
    auto after = std::find_if(src.tokens.begin(), src.tokens.end(),
                              [](const auto &t) {
                                  return t.isIdent("after");
                              });
    ASSERT_NE(after, src.tokens.end());
    EXPECT_EQ(after->line, 4);
}

TEST(AvflintLexer, LexesMultiCharOperatorsAsOneToken)
{
    SourceFile src = lex("x.cc", "a |= b; c <<= d; e == f;\n");
    auto has = [&](const char *text) {
        return std::any_of(src.tokens.begin(), src.tokens.end(),
                           [&](const auto &t) {
                               return t.is(text);
                           });
    };
    EXPECT_TRUE(has("|="));
    EXPECT_TRUE(has("<<="));
    EXPECT_TRUE(has("=="));
}

TEST(AvflintLexer, ParsesAllowDirectives)
{
    SourceFile src = lex("x.cc",
                         "int a; // avflint: allow(checked-io)\n"
                         "int b;\n"
                         "// avflint: allow(error-bit, determinism)\n"
                         "int c;\n");
    EXPECT_TRUE(src.suppressed(1, "checked-io"));
    EXPECT_TRUE(src.suppressed(2, "checked-io")); // line after
    EXPECT_FALSE(src.suppressed(1, "error-bit"));
    EXPECT_TRUE(src.suppressed(4, "error-bit"));
    EXPECT_TRUE(src.suppressed(4, "determinism"));
    EXPECT_FALSE(src.suppressed(5, "naked-assert"));
}

// ---------------------------------------------------------------- //
// error-bit                                                         //
// ---------------------------------------------------------------- //

TEST(AvflintErrorBit, FlagsWritesOutsideSanctionedFiles)
{
    auto findings = withId(
        lintText("src/mem/foo.cc", "void f() { instr.errorMask |= bits; }\n"),
        "error-bit");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 1);

    findings = withId(
        lintText("bench/foo.cc", "void f() { regError[i] = 0; }\n"),
        "error-bit");
    EXPECT_EQ(findings.size(), 1u);

    findings = withId(
        lintText("src/obs/foo.cc", "void f() { entry.error = 0; }\n"),
        "error-bit");
    EXPECT_EQ(findings.size(), 1u);
}

TEST(AvflintErrorBit, AllowsSanctionedFilesAndReads)
{
    const char *write = "void f() { instr.errorMask |= bits; }\n";
    EXPECT_TRUE(
        withId(lintText("src/cpu/pipeline.cc", write), "error-bit")
            .empty());
    EXPECT_TRUE(
        withId(lintText("src/core/online_estimator.cc", write),
               "error-bit")
            .empty());
    // Reads and declarations are fine anywhere.
    EXPECT_TRUE(
        withId(lintText("src/mem/foo.cc",
                        "ErrorMask errorMask = 0;\n"
                        "auto x = regError[i];\n"
                        "if (instr.errorMask == 0) return;\n"),
               "error-bit")
            .empty());
}

TEST(AvflintErrorBit, SuppressionCommentIsHonored)
{
    auto findings = withId(
        lintText("src/mem/tlb.cc",
                 "// avflint: allow(error-bit): refill helper\n"
                 "slot.error = 0;\n"),
        "error-bit");
    EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------- //
// injection-port-discipline                                         //
// ---------------------------------------------------------------- //

TEST(AvflintInjectionPort, FlagsRawInjectionsOutsideThePort)
{
    auto findings = withId(
        lintText("src/harness/foo.cc",
                 "void f() { pipe.injectRegError(5, mask); }\n"),
        "injection-port-discipline");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("injectRegError"),
              std::string::npos);
    EXPECT_NE(findings[0].message.find("InjectionPort::open"),
              std::string::npos);

    EXPECT_EQ(withId(lintText("bench/foo.cc",
                              "void f() { tlb->injectError(0, 0x4); }\n"),
                     "injection-port-discipline")
                  .size(),
              1u);
}

TEST(AvflintInjectionPort, FlagsDirectErrorPlaneWrites)
{
    auto findings = withId(
        lintText("src/core/my_estimator.cc",
                 "void f() { plane.orMask(3, laneBit(7)); }\n"),
        "injection-port-discipline");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("orMask"), std::string::npos);

    EXPECT_EQ(withId(lintText("src/obs/foo.cc",
                              "void f() { plane->setMask(i, 0); }\n"),
                     "injection-port-discipline")
                  .size(),
              1u);
}

TEST(AvflintInjectionPort, AllowsSanctionedFilesAndDeclarations)
{
    const char *call = "void f() { pipe.injectRegError(5, mask); }\n";
    EXPECT_TRUE(withId(lintText("src/core/injection_port.cc", call),
                       "injection-port-discipline")
                    .empty());
    EXPECT_TRUE(withId(lintText("src/cpu/pipeline.cc", call),
                       "injection-port-discipline")
                    .empty());
    EXPECT_TRUE(withId(lintText("src/mem/tlb.cc", call),
                       "injection-port-discipline")
                    .empty());
    EXPECT_TRUE(withId(lintText("tests/test_errorbits.cc", call),
                       "injection-port-discipline")
                    .empty());
    // Declarations (return type precedes the name) are not calls.
    EXPECT_TRUE(
        withId(lintText("src/harness/foo.hh",
                        "InjectOutcome injectError(int s, ErrorMask m);\n"),
               "injection-port-discipline")
            .empty());
    // Port-mediated campaigns are the sanctioned idiom.
    EXPECT_TRUE(
        withId(lintText("src/harness/foo.cc",
                        "auto h = port.open(lane, site, now);\n"),
               "injection-port-discipline")
            .empty());
}

TEST(AvflintInjectionPort, SuppressionCommentIsHonored)
{
    EXPECT_TRUE(
        withId(lintText(
                   "bench/foo.cc",
                   "// avflint: allow(injection-port-discipline)\n"
                   "pipe.injectRegError(5, 1);\n"),
               "injection-port-discipline")
            .empty());
}

// ---------------------------------------------------------------- //
// determinism                                                       //
// ---------------------------------------------------------------- //

TEST(AvflintDeterminism, FlagsHiddenEntropy)
{
    EXPECT_EQ(withId(lintText("x.cc", "int a = rand();\n"),
                     "determinism")
                  .size(),
              1u);
    EXPECT_EQ(withId(lintText("x.cc", "std::srand(42);\n"),
                     "determinism")
                  .size(),
              1u);
    EXPECT_EQ(withId(lintText("x.cc", "std::random_device rd;\n"),
                     "determinism")
                  .size(),
              1u);
}

TEST(AvflintDeterminism, FlagsArglessTimeSources)
{
    EXPECT_EQ(withId(lintText("x.cc", "auto t = time(NULL);\n"),
                     "determinism")
                  .size(),
              1u);
    EXPECT_EQ(withId(lintText("x.cc", "auto t = std::time(nullptr);\n"),
                     "determinism")
                  .size(),
              1u);
    EXPECT_EQ(
        withId(lintText(
                   "x.cc",
                   "auto t = std::chrono::steady_clock::now();\n"),
               "determinism")
            .size(),
        1u);
    // A time source fed an explicit out-parameter is not argless.
    EXPECT_TRUE(withId(lintText("x.cc", "time(&t);\n"), "determinism")
                    .empty());
    // Methods named like time sources belong to their own class.
    EXPECT_TRUE(
        withId(lintText("x.cc", "sim.clock();\n"), "determinism")
            .empty());
}

TEST(AvflintDeterminism, FlagsUnorderedIteration)
{
    auto findings = withId(
        lintText("src/harness/foo.cc",
                 "std::unordered_map<int, double> table;\n"
                 "void dump() { for (const auto &kv : table) "
                 "print(kv); }\n"),
        "determinism");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 2);

    // Ordered containers iterate deterministically.
    EXPECT_TRUE(withId(lintText("src/harness/foo.cc",
                                "std::map<int, double> table;\n"
                                "void dump() { for (const auto &kv : "
                                "table) print(kv); }\n"),
                       "determinism")
                    .empty());
    // Lookups into unordered containers are fine.
    EXPECT_TRUE(withId(lintText("src/harness/foo.cc",
                                "std::unordered_map<int, int> idx;\n"
                                "int get(int k) { return idx.at(k); "
                                "}\n"),
                       "determinism")
                    .empty());
}

// ---------------------------------------------------------------- //
// checked-io                                                        //
// ---------------------------------------------------------------- //

TEST(AvflintCheckedIo, FlagsDiscardedResults)
{
    EXPECT_EQ(withId(lintText("x.cc", "void f() { std::fclose(fp); }\n"),
                     "checked-io")
                  .size(),
              1u);
    EXPECT_EQ(withId(lintText("x.cc",
                              "void f() { if (ok) fclose(fp); }\n"),
                     "checked-io")
                  .size(),
              1u);
    EXPECT_EQ(withId(lintText("x.cc",
                              "void f() { fseek(fp, 0, SEEK_SET); "
                              "fwrite(buf, 1, n, fp); }\n"),
                     "checked-io")
                  .size(),
              2u);
}

TEST(AvflintCheckedIo, AllowsCheckedAndExplicitlyDiscardedResults)
{
    EXPECT_TRUE(
        withId(lintText("x.cc",
                        "void f() { if (std::fclose(fp) != 0) "
                        "die(); }\n"),
               "checked-io")
            .empty());
    EXPECT_TRUE(withId(lintText("x.cc",
                                "void f() { int rc = fseek(fp, 0, "
                                "SEEK_SET); use(rc); }\n"),
                       "checked-io")
                    .empty());
    EXPECT_TRUE(
        withId(lintText("x.cc", "void f() { (void)std::fclose(fp); }\n"),
               "checked-io")
            .empty());
    EXPECT_TRUE(withId(lintText("x.cc",
                                "void f() { while (fread(b, 1, n, fp) "
                                "> 0) use(b); }\n"),
                       "checked-io")
                    .empty());
}

// ---------------------------------------------------------------- //
// exit-site                                                         //
// ---------------------------------------------------------------- //

TEST(AvflintExitSite, FlagsExitOutsideLogging)
{
    EXPECT_EQ(withId(lintText("src/harness/foo.cc",
                              "void f() { exit(1); }\n"),
                     "exit-site")
                  .size(),
              1u);
    EXPECT_EQ(withId(lintText("bench/foo.cc",
                              "void f() { std::abort(); }\n"),
                     "exit-site")
                  .size(),
              1u);
}

TEST(AvflintExitSite, AllowsLoggingAndScopedNames)
{
    EXPECT_TRUE(withId(lintText("src/util/logging.cc",
                                "void f() { std::exit(1); }\n"),
                       "exit-site")
                    .empty());
    EXPECT_TRUE(withId(lintText("x.cc",
                                "void f() { Machine::exit(1); "
                                "sim.exit(0); }\n"),
                       "exit-site")
                    .empty());
}

// ---------------------------------------------------------------- //
// fork-safety                                                       //
// ---------------------------------------------------------------- //

TEST(AvflintForkSafety, FlagsForkOutsideTheSharder)
{
    EXPECT_EQ(withId(lintText("src/harness/engine.cc",
                              "void f() { pid_t p = fork(); }\n"),
                     "fork-safety")
                  .size(),
              1u);
    EXPECT_EQ(withId(lintText("src/serve/daemon.cc",
                              "void f() { pid_t p = ::fork(); }\n"),
                     "fork-safety")
                  .size(),
              1u);
    EXPECT_EQ(withId(lintText("tools/foo/main.cc",
                              "void f() { if (vfork() == 0) {} }\n"),
                     "fork-safety")
                  .size(),
              1u);
}

TEST(AvflintForkSafety, AllowsTheSharderAndScopedNames)
{
    EXPECT_TRUE(withId(lintText("src/serve/sharder.cc",
                                "void f() { pid_t p = ::fork(); }\n"),
                       "fork-safety")
                    .empty());
    EXPECT_TRUE(withId(lintText("x.cc",
                                "void f() { Repo::fork(); "
                                "process.fork(); }\n"),
                       "fork-safety")
                    .empty());
}

TEST(AvflintForkSafety, SuppressionCommentIsHonored)
{
    auto findings = withId(
        lintText("tests/test_serve.cc",
                 "// avflint: allow(fork-safety): test double\n"
                 "pid_t p = fork();\n"),
        "fork-safety");
    EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------- //
// json-by-hand                                                      //
// ---------------------------------------------------------------- //

TEST(AvflintJsonByHand, FlagsEscapedKeysInSrcAndTools)
{
    const char *stream =
        "void f() { out << \"{\\\"ipc\\\": \" << ipc; }\n";
    const char *append =
        "void f() {\n  s += \",\\\"l1d_miss\\\":\";\n}\n";
    auto hits = withId(lintText("src/harness/export.cc", stream),
                       "json-by-hand");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].line, 1);
    EXPECT_EQ(hits[0].severity, Severity::Error);
    hits = withId(lintText("tools/avf-report/report.cc", append),
                  "json-by-hand");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].line, 2);
}

TEST(AvflintJsonByHand, AllowsTheWriterOtherTreesAndNonKeys)
{
    const char *stream =
        "void f() { out << \"{\\\"ipc\\\": \" << ipc; }\n";
    EXPECT_TRUE(withId(lintText("src/util/json.cc", stream),
                       "json-by-hand")
                    .empty());
    EXPECT_TRUE(withId(lintText("bench/e2e/rep.cc", stream),
                       "json-by-hand")
                    .empty());
    EXPECT_TRUE(withId(lintText("tests/test_serve.cc", stream),
                       "json-by-hand")
                    .empty());
    // A quoted word that is no key, an escaped quote alone, and a
    // member() call are all fine.
    EXPECT_TRUE(
        withId(lintText("src/serve/protocol.cc",
                        "void f() {\n"
                        "  err = \"missing \\\"schema\\\" string\";\n"
                        "  q = \"\\\":\";\n"
                        "  out.member(\"ipc\").exact(ipc);\n"
                        "}\n"),
               "json-by-hand")
            .empty());
}

TEST(AvflintJsonByHand, SuppressionCommentIsHonored)
{
    EXPECT_TRUE(
        withId(lintText("src/serve/daemon.cc",
                        "// avflint: allow(json-by-hand): fixture\n"
                        "const char *ok = \"{\\\"ok\\\":true}\";\n"),
               "json-by-hand")
            .empty());
}

// ---------------------------------------------------------------- //
// include-guard                                                     //
// ---------------------------------------------------------------- //

TEST(AvflintIncludeGuard, FlagsUnguardedHeaders)
{
    EXPECT_EQ(withId(lintText("src/foo.hh", "int f();\n"),
                     "include-guard")
                  .size(),
              1u);
    // Mismatched #ifndef/#define names do not guard anything.
    EXPECT_EQ(withId(lintText("src/foo.hh",
                              "#ifndef FOO_HH\n#define BAR_HH\n"
                              "#endif\n"),
                     "include-guard")
                  .size(),
              1u);
}

TEST(AvflintIncludeGuard, AcceptsGuardsAndIgnoresNonHeaders)
{
    EXPECT_TRUE(withId(lintText("src/foo.hh",
                                "/* doc */\n#ifndef FOO_HH\n"
                                "#define FOO_HH\nint f();\n#endif\n"),
                       "include-guard")
                    .empty());
    EXPECT_TRUE(withId(lintText("src/foo.hh", "#pragma once\nint f();\n"),
                       "include-guard")
                    .empty());
    EXPECT_TRUE(withId(lintText("src/foo.cc", "int f() { return 0; }\n"),
                       "include-guard")
                    .empty());
}

// ---------------------------------------------------------------- //
// naked-assert                                                      //
// ---------------------------------------------------------------- //

TEST(AvflintNakedAssert, FlagsAssertButNotAvfAssert)
{
    EXPECT_EQ(withId(lintText("src/foo.cc",
                              "void f() { assert(x > 0); }\n"),
                     "naked-assert")
                  .size(),
              1u);
    EXPECT_TRUE(withId(lintText("src/foo.cc",
                                "void f() { avf_assert(x > 0, \"x "
                                "must be positive, got %d\", x); "
                                "static_assert(sizeof(int) == 4); }\n"),
                       "naked-assert")
                    .empty());
}

// ---------------------------------------------------------------- //
// metric-name-discipline                                            //
// ---------------------------------------------------------------- //

TEST(AvflintMetricNames, FlagsNonSnakeCaseLiterals)
{
    auto findings = withId(
        lintText("src/foo.cc",
                 "void setup(MetricsShard &s) {\n"
                 "    s.registerCounter(\"CyclesTotal\");\n"
                 "    s.registerGauge(\"ipc-rate\");\n"
                 "    s.registerSeries(\"_leading\");\n"
                 "    s.registerCounter(\"cycles_total\");\n"
                 "}\n"),
        "metric-name-discipline");
    ASSERT_EQ(findings.size(), 3u);
    EXPECT_NE(findings[0].message.find("CyclesTotal"),
              std::string::npos);
    EXPECT_NE(findings[1].message.find("ipc-rate"), std::string::npos);
    EXPECT_NE(findings[2].message.find("_leading"), std::string::npos);
}

TEST(AvflintMetricNames, FlagsDuplicateRegistrationInOneFile)
{
    auto findings = withId(
        lintText("src/foo.cc",
                 "void a(MetricsShard &s) {\n"
                 "    s.registerCounter(\"cycles_total\");\n"
                 "}\n"
                 "void b(MetricsShard &s) {\n"
                 "    s.registerCounter(\"cycles_total\");\n"
                 "}\n"),
        "metric-name-discipline");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 5);
    EXPECT_NE(findings[0].message.find("line 2"), std::string::npos);
}

TEST(AvflintMetricNames, DynamicNamesAreExempt)
{
    // Concatenated names register a family; the runtime registry
    // validates the spelling of each instance.
    EXPECT_TRUE(withId(
        lintText("src/foo.cc",
                 "void setup(MetricsShard &s, std::string n) {\n"
                 "    s.registerCounter(\"online_\" + n + \"_total\");\n"
                 "    s.registerCounter(\"online_\" + n + \"_total\");\n"
                 "    s.registerCounter(n);\n"
                 "}\n"),
        "metric-name-discipline")
                    .empty());
}

TEST(AvflintMetricNames, FlagsRegistrationInHotPaths)
{
    // Inside a step() definition body.
    auto inStep = withId(
        lintText("src/foo.cc",
                 "void Pipeline::step() {\n"
                 "    shard.registerCounter(\"cycles_total\");\n"
                 "}\n"),
        "metric-name-discipline");
    ASSERT_EQ(inStep.size(), 1u);
    EXPECT_NE(inStep[0].message.find("hot path"), std::string::npos);

    // Inside a lambda hooked through an onCycle() callback argument.
    auto inHook = withId(
        lintText("src/foo.cc",
                 "void setup(Tracker &t, MetricsShard &s) {\n"
                 "    t.onCycle([&] {\n"
                 "        s.registerGauge(\"occupancy\");\n"
                 "    });\n"
                 "}\n"),
        "metric-name-discipline");
    ASSERT_EQ(inHook.size(), 1u);
    EXPECT_NE(inHook[0].message.find("hot path"), std::string::npos);
}

TEST(AvflintMetricNames, SetupRegistrationAndStepCallsAreClean)
{
    // Registration at setup plus a plain step() call near it — the
    // call's empty argument list must not poison the whole function.
    EXPECT_TRUE(withId(
        lintText("src/foo.cc",
                 "void run(Pipeline &p, MetricsShard &s) {\n"
                 "    auto id = s.registerCounter(\"cycles_total\");\n"
                 "    for (int i = 0; i < n; ++i) p.step();\n"
                 "    s.inc(id, n);\n"
                 "}\n"),
        "metric-name-discipline")
                    .empty());
}

TEST(AvflintMetricNames, AppliesToBlameUnitRegistration)
{
    // The attribution tracker's blame units share the exported-name
    // contract: literal names must be snake_case and never register
    // from a per-cycle hot path.
    auto findings = withId(
        lintText("src/foo.cc",
                 "CoverageProbe::CoverageProbe(AttributionTracker &t) "
                 "{\n"
                 "    unit = t.registerBlameUnit(\"FetchBuf\");\n"
                 "}\n"
                 "void Probe::onCycle(Cycle now) {\n"
                 "    t.registerBlameUnit(\"fetch_buf\");\n"
                 "}\n"),
        "metric-name-discipline");
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_NE(findings[0].message.find("FetchBuf"),
              std::string::npos);
    EXPECT_NE(findings[1].message.find("hot path"),
              std::string::npos);

    EXPECT_TRUE(withId(
        lintText("src/foo.cc",
                 "CoverageProbe::CoverageProbe(AttributionTracker &t) "
                 "{\n"
                 "    unit = t.registerBlameUnit(\"fetch_buf\");\n"
                 "}\n"),
        "metric-name-discipline")
                    .empty());
}

TEST(AvflintMetricNames, ControlLoopRegistrationIsClean)
{
    // The controller's decision metrics, as registered at
    // construction in src/control/throttle_controller.cc: literal
    // snake_case names plus the dynamic per-structure coverage
    // family. None may trip metric-name-discipline.
    EXPECT_TRUE(withId(
        lintText("src/control/throttle_controller.cc",
                 "ThrottleController::ThrottleController(\n"
                 "    MetricsShard &m, std::string name) {\n"
                 "    m.registerCounter(\"control_engagements_total\");\n"
                 "    m.registerCounter(\"control_releases_total\");\n"
                 "    m.registerCounter(\"control_actuations_total\");\n"
                 "    m.registerCounter(\n"
                 "        \"control_throttled_intervals_total\");\n"
                 "    m.registerCounter(\n"
                 "        \"budget_exceeded_intervals_total\");\n"
                 "    m.registerCounter(\"control_protect_actions_total\");\n"
                 "    m.registerSeries(\"control_engaged\");\n"
                 "    m.registerSeries(\"budget_fit_total\");\n"
                 "    m.registerSeries(\"budget_projected_mttf_hours\");\n"
                 "    m.registerSeries(\"budget_target_structure\");\n"
                 "    m.registerGauge(\"budget_mttf_hours\");\n"
                 "    m.registerGauge(\"control_report_latency_cycles\");\n"
                 "    m.registerSeries(\"control_coverage_\" + name);\n"
                 "}\n"),
        "metric-name-discipline")
                    .empty());
}

// ---------------------------------------------------------------- //
// shared-state-discipline                                           //
// ---------------------------------------------------------------- //

TEST(AvflintSharedState, FlagsUnguardedStaticWrites)
{
    auto findings = withId(
        lintText("src/foo.cc",
                 "namespace avf {\n"
                 "int hits = 0;\n"
                 "void record() { hits += 1; }\n"
                 "}\n"),
        "shared-state-discipline");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 3);
    EXPECT_EQ(findings[0].severity, Severity::Error);
    EXPECT_NE(findings[0].message.find("'hits'"), std::string::npos);
    EXPECT_NE(findings[0].message.find("declared line 2"),
              std::string::npos);

    // Function-local statics are shared storage too.
    EXPECT_EQ(withId(lintText("src/foo.cc",
                              "int f() {\n"
                              "    static int calls = 0;\n"
                              "    return ++calls;\n"
                              "}\n"),
                     "shared-state-discipline")
                  .size(),
              1u);
}

TEST(AvflintSharedState, FlagsGuardedByNamingNoMutex)
{
    auto findings = withId(
        lintText("src/foo.cc",
                 "// avflint: guarded_by(poolMutex)\n"
                 "int pool = 0;\n"
                 "void f() { pool += 1; }\n"),
        "shared-state-discipline");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 2); // anchored at the declaration
    EXPECT_NE(findings[0].message.find("names no mutex"),
              std::string::npos);
}

TEST(AvflintSharedState, AcceptsSanctionedForms)
{
    // std::atomic.
    EXPECT_TRUE(withId(lintText("src/foo.cc",
                                "std::atomic<int> hits{0};\n"
                                "void f() { hits += 1; }\n"),
                       "shared-state-discipline")
                    .empty());
    // guarded_by naming a mutex declared in the same file.
    EXPECT_TRUE(withId(
        lintText("src/foo.cc",
                 "std::mutex poolMutex;\n"
                 "// avflint: guarded_by(poolMutex)\n"
                 "int pool = 0;\n"
                 "void f() {\n"
                 "    std::lock_guard<std::mutex> g(poolMutex);\n"
                 "    pool += 1;\n"
                 "}\n"),
        "shared-state-discipline")
                    .empty());
    // const and reads need no synchronization; initializers are not
    // writes; locals shadowing the static belong to the function.
    EXPECT_TRUE(withId(lintText("src/foo.cc",
                                "const int limit = 4;\n"
                                "int base = 3;\n"
                                "int get() { return base; }\n"
                                "void f() {\n"
                                "    int base = 0;\n"
                                "    base += 1;\n"
                                "    use(base);\n"
                                "}\n"),
                       "shared-state-discipline")
                    .empty());
    // The config loader owns its caches by design.
    EXPECT_TRUE(withId(lintText("src/harness/config_loader.cc",
                                "int cached = 0;\n"
                                "void f() { cached = 1; }\n"),
                       "shared-state-discipline")
                    .empty());
}

TEST(AvflintSharedState, SuppressionCommentIsHonored)
{
    EXPECT_TRUE(withId(
        lintText("src/foo.cc",
                 "int hits = 0;\n"
                 "// avflint: allow(shared-state-discipline)\n"
                 "void bump() { hits += 1; }\n"),
        "shared-state-discipline")
                    .empty());
}

// ---------------------------------------------------------------- //
// hot-path-alloc                                                    //
// ---------------------------------------------------------------- //

TEST(AvflintHotPathAlloc, FlagsAllocationInHotBodies)
{
    auto findings = withId(
        lintText("src/foo.cc",
                 "void Pipeline::onCycle(Cycle now) {\n"
                 "    log.push_back(now);\n"
                 "}\n"),
        "hot-path-alloc");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 2);
    EXPECT_EQ(findings[0].severity, Severity::Warn);
    EXPECT_NE(findings[0].message.find("reserve"), std::string::npos);

    EXPECT_EQ(withId(lintText("src/foo.cc",
                              "void X::onRetire(const DynInstr &i) "
                              "{ auto *n = new Node(i); keep(n); }\n"),
                     "hot-path-alloc")
                  .size(),
              1u);
    EXPECT_EQ(withId(lintText("src/foo.cc",
                              "void Engine::step() {\n"
                              "    std::string tag = name();\n"
                              "    use(tag);\n"
                              "}\n"),
                     "hot-path-alloc")
                  .size(),
              1u);
}

TEST(AvflintHotPathAlloc, FlagsAllocationInNextWake)
{
    // The pipeline asks nextWake after every onCycle it makes.
    auto findings = withId(
        lintText("src/foo.cc",
                 "Cycle Feed::nextWake(Cycle now) const {\n"
                 "    std::vector<Cycle> due = pending();\n"
                 "    return earliest(due);\n"
                 "}\n"),
        "hot-path-alloc");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 2);
}

TEST(AvflintHotPathAlloc, FollowsTheIntraRepoCallGraph)
{
    auto findings = withId(
        lintText("src/foo.cc",
                 "void refill() { buf.push_back(1); }\n"
                 "void Engine::step() { refill(); }\n"),
        "hot-path-alloc");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 1);
    EXPECT_NE(findings[0].message.find("step -> refill"),
              std::string::npos);

    // The same helper with no hot caller is cold: report assembly,
    // setup and teardown may allocate freely.
    EXPECT_TRUE(withId(
        lintText("src/foo.cc",
                 "void refill() { buf.push_back(1); }\n"
                 "void report() { refill(); }\n"),
        "hot-path-alloc")
                    .empty());
}

TEST(AvflintHotPathAlloc, ReserveAnywhereInFileSanctionsAppends)
{
    EXPECT_TRUE(withId(
        lintText("src/foo.cc",
                 "Engine::Engine(int n) { buf.reserve(n); }\n"
                 "void Engine::onCycle(Cycle c) { "
                 "buf.push_back(c); }\n"),
        "hot-path-alloc")
                    .empty());
    // constexpr/static strings are compile-time or once-only.
    EXPECT_TRUE(withId(
        lintText("src/foo.cc",
                 "void Engine::step() {\n"
                 "    static const std::string tag = \"x\";\n"
                 "    use(tag);\n"
                 "}\n"),
        "hot-path-alloc")
                    .empty());
}

TEST(AvflintHotPathAlloc, SuppressionCommentIsHonored)
{
    EXPECT_TRUE(withId(
        lintText("src/foo.cc",
                 "void Engine::onCycle(Cycle c) {\n"
                 "    // One sample per closed interval.\n"
                 "    // avflint: allow(hot-path-alloc)\n"
                 "    results.push_back(estimate());\n"
                 "}\n"),
        "hot-path-alloc")
                    .empty());
}

// ---------------------------------------------------------------- //
// env-knob-discipline                                               //
// ---------------------------------------------------------------- //

TEST(AvflintEnvKnob, FlagsGetenvOutsideTheConfigLoader)
{
    auto findings = withId(
        lintText("src/core/foo.cc",
                 "void f() { const char *v = getenv(\"AVF_X\"); }\n"),
        "env-knob-discipline");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 1);
    EXPECT_NE(findings[0].message.find("loadRunOptions"),
              std::string::npos);
}

TEST(AvflintEnvKnob, FlagsWrapperCallsCrossFile)
{
    // A helper that wraps getenv taints its cross-file callers: the
    // knob still bypasses loadRunOptions validation.
    Linter linter;
    linter.addFile(lex("src/util/env.cc",
                       "const char *readKnob(const char *k) "
                       "{ return getenv(k); }\n"));
    linter.addFile(lex("bench/foo.cc",
                       "void f() { use(readKnob(\"AVF_X\")); }\n"));
    auto findings = withId(linter.run(), "env-knob-discipline");
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].file, "bench/foo.cc");
    EXPECT_NE(findings[0].message.find("readKnob"),
              std::string::npos);
    EXPECT_NE(findings[0].message.find("src/util/env.cc"),
              std::string::npos);
    EXPECT_EQ(findings[1].file, "src/util/env.cc");
}

TEST(AvflintEnvKnob, ConfigLoaderAndItsApiAreSanctioned)
{
    // getenv inside the loader itself is the point of the file.
    EXPECT_TRUE(withId(
        lintText("src/harness/config_loader.cc",
                 "void load() { const char *v = "
                 "getenv(\"AVF_FAST\"); use(v); }\n"),
        "env-knob-discipline")
                    .empty());
    // Callers of a wrapper *defined in* the sanctioned loader are the
    // recommended fix, not a violation.
    Linter linter;
    linter.addFile(lex("src/harness/config_loader.cc",
                       "RunOptions loadRunOptions() "
                       "{ check(getenv(\"AVF_FAST\")); }\n"));
    linter.addFile(lex("bench/foo.cc",
                       "void f() { auto opts = loadRunOptions(); }\n"));
    auto findings = withId(linter.run(), "env-knob-discipline");
    EXPECT_TRUE(findings.empty());
}

TEST(AvflintEnvKnob, SuppressionCommentIsHonored)
{
    EXPECT_TRUE(withId(
        lintText("src/util/logging.cc",
                 "// Must be readable before config loads.\n"
                 "// avflint: allow(env-knob-discipline)\n"
                 "const char *raw = getenv(\"AVF_LOG_LEVEL\");\n"),
        "env-knob-discipline")
                    .empty());
}

// ---------------------------------------------------------------- //
// lock-discipline                                                   //
// ---------------------------------------------------------------- //

TEST(AvflintLockDiscipline, FlagsNakedLockAndUnlock)
{
    auto findings = withId(
        lintText("src/foo.cc",
                 "std::mutex m;\n"
                 "void f() { m.lock(); work(); m.unlock(); }\n"),
        "lock-discipline");
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_NE(findings[0].message.find(".lock()"), std::string::npos);
    EXPECT_NE(findings[1].message.find(".unlock()"),
              std::string::npos);
    EXPECT_EQ(withId(lintText("src/foo.cc",
                              "void f(Queue &q) { "
                              "if (q.mtx.try_lock()) { work(); } }\n"),
                     "lock-discipline")
                  .size(),
              1u);
}

TEST(AvflintLockDiscipline, RaiiLocksAreTheSanctionedForm)
{
    EXPECT_TRUE(withId(
        lintText("src/foo.cc",
                 "std::mutex m;\n"
                 "void f() { std::lock_guard<std::mutex> g(m); "
                 "work(); }\n"),
        "lock-discipline")
                    .empty());
    // unique_lock may relock itself: that is still RAII.
    EXPECT_TRUE(withId(
        lintText("src/foo.cc",
                 "std::mutex m;\n"
                 "void f() {\n"
                 "    std::unique_lock<std::mutex> lk(m);\n"
                 "    lk.unlock();\n"
                 "    compute();\n"
                 "    lk.lock();\n"
                 "}\n"),
        "lock-discipline")
                    .empty());
    // std::lock(a, b) is a free function, not a member call.
    EXPECT_TRUE(withId(lintText("src/foo.cc",
                                "void f() { std::lock(a, b); }\n"),
                       "lock-discipline")
                    .empty());
}

TEST(AvflintLockDiscipline, SuppressionCommentIsHonored)
{
    EXPECT_TRUE(withId(
        lintText("src/foo.cc",
                 "void f(std::mutex &m) {\n"
                 "    // Handing the lock across an API boundary.\n"
                 "    // avflint: allow(lock-discipline)\n"
                 "    m.lock();\n"
                 "}\n"),
        "lock-discipline")
                    .empty());
}

// ---------------------------------------------------------------- //
// Suppressions end-to-end                                           //
// ---------------------------------------------------------------- //

TEST(AvflintSuppression, OnlyNamedCheckIsSuppressed)
{
    // Line carries both a checked-io and an exit-site violation; the
    // allow() names only one of them.
    auto findings = lintText(
        "x.cc",
        "void f() { fclose(fp); exit(1); } "
        "// avflint: allow(checked-io)\n");
    EXPECT_TRUE(withId(findings, "checked-io").empty());
    EXPECT_EQ(withId(findings, "exit-site").size(), 1u);
}

TEST(AvflintSuppression, AllowAllSuppressesEverything)
{
    auto findings = lintText(
        "x.cc",
        "// avflint: allow(all)\n"
        "void f() { fclose(fp); exit(1); assert(x); }\n");
    EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------- //
// Baseline ratchet                                                  //
// ---------------------------------------------------------------- //

TEST(AvflintBaseline, MatchesConsumesAndReportsStale)
{
    Finding f{"src/foo.cc", 10, "checked-io", "result discarded"};
    Baseline base = Baseline::fromString(
        "# comment\n"
        "\n" +
        f.key() + "\n" +
        "src/gone.cc: [exit-site] stale entry\n");
    EXPECT_EQ(base.size(), 2u);
    EXPECT_TRUE(base.matches(f));
    // Each entry covers exactly one occurrence.
    EXPECT_FALSE(base.matches(f));
    auto stale = base.unmatched();
    ASSERT_EQ(stale.size(), 1u);
    EXPECT_EQ(stale[0], "src/gone.cc: [exit-site] stale entry");
}

TEST(AvflintBaseline, KeyIgnoresLineNumbers)
{
    Finding early{"src/foo.cc", 10, "checked-io", "msg"};
    Finding late{"src/foo.cc", 99, "checked-io", "msg"};
    EXPECT_EQ(early.key(), late.key());
    EXPECT_NE(early.format(), late.format());
}

// ---------------------------------------------------------------- //
// collectFiles                                                      //
// ---------------------------------------------------------------- //

class AvflintCollectFiles : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        namespace fs = std::filesystem;
        root = avf::testutil::uniqueTempDir();
        fs::remove_all(root);
        for (const char *dir :
             {"src/sub", "build", "build-release", ".git", "results"})
            fs::create_directories(root / dir);
        for (const char *file :
             {"src/b.cc", "src/a.hh", "src/sub/c.hpp", "src/note.md",
              "build/gen.cc", "build-release/gen.cc", ".git/hook.cc",
              "results/out.cc", "top.cpp", "README.md"})
            std::ofstream((root / file).string()) << "int x;\n";
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(root);
    }

    std::filesystem::path root;
};

TEST_F(AvflintCollectFiles, RecursesSkipsAndSorts)
{
    auto files = collectFiles(root.string(), {"."});
    std::vector<std::string> expected = {
        "src/a.hh", "src/b.cc", "src/sub/c.hpp", "top.cpp"};
    EXPECT_EQ(files, expected); // build*/VCS/results skipped, sorted
}

TEST_F(AvflintCollectFiles, AcceptsMixedFileAndDirectoryArgs)
{
    auto files = collectFiles(root.string(), {"top.cpp", "src"});
    std::vector<std::string> expected = {
        "src/a.hh", "src/b.cc", "src/sub/c.hpp", "top.cpp"};
    EXPECT_EQ(files, expected);
    // Non-lintable and missing file arguments drop out quietly.
    EXPECT_TRUE(
        collectFiles(root.string(), {"README.md", "gone.cc"}).empty());
}

TEST_F(AvflintCollectFiles, DeduplicatesOverlappingArgs)
{
    auto files = collectFiles(root.string(),
                              {"src", "src", "src/b.cc"});
    std::vector<std::string> expected = {
        "src/a.hh", "src/b.cc", "src/sub/c.hpp"};
    EXPECT_EQ(files, expected);
}

// ---------------------------------------------------------------- //
// JSON report: must round-trip through the strict util/json parser  //
// ---------------------------------------------------------------- //

Report
sampleReport()
{
    Report r;
    r.root = ".";
    r.filesScanned = 2;
    r.lexParseMicros = 1234;
    r.checkMicros["determinism"] = 56;
    r.checkMicros["hot-path-alloc"] = 78;
    Finding fresh{"src/a.cc", 3, "determinism",
                  "rand() with \"quotes\" and a \\ backslash",
                  Severity::Error};
    Finding old{"src/b.cc", 9, "hot-path-alloc",
                "push_back in the hot path", Severity::Warn};
    r.findings = {fresh, old};
    r.baselined = {false, true};
    r.staleBaseline = {"src/gone.cc: [exit-site] stale"};
    return r;
}

TEST(AvflintJsonReport, RoundTripsThroughStrictParser)
{
    std::string text = formatJsonReport(sampleReport());
    avf::json::Value doc;
    std::string error;
    ASSERT_TRUE(avf::json::parse(text, doc, error)) << error;

    const auto *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->text, "avflint-v1");
    EXPECT_EQ(doc.find("filesScanned")->asUint(), 2u);
    EXPECT_EQ(doc.find("fresh")->asUint(), 1u);
    EXPECT_EQ(doc.find("baselined")->asUint(), 1u);
    ASSERT_NE(doc.find("ok"), nullptr);
    EXPECT_FALSE(doc.find("ok")->boolean);

    const auto *findings = doc.find("findings");
    ASSERT_NE(findings, nullptr);
    ASSERT_EQ(findings->items.size(), 2u);
    const auto &first = findings->items[0];
    EXPECT_EQ(first.find("file")->text, "src/a.cc");
    EXPECT_EQ(first.find("line")->asUint(), 3u);
    EXPECT_EQ(first.find("check")->text, "determinism");
    EXPECT_EQ(first.find("severity")->text, "error");
    EXPECT_FALSE(first.find("baselined")->boolean);
    // Escapes decode back to the original message bytes.
    EXPECT_EQ(first.find("message")->text,
              "rand() with \"quotes\" and a \\ backslash");
    EXPECT_EQ(findings->items[1].find("severity")->text, "warn");
    EXPECT_TRUE(findings->items[1].find("baselined")->boolean);

    const auto *stale = doc.find("staleBaseline");
    ASSERT_NE(stale, nullptr);
    ASSERT_EQ(stale->items.size(), 1u);
    EXPECT_EQ(stale->items[0].text,
              "src/gone.cc: [exit-site] stale");
}

TEST(AvflintJsonReport, EveryRegisteredCheckAppearsWithTiming)
{
    std::string text = formatJsonReport(sampleReport());
    avf::json::Value doc;
    std::string error;
    ASSERT_TRUE(avf::json::parse(text, doc, error)) << error;

    const auto *checks = doc.find("checks");
    ASSERT_NE(checks, nullptr);
    const auto &registry = avf::lint::checkRegistry();
    ASSERT_EQ(checks->items.size(), registry.size());
    for (std::size_t i = 0; i < registry.size(); ++i) {
        const auto &entry = checks->items[i];
        EXPECT_EQ(entry.find("id")->text, registry[i].id);
        EXPECT_EQ(entry.find("severity")->text,
                  avf::lint::severityName(registry[i].severity));
        ASSERT_NE(entry.find("micros"), nullptr);
        ASSERT_NE(entry.find("findings"), nullptr);
    }
    // The per-check timings fed in show up verbatim.
    auto micros = [&](std::string_view id) -> std::uint64_t {
        for (const auto &entry : checks->items)
            if (entry.find("id")->text == id)
                return entry.find("micros")->asUint();
        return ~0ull;
    };
    EXPECT_EQ(micros("determinism"), 56u);
    EXPECT_EQ(micros("hot-path-alloc"), 78u);
}

TEST(AvflintJsonReport, OkReflectsFreshAndStale)
{
    Report clean;
    clean.root = ".";
    EXPECT_TRUE(clean.ok());

    Report stale;
    stale.staleBaseline = {"src/x.cc: [determinism] gone"};
    EXPECT_FALSE(stale.ok()); // the ratchet turns both ways

    Report absorbed = sampleReport();
    absorbed.baselined = {true, true};
    EXPECT_EQ(absorbed.freshCount(), 0u);
    EXPECT_FALSE(absorbed.ok()); // still stale
    absorbed.staleBaseline.clear();
    EXPECT_TRUE(absorbed.ok());
}

// ---------------------------------------------------------------- //
// Integration: multiple findings come out sorted and complete       //
// ---------------------------------------------------------------- //

TEST(AvflintIntegration, ReportsAllFindingsSortedByLine)
{
    auto findings = lintText("src/mem/foo.cc",
                             "void f() {\n"
                             "    entry.error = 1;\n"
                             "    fclose(fp);\n"
                             "    exit(2);\n"
                             "}\n");
    ASSERT_EQ(findings.size(), 3u);
    EXPECT_EQ(findings[0].id, "error-bit");
    EXPECT_EQ(findings[1].id, "checked-io");
    EXPECT_EQ(findings[2].id, "exit-site");
    EXPECT_TRUE(std::is_sorted(findings.begin(), findings.end(),
                               [](const auto &a, const auto &b) {
                                   return a.line < b.line;
                               }));
    // file:line: [id] message, ready for editors and CI logs.
    EXPECT_EQ(findings[0].format().rfind("src/mem/foo.cc:2: "
                                         "[error-bit]", 0),
              0u);
}

} // namespace
