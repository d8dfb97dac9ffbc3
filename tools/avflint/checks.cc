#include "avflint/checks.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <set>

namespace avf::lint
{

namespace
{

namespace fs = std::filesystem;

bool
startsWith(const std::string &text, std::string_view prefix)
{
    return text.compare(0, prefix.size(), prefix) == 0;
}

/** tokens[i] or an empty sentinel when out of range. */
const Token &
at(const SourceFile &src, std::size_t i)
{
    static const Token none{TokKind::Punct, "", 0};
    return i < src.tokens.size() ? src.tokens[i] : none;
}

bool
isMemberAccess(const Token &t)
{
    return t.is(".") || t.is("->");
}

/**
 * From the token after an lvalue identifier, skip one balanced
 * `[...]` subscript if present and return the index of the token
 * that follows.
 */
std::size_t
skipSubscript(const SourceFile &src, std::size_t i)
{
    if (!at(src, i).is("["))
        return i;
    int depth = 0;
    while (i < src.tokens.size()) {
        if (at(src, i).is("["))
            ++depth;
        else if (at(src, i).is("]") && --depth == 0)
            return i + 1;
        ++i;
    }
    return i;
}

bool
isAssignOp(const Token &t)
{
    return t.kind == TokKind::Punct &&
           (t.is("=") || t.is("|=") || t.is("&=") || t.is("^=") ||
            t.is("+=") || t.is("-=") || t.is("<<=") || t.is(">>="));
}

// ---------------------------------------------------------------- //
// error-bit: writes to error-bit state outside sanctioned helpers.  //
// ---------------------------------------------------------------- //

void
checkErrorBit(const SourceFile &src, const CheckContext &,
              std::vector<Finding> &out)
{
    // The kill/carry/merge discipline lives here; everything else
    // must go through the Pipeline / estimator APIs.
    if (src.path == "src/cpu/pipeline.cc" ||
        startsWith(src.path, "src/core/"))
        return;

    static const std::set<std::string_view> state = {
        "errorMask", "errorBits", "errorBit", "regError"};
    // `error` alone is flagged only as a member write (`x.error =`):
    // in this codebase `.error` members are per-entry error-bit
    // planes, and reusing the name for anything else defeats grep.
    static const std::set<std::string_view> memberState = {"error"};

    for (std::size_t i = 0; i < src.tokens.size(); ++i) {
        const Token &tok = src.tokens[i];
        if (tok.kind != TokKind::Identifier)
            continue;
        bool plain = state.count(tok.text) > 0;
        bool member = memberState.count(tok.text) > 0;
        if (!plain && !member)
            continue;
        const Token &prev = at(src, i - 1);
        if (member && !isMemberAccess(prev))
            continue;
        // `ErrorMask errorMask = 0;` is a declaration with default
        // initializer, not a stray write.
        if (plain && !isMemberAccess(prev) &&
            prev.kind == TokKind::Identifier)
            continue;
        std::size_t j = skipSubscript(src, i + 1);
        if (!isAssignOp(at(src, j)))
            continue;
        out.push_back(
            {src.path, tok.line, "error-bit",
             "direct write to error-bit state '" + tok.text +
                 "' outside the sanctioned kill/carry/merge helpers "
                 "(src/cpu/pipeline.cc, src/core/); use the Pipeline "
                 "injection/clear API"});
    }
}

// ---------------------------------------------------------------- //
// injection-port-discipline: raw injections bypass InjectionPort.   //
// ---------------------------------------------------------------- //

void
checkInjectionPort(const SourceFile &src, const CheckContext &,
                   std::vector<Finding> &out)
{
    // Sanctioned: the port itself, the plane owners that implement
    // the primitives, and the primitives' own unit tests. Everything
    // else must open a tagged lane window through core::InjectionPort
    // so the injection carries a lane and a window handle.
    if (src.path == "src/core/injection_port.cc" ||
        startsWith(src.path, "src/cpu/") ||
        startsWith(src.path, "src/mem/") ||
        startsWith(src.path, "src/util/") ||
        startsWith(src.path, "tests/"))
        return;

    static const std::set<std::string_view> rawInjectors = {
        "injectRegError", "injectIqEntryError", "injectIqFieldError",
        "injectFuError",  "injectDtlbError",    "injectError"};
    static const std::set<std::string_view> planeMutators = {
        "orMask", "setMask"};

    for (std::size_t i = 0; i < src.tokens.size(); ++i) {
        const Token &tok = src.tokens[i];
        if (tok.kind != TokKind::Identifier ||
            !at(src, i + 1).is("("))
            continue;
        bool injector = rawInjectors.count(tok.text) > 0;
        bool mutator = planeMutators.count(tok.text) > 0;
        if (!injector && !mutator)
            continue;
        // `InjectOutcome injectError(int slot, ...)` is a declaration
        // (return type precedes the name), not a call site.
        const Token &prev = at(src, i - 1);
        if (!isMemberAccess(prev) && prev.kind == TokKind::Identifier)
            continue;
        if (injector)
            out.push_back(
                {src.path, tok.line, "injection-port-discipline",
                 "raw injection primitive '" + tok.text +
                     "' called outside core::InjectionPort; open a "
                     "tagged lane window with InjectionPort::open so "
                     "the injection carries a lane (see DESIGN.md, "
                     "\"The InjectionPort contract\")"});
        else
            out.push_back(
                {src.path, tok.line, "injection-port-discipline",
                 "direct ErrorPlane write '" + tok.text +
                     "' outside the plane owners; campaign code must "
                     "inject through core::InjectionPort, not by "
                     "setting error-plane bits"});
    }
}

// ---------------------------------------------------------------- //
// determinism: hidden entropy and unordered iteration.              //
// ---------------------------------------------------------------- //

void
checkDeterminism(const SourceFile &src, const CheckContext &,
                 std::vector<Finding> &out)
{
    static const std::set<std::string_view> bannedCalls = {
        "rand",    "srand",   "rand_r",  "random_r", "drand48",
        "lrand48", "mrand48", "gettimeofday", "clock_gettime"};
    static const std::set<std::string_view> chronoClocks = {
        "system_clock", "steady_clock", "high_resolution_clock"};
    static const std::set<std::string_view> unorderedTypes = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};

    // Pass 1: names declared with std::unordered_* types.
    std::set<std::string> unorderedVars;
    for (std::size_t i = 0; i < src.tokens.size(); ++i) {
        if (src.tokens[i].kind != TokKind::Identifier ||
            unorderedTypes.count(src.tokens[i].text) == 0)
            continue;
        std::size_t j = i + 1;
        if (at(src, j).is("<")) {
            int depth = 0;
            for (; j < src.tokens.size(); ++j) {
                if (at(src, j).is("<"))
                    ++depth;
                else if (at(src, j).is(">") && --depth == 0) {
                    ++j;
                    break;
                } else if (at(src, j).is(">>") && (depth -= 2) <= 0) {
                    ++j;
                    break;
                }
            }
        }
        while (at(src, j).is("&") || at(src, j).is("*"))
            ++j;
        if (at(src, j).kind == TokKind::Identifier)
            unorderedVars.insert(at(src, j).text);
    }

    for (std::size_t i = 0; i < src.tokens.size(); ++i) {
        const Token &tok = src.tokens[i];
        if (tok.kind != TokKind::Identifier)
            continue;
        const Token &prev = at(src, i - 1);

        if (tok.text == "random_device") {
            out.push_back(
                {src.path, tok.line, "determinism",
                 "std::random_device is nondeterministic; seed "
                 "avf::Rng (util/random.hh) from configuration"});
            continue;
        }

        if (isMemberAccess(prev))
            continue; // x.rand() is somebody else's method

        if (bannedCalls.count(tok.text) > 0 && at(src, i + 1).is("(")) {
            out.push_back(
                {src.path, tok.line, "determinism",
                 "'" + tok.text + "()' breaks bit-deterministic "
                 "campaigns; use avf::Rng (util/random.hh) or plumb "
                 "the value through RunOptions"});
            continue;
        }

        // Argless wall-clock reads: time(NULL|nullptr|0|), clock().
        if ((tok.text == "time" || tok.text == "clock") &&
            at(src, i + 1).is("(")) {
            const Token &arg = at(src, i + 2);
            bool argless =
                arg.is(")") || ((arg.isIdent("NULL") ||
                                 arg.isIdent("nullptr") ||
                                 (arg.kind == TokKind::Number &&
                                  arg.text == "0")) &&
                                at(src, i + 3).is(")"));
            if (argless)
                out.push_back(
                    {src.path, tok.line, "determinism",
                     "'" + tok.text + "()' reads the wall clock; "
                     "results must be a function of (trace, seed) "
                     "only"});
            continue;
        }

        if (chronoClocks.count(tok.text) > 0 &&
            at(src, i + 1).is("::") &&
            at(src, i + 2).isIdent("now")) {
            out.push_back(
                {src.path, tok.line, "determinism",
                 "'" + tok.text + "::now()' reads the wall clock; "
                 "keep it out of anything that feeds exported "
                 "results (suppress with a justification if it only "
                 "feeds a timing side-channel)"});
            continue;
        }

        // Range-for over an unordered container: iteration order is
        // implementation-defined and leaks into stdout/exports.
        if (tok.text == "for" && at(src, i + 1).is("(")) {
            int depth = 0;
            std::size_t colon = 0;
            for (std::size_t j = i + 1; j < src.tokens.size(); ++j) {
                if (at(src, j).is("("))
                    ++depth;
                else if (at(src, j).is(")") && --depth == 0) {
                    if (!colon)
                        break;
                    for (std::size_t k = colon + 1; k < j; ++k) {
                        if (at(src, k).kind == TokKind::Identifier &&
                            unorderedVars.count(at(src, k).text)) {
                            out.push_back(
                                {src.path, src.tokens[i].line,
                                 "determinism",
                                 "iteration over unordered "
                                 "container '" + at(src, k).text +
                                     "' has implementation-defined "
                                     "order; copy into a sorted "
                                     "container before emitting"});
                            break;
                        }
                    }
                    break;
                } else if (at(src, j).is(":") && depth == 1 && !colon) {
                    colon = j;
                }
            }
        }
    }
}

// ---------------------------------------------------------------- //
// checked-io: C stdio results silently discarded.                   //
// ---------------------------------------------------------------- //

void
checkCheckedIo(const SourceFile &src, const CheckContext &,
               std::vector<Finding> &out)
{
    static const std::set<std::string_view> ioCalls = {
        "fopen", "fclose", "fread", "fwrite", "fseek", "fflush"};

    for (std::size_t i = 0; i < src.tokens.size(); ++i) {
        const Token &tok = src.tokens[i];
        if (tok.kind != TokKind::Identifier ||
            ioCalls.count(tok.text) == 0 || !at(src, i + 1).is("("))
            continue;

        // First token of the call expression (absorb a std:: prefix).
        std::size_t first = i;
        if (at(src, i - 1).is("::") && at(src, i - 2).isIdent("std"))
            first = i - 2;

        const Token &ctx = at(src, first - 1);
        bool discarded =
            ctx.is(";") || ctx.is("{") || ctx.is("}") ||
            ctx.isIdent("else") || ctx.isIdent("do") ||
            ctx.line == 0; // file start
        if (ctx.is(")")) {
            // `if (...) fclose(f);` discards too — but a `(void)`
            // cast is the sanctioned explicit discard.
            bool voidCast = at(src, first - 2).isIdent("void") &&
                            at(src, first - 3).is("(");
            discarded = !voidCast;
        }
        if (!discarded)
            continue;
        out.push_back(
            {src.path, tok.line, "checked-io",
             "result of '" + tok.text + "' is discarded; check it "
             "(or cast to (void) with a comment when failure is "
             "genuinely ignorable)"});
    }
}

// ---------------------------------------------------------------- //
// exit-site: process exit outside the logging sanctioned site.      //
// ---------------------------------------------------------------- //

void
checkExitSite(const SourceFile &src, const CheckContext &,
              std::vector<Finding> &out)
{
    if (src.path == "src/util/logging.cc")
        return; // panic()/fatal() are the sanctioned exit paths

    static const std::set<std::string_view> exits = {
        "exit", "_exit", "_Exit", "quick_exit", "abort"};

    for (std::size_t i = 0; i < src.tokens.size(); ++i) {
        const Token &tok = src.tokens[i];
        if (tok.kind != TokKind::Identifier ||
            exits.count(tok.text) == 0 || !at(src, i + 1).is("("))
            continue;
        const Token &prev = at(src, i - 1);
        if (isMemberAccess(prev))
            continue; // someone's .exit() method
        if (prev.is("::") && !at(src, i - 2).isIdent("std"))
            continue; // Foo::exit(), not std::exit()
        out.push_back(
            {src.path, tok.line, "exit-site",
             "'" + tok.text + "()' outside src/util/logging.cc; use "
             "fatal() for user errors or panic() for internal bugs "
             "so every exit is logged and testable"});
    }
}

// ---------------------------------------------------------------- //
// fork-safety: process fan-out only in the serve sharder.           //
// ---------------------------------------------------------------- //

void
checkForkSafety(const SourceFile &src, const CheckContext &,
                std::vector<Finding> &out)
{
    if (src.path == "src/serve/sharder.cc")
        return; // the sanctioned process-sharding fan-out point

    static const std::set<std::string_view> forks = {"fork", "vfork"};

    for (std::size_t i = 0; i < src.tokens.size(); ++i) {
        const Token &tok = src.tokens[i];
        if (tok.kind != TokKind::Identifier ||
            forks.count(tok.text) == 0 || !at(src, i + 1).is("("))
            continue;
        const Token &prev = at(src, i - 1);
        if (isMemberAccess(prev))
            continue; // someone's .fork() method
        if (prev.is("::") &&
            at(src, i - 2).kind == TokKind::Identifier)
            continue; // Foo::fork(), not the syscall
        out.push_back(
            {src.path, tok.line, "fork-safety",
             "'" + tok.text + "()' outside src/serve/sharder.cc; "
             "process fan-out lives in the sharder so every child "
             "inherits known state (single-threaded parent, owned "
             "pipe, _exit on every path)"});
    }
}

// ---------------------------------------------------------------- //
// json-by-hand: JSON keys spelled inside string literals.           //
// ---------------------------------------------------------------- //

/**
 * True if @p text holds an escaped quote, a key of word characters
 * ([A-Za-z0-9_]+), an escaped quote and a colon: `\"key\":`.
 */
bool
spellsJsonKey(std::string_view text)
{
    auto isWord = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    for (std::size_t i = 0; i + 1 < text.size(); ++i) {
        if (text[i] != '\\' || text[i + 1] != '"')
            continue;
        std::size_t end = i + 2;
        while (end < text.size() && isWord(text[end]))
            ++end;
        if (end > i + 2 && text.substr(end, 3) == "\\\":")
            return true;
    }
    return false;
}

void
checkJsonByHand(const SourceFile &src, const CheckContext &,
                std::vector<Finding> &out)
{
    if (src.path == "src/util/json.cc" ||
        !(startsWith(src.path, "src/") || startsWith(src.path, "tools/")))
        return; // the writer itself; bench/ and tests/ may hand-roll

    for (const Token &tok : src.tokens) {
        if (tok.kind != TokKind::String || !spellsJsonKey(tok.text))
            continue;
        out.push_back(
            {src.path, tok.line, "json-by-hand",
             "string literal spells a JSON key; write JSON through "
             "json::Writer (util/json.hh), which owns escaping, number "
             "spelling and layout"});
    }
}

// ---------------------------------------------------------------- //
// include-guard: headers must be re-include safe.                   //
// ---------------------------------------------------------------- //

void
checkIncludeGuard(const SourceFile &src, const CheckContext &,
                  std::vector<Finding> &out)
{
    auto len = src.path.size();
    bool header =
        (len > 3 && src.path.compare(len - 3, 3, ".hh") == 0) ||
        (len > 4 && src.path.compare(len - 4, 4, ".hpp") == 0);
    if (!header || src.tokens.empty())
        return;

    const Token &t0 = at(src, 0);
    bool guarded = false;
    if (t0.is("#")) {
        if (at(src, 1).isIdent("pragma") && at(src, 2).isIdent("once"))
            guarded = true;
        if (at(src, 1).isIdent("ifndef") &&
            at(src, 2).kind == TokKind::Identifier &&
            at(src, 3).is("#") && at(src, 4).isIdent("define") &&
            at(src, 5).text == at(src, 2).text)
            guarded = true;
    }
    if (!guarded)
        out.push_back(
            {src.path, t0.line, "include-guard",
             "header does not open with an #ifndef/#define include "
             "guard (or #pragma once)"});
}

// ---------------------------------------------------------------- //
// naked-assert: assert() compiles out of release builds.            //
// ---------------------------------------------------------------- //

void
checkNakedAssert(const SourceFile &src, const CheckContext &,
                 std::vector<Finding> &out)
{
    for (std::size_t i = 0; i < src.tokens.size(); ++i) {
        const Token &tok = src.tokens[i];
        if (!tok.isIdent("assert") || !at(src, i + 1).is("("))
            continue;
        if (isMemberAccess(at(src, i - 1)) || at(src, i - 1).is("::"))
            continue;
        out.push_back(
            {src.path, tok.line, "naked-assert",
             "assert() is compiled out under NDEBUG; use avf_assert "
             "(util/logging.hh), which stays on in release builds"});
    }
}

// ---------------------------------------------------------------- //
// metric-name-discipline: registry names must be snake_case,        //
// registered once per file, and never from per-cycle hot paths.     //
// ---------------------------------------------------------------- //

/** The exported-name contract from obs/metrics: [a-z][a-z0-9_]*. */
bool
isSnakeCase(std::string_view name)
{
    if (name.empty() || name[0] < 'a' || name[0] > 'z')
        return false;
    for (char c : name)
        if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
              c == '_'))
            return false;
    return true;
}

void
checkMetricNames(const SourceFile &src, const CheckContext &,
                 std::vector<Finding> &out)
{
    static const std::set<std::string_view> registrars = {
        "registerCounter", "registerGauge", "registerHistogram",
        "registerSeries", "registerBlameUnit"};
    // Pass 1: token spans that execute per cycle — the argument list
    // of any call to a hot root (RepoIndex::isHotRoot; covers
    // callbacks hooked via lambdas) and, for a definition, its body
    // braces. Registration there turns a one-time setup cost into a
    // per-cycle string lookup.
    std::vector<std::pair<std::size_t, std::size_t>> hotSpans;
    for (std::size_t i = 0; i < src.tokens.size(); ++i) {
        if (src.tokens[i].kind != TokKind::Identifier ||
            !RepoIndex::isHotRoot(src.tokens[i].text) ||
            !at(src, i + 1).is("("))
            continue;
        int depth = 0;
        std::size_t close = i + 1;
        for (; close < src.tokens.size(); ++close) {
            if (at(src, close).is("("))
                ++depth;
            else if (at(src, close).is(")") && --depth == 0)
                break;
        }
        hotSpans.emplace_back(i + 1, close);
        // A definition: `)` then optional qualifiers, then `{`.
        std::size_t j = close + 1;
        while (at(src, j).isIdent("const") ||
               at(src, j).isIdent("noexcept") ||
               at(src, j).isIdent("override") ||
               at(src, j).isIdent("final"))
            ++j;
        if (!at(src, j).is("{"))
            continue;
        int braces = 0;
        std::size_t end = j;
        for (; end < src.tokens.size(); ++end) {
            if (at(src, end).is("{"))
                ++braces;
            else if (at(src, end).is("}") && --braces == 0)
                break;
        }
        hotSpans.emplace_back(j, end);
    }
    auto inHotSpan = [&](std::size_t i) {
        for (const auto &[lo, hi] : hotSpans)
            if (i > lo && i < hi)
                return true;
        return false;
    };

    // Pass 2: the register* call sites.
    std::map<std::string, int> firstSeen;
    for (std::size_t i = 0; i < src.tokens.size(); ++i) {
        const Token &tok = src.tokens[i];
        if (tok.kind != TokKind::Identifier ||
            registrars.count(tok.text) == 0 || !at(src, i + 1).is("("))
            continue;
        // The declarations/definitions in obs/metrics take
        // `std::string name`, not a literal — only call sites with
        // an argument list reach the checks below meaningfully.
        if (inHotSpan(i))
            out.push_back(
                {src.path, tok.line, "metric-name-discipline",
                 "'" + tok.text + "' called from a per-cycle hot "
                 "path (onCycle/nextWake/onRetire/onErrorHop/step); "
                 "register metrics once at setup and record through "
                 "the Id"});
        const Token &arg = at(src, i + 2);
        if (arg.kind != TokKind::String || arg.text.size() < 2 ||
            arg.text.front() != '"' || arg.text.back() != '"')
            continue; // dynamic or raw-string name: not checkable
        std::string name = arg.text.substr(1, arg.text.size() - 2);
        if (!isSnakeCase(name)) {
            out.push_back(
                {src.path, tok.line, "metric-name-discipline",
                 "metric name '" + name + "' is not snake_case; "
                 "exported names must match [a-z][a-z0-9_]*"});
            continue;
        }
        // Only a complete literal name (next token closes the call
        // or separates arguments) counts for the once-per-file rule;
        // `"prefix_" + var` registers a family, not one name.
        const Token &next = at(src, i + 3);
        if (!next.is(")") && !next.is(","))
            continue;
        auto [it, inserted] = firstSeen.emplace(name, tok.line);
        if (!inserted)
            out.push_back(
                {src.path, tok.line, "metric-name-discipline",
                 "metric '" + name + "' already registered in this "
                 "file (line " + std::to_string(it->second) +
                 "); a name maps to one instrument"});
    }
}

// ---------------------------------------------------------------- //
// shared-state-discipline: unsynchronized writes to static storage. //
// ---------------------------------------------------------------- //

/**
 * Files whose whole job is owning process-wide mutable state; their
 * statics are exempt. Keep this list short — prefer std::atomic or a
 * guarded_by annotation at the declaration.
 */
const std::set<std::string_view> stateOwners = {
    "src/harness/config_loader.cc"};

/** Token that can end a declarator's type: `int x`, `auto &x`. */
bool
declPrefix(const Token &prev)
{
    static const std::set<std::string_view> nonTypes = {
        "return", "else", "do", "throw", "case", "goto", "delete"};
    return (prev.kind == TokKind::Identifier &&
            nonTypes.count(prev.text) == 0) ||
           prev.is("&") || prev.is("*");
}

/**
 * True when @p name has a declaration-looking occurrence inside
 * @p fn's body before token @p before — a local shadowing the static,
 * e.g. `int count = 0;` ahead of `count += n;`.
 */
bool
shadowedInFunction(const SourceFile &src, const FunctionDef &fn,
                   const VarDecl &v, std::size_t before)
{
    const std::string &name = v.name;
    for (std::size_t k = fn.bodyBegin + 1;
         k < before && k < fn.bodyEnd; ++k) {
        if (!at(src, k).isIdent(name))
            continue;
        if (k >= v.stmtBegin && k <= v.stmtEnd)
            continue; // a function-local static's own declaration
        const Token &next = at(src, k + 1);
        if (declPrefix(at(src, k - 1)) &&
            (next.is("=") || next.is(";") || next.is("{") ||
             next.is("(") || next.is(",")))
            return true;
    }
    return false;
}

void
checkSharedState(const SourceFile &src, const CheckContext &ctx,
                 std::vector<Finding> &out)
{
    if (stateOwners.count(src.path) > 0)
        return;

    for (const VarDecl &v : ctx.model.statics) {
        if (v.isConst || v.isAtomic || v.threadLocal || v.isMutex ||
            v.isLock || v.isCondVar)
            continue;
        if (!v.guardedBy.empty()) {
            if (ctx.model.findMutex(v.guardedBy))
                continue;
            out.push_back(
                {src.path, v.line, "shared-state-discipline",
                 "guarded_by(" + v.guardedBy + ") on '" + v.name +
                     "' names no mutex declared in this file; the "
                     "annotation must point at a real lock"});
            continue;
        }
        // Writes outside the declaration's own initializer.
        for (std::size_t i = 0; i < src.tokens.size(); ++i) {
            const Token &tok = src.tokens[i];
            if (!tok.isIdent(v.name) ||
                (i >= v.stmtBegin && i <= v.stmtEnd))
                continue;
            if (isMemberAccess(at(src, i - 1)))
                continue; // x.name: some other object's member
            if (declPrefix(at(src, i - 1)))
                continue; // `auto name = ...`: declares a local copy
            bool write = at(src, i - 1).is("++") ||
                         at(src, i - 1).is("--");
            std::size_t j = skipSubscript(src, i + 1);
            if (isAssignOp(at(src, j)) || at(src, j).is("++") ||
                at(src, j).is("--"))
                write = true;
            if (!write)
                continue;
            const FunctionDef *fn = ctx.model.enclosingFunction(i);
            if (fn && shadowedInFunction(src, *fn, v, i))
                continue;
            out.push_back(
                {src.path, tok.line, "shared-state-discipline",
                 "write to shared static '" + v.name +
                     "' (declared line " + std::to_string(v.line) +
                     ") without synchronization; make it std::atomic, "
                     "annotate the declaration with `avflint: "
                     "guarded_by(<mutex>)` naming a mutex in this "
                     "file, or move it into a sanctioned owner file"});
        }
    }
}

// ---------------------------------------------------------------- //
// hot-path-alloc: allocation inside per-cycle code.                 //
// ---------------------------------------------------------------- //

void
checkHotPathAlloc(const SourceFile &src, const CheckContext &ctx,
                  std::vector<Finding> &out)
{
    static const std::set<std::string_view> allocCalls = {
        "malloc", "calloc", "realloc", "strdup"};
    static const std::set<std::string_view> allocTypes = {
        "string", "vector"};
    static const std::set<std::string_view> appenders = {
        "push_back", "emplace_back"};

    // Receivers that reserve capacity anywhere in this file may
    // append: the sanctioned pattern is reserve() at setup (ctor,
    // configure) and amortized growth after — that setup function is
    // rarely the hot body itself.
    std::set<std::string> reserved;
    for (const FunctionDef &fn : ctx.model.functions)
        for (const CallSite &c : fn.calls)
            if (c.name == "reserve" && !c.receiver.empty())
                reserved.insert(c.receiver);

    for (const FunctionDef &fn : ctx.model.functions) {
        if (ctx.index.hotReachable.count(fn.name) == 0)
            continue;
        const std::string chain = ctx.index.hotChain(fn.name);
        const std::string where =
            chain == fn.name
                ? "per-cycle hot path '" + fn.name + "'"
                : "the hot path (" + chain + ")";

        for (std::size_t i = fn.bodyBegin + 1; i < fn.bodyEnd; ++i) {
            const Token &tok = src.tokens[i];
            if (tok.kind != TokKind::Identifier)
                continue;

            if (tok.text == "new") {
                if (at(src, i - 1).isIdent("operator"))
                    continue;
                out.push_back(
                    {src.path, tok.line, "hot-path-alloc",
                     "'new' inside " + where + "; per-cycle code "
                     "must not hit the allocator — preallocate at "
                     "setup"});
                continue;
            }

            if (allocCalls.count(tok.text) > 0 &&
                at(src, i + 1).is("(") &&
                !isMemberAccess(at(src, i - 1))) {
                out.push_back(
                    {src.path, tok.line, "hot-path-alloc",
                     "'" + tok.text + "()' inside " + where +
                         "; per-cycle code must not hit the "
                         "allocator — preallocate at setup"});
                continue;
            }

            if (allocTypes.count(tok.text) > 0) {
                // `static std::vector<...>` is one-time setup even in
                // a hot body; walk back over std/:: / cv qualifiers.
                std::size_t b = i;
                while (at(src, b - 1).is("::") ||
                       at(src, b - 1).isIdent("std") ||
                       at(src, b - 1).isIdent("const"))
                    --b;
                if (at(src, b - 1).isIdent("static") ||
                    at(src, b - 1).isIdent("constexpr"))
                    continue;
                std::size_t j = i + 1;
                if (at(src, j).is("<")) {
                    int depth = 0;
                    for (; j < src.tokens.size(); ++j) {
                        if (at(src, j).is("<"))
                            ++depth;
                        else if (at(src, j).is(">") && --depth == 0) {
                            ++j;
                            break;
                        } else if (at(src, j).is(">>") &&
                                   (depth -= 2) <= 0) {
                            ++j;
                            break;
                        }
                    }
                }
                if (at(src, j).is("&") || at(src, j).is("*"))
                    continue; // reference/pointer: no construction
                if (at(src, j).kind == TokKind::Identifier ||
                    at(src, j).is("(") || at(src, j).is("{"))
                    out.push_back(
                        {src.path, tok.line, "hot-path-alloc",
                         "std::" + tok.text + " constructed inside " +
                             where + "; reuse a preallocated buffer "
                             "owned by the caller"});
                continue;
            }

            if (appenders.count(tok.text) > 0 &&
                at(src, i + 1).is("(") &&
                isMemberAccess(at(src, i - 1))) {
                std::string recv;
                if (at(src, i - 2).kind == TokKind::Identifier)
                    recv = at(src, i - 2).text;
                if (!recv.empty() && reserved.count(recv) > 0)
                    continue;
                out.push_back(
                    {src.path, tok.line, "hot-path-alloc",
                     "'" + tok.text + "' on '" +
                         (recv.empty() ? std::string("<expr>") : recv) +
                         "' inside " + where + " with no reserve() "
                         "anywhere in this file; growth reallocates "
                         "per-cycle — reserve at setup"});
            }
        }
    }
}

// ---------------------------------------------------------------- //
// env-knob-discipline: getenv only inside the config loader.        //
// ---------------------------------------------------------------- //

void
checkEnvKnob(const SourceFile &src, const CheckContext &ctx,
             std::vector<Finding> &out)
{
    static const std::string sanctioned =
        "src/harness/config_loader.cc";
    if (src.path == sanctioned)
        return;

    for (const FunctionDef &fn : ctx.model.functions) {
        for (const CallSite &c : fn.calls) {
            if (!c.receiver.empty())
                continue; // x.getenv(): somebody else's method
            if (c.name == "getenv") {
                out.push_back(
                    {src.path, c.line, "env-knob-discipline",
                     "getenv() outside " + sanctioned + "; every "
                     "knob goes through loadRunOptions so it is "
                     "validated and recorded once"});
                continue;
            }
            auto w = ctx.index.envWrappers.find(c.name);
            if (w == ctx.index.envWrappers.end())
                continue;
            if (w->second.count(src.path) > 0 ||
                w->second.count(sanctioned) > 0)
                continue; // its own file, or a sanctioned-loader API
            out.push_back(
                {src.path, c.line, "env-knob-discipline",
                 "'" + c.name + "' wraps getenv (defined in " +
                     *w->second.begin() + "), so this call reads the "
                     "environment outside " + sanctioned +
                     "; route the knob through loadRunOptions"});
        }
    }
}

// ---------------------------------------------------------------- //
// lock-discipline: no naked lock()/unlock() on mutexes.             //
// ---------------------------------------------------------------- //

void
checkLockDiscipline(const SourceFile &src, const CheckContext &ctx,
                    std::vector<Finding> &out)
{
    static const std::set<std::string_view> verbs = {
        "lock", "unlock", "try_lock"};

    for (std::size_t i = 0; i < src.tokens.size(); ++i) {
        const Token &tok = src.tokens[i];
        if (tok.kind != TokKind::Identifier ||
            verbs.count(tok.text) == 0 || !at(src, i + 1).is("("))
            continue;
        if (!isMemberAccess(at(src, i - 1)))
            continue; // std::lock(a, b) or a declaration
        std::string recv;
        if (at(src, i - 2).kind == TokKind::Identifier)
            recv = at(src, i - 2).text;
        if (!recv.empty()) {
            const VarDecl *d = ctx.model.findSync(recv);
            if (d && d->isLock)
                continue; // RAII guard object: relocking is its job
        }
        out.push_back(
            {src.path, tok.line, "lock-discipline",
             "naked '." + tok.text + "()' on '" +
                 (recv.empty() ? std::string("<expr>") : recv) +
                 "'; use std::lock_guard / std::unique_lock / "
                 "std::scoped_lock so the unlock survives early "
                 "returns and exceptions"});
    }
}

} // namespace

std::string_view
severityName(Severity s)
{
    return s == Severity::Warn ? "warn" : "error";
}

std::string
Finding::format() const
{
    return file + ":" + std::to_string(line) + ": [" + id + "] " +
           message;
}

const std::vector<CheckInfo> &
checkRegistry()
{
    static const std::vector<CheckInfo> registry = {
        {"error-bit",
         "error-bit state written outside kill/carry/merge helpers",
         Severity::Error, checkErrorBit},
        {"injection-port-discipline",
         "raw injections or error-plane writes bypassing "
         "core::InjectionPort",
         Severity::Error, checkInjectionPort},
        {"determinism",
         "hidden entropy, wall-clock reads, unordered iteration",
         Severity::Error, checkDeterminism},
        {"checked-io", "C stdio results silently discarded",
         Severity::Error, checkCheckedIo},
        {"exit-site", "process exit outside src/util/logging.cc",
         Severity::Error, checkExitSite},
        {"fork-safety",
         "fork()/vfork() outside the serve process sharder",
         Severity::Error, checkForkSafety},
        {"json-by-hand", "JSON written by hand instead of json::Writer",
         Severity::Error, checkJsonByHand},
        {"include-guard", "headers must carry an include guard",
         Severity::Error, checkIncludeGuard},
        {"naked-assert", "assert() where avf_assert is required",
         Severity::Error, checkNakedAssert},
        {"metric-name-discipline",
         "metric names snake_case, registered once, off hot paths",
         Severity::Error, checkMetricNames},
        {"shared-state-discipline",
         "static storage written without atomic/guarded_by/owner",
         Severity::Error, checkSharedState},
        {"hot-path-alloc",
         "allocation inside per-cycle hot paths (call-graph reach)",
         Severity::Warn, checkHotPathAlloc},
        {"env-knob-discipline",
         "getenv (direct or wrapped) outside the config loader",
         Severity::Error, checkEnvKnob},
        {"lock-discipline",
         "naked mutex lock/unlock instead of RAII guards",
         Severity::Error, checkLockDiscipline},
    };
    return registry;
}

void
Linter::addFile(SourceFile src)
{
    models.push_back(parseFile(src));
    sources.push_back(std::move(src));
}

std::vector<Finding>
Linter::run()
{
    const RepoIndex index = RepoIndex::build(models);
    std::vector<Finding> all;
    for (std::size_t k = 0; k < sources.size(); ++k) {
        const SourceFile &src = sources[k];
        const CheckContext ctx{models[k], index};
        std::vector<Finding> raw;
        for (const CheckInfo &check : checkRegistry()) {
            const std::size_t before = raw.size();
            // Wall time feeds only the report's perf counters, never
            // results — avflint: allow(determinism) on both reads.
            const auto t0 = std::chrono::steady_clock::now();
            check.run(src, ctx, raw);
            const auto t1 = std::chrono::steady_clock::now(); // avflint: allow(determinism)
            micros[std::string(check.id)] +=
                std::chrono::duration_cast<std::chrono::microseconds>(
                    t1 - t0)
                    .count();
            for (std::size_t f = before; f < raw.size(); ++f)
                raw[f].severity = check.severity;
        }
        for (Finding &f : raw)
            if (!src.suppressed(f.line, f.id))
                all.push_back(std::move(f));
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const Finding &a, const Finding &b) {
                         return a.file != b.file ? a.file < b.file
                                                 : a.line < b.line;
                     });
    return all;
}

std::vector<Finding>
lintText(const std::string &path, std::string_view text)
{
    Linter linter;
    linter.addFile(lex(path, text));
    return linter.run();
}

std::vector<std::string>
collectFiles(const std::string &root,
             const std::vector<std::string> &paths)
{
    auto lintable = [](const fs::path &p) {
        std::string ext = p.extension().string();
        return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
               ext == ".hpp";
    };
    auto skipDir = [](const fs::path &p) {
        std::string name = p.filename().string();
        return name == ".git" || name == "results" ||
               startsWith(name, "build");
    };

    std::set<std::string> found;
    for (const std::string &arg : paths) {
        fs::path base = fs::path(root) / arg;
        std::error_code ec;
        if (fs::is_regular_file(base, ec)) {
            if (lintable(base))
                found.insert(arg);
            continue;
        }
        fs::recursive_directory_iterator it(base, ec), end;
        for (; !ec && it != end; it.increment(ec)) {
            if (it->is_directory() && skipDir(it->path())) {
                it.disable_recursion_pending();
                continue;
            }
            if (it->is_regular_file() && lintable(it->path()))
                found.insert(
                    fs::relative(it->path(), root).generic_string());
        }
    }
    return {found.begin(), found.end()};
}

} // namespace avf::lint
