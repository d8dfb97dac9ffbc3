#include "util/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace avf
{

namespace
{

/** Serializes sink writes only — never held while resolving the
 *  level, because resolution can fatal() back into the sink. */
std::mutex sinkMutex;

/** Resolved threshold; -1 until AVF_LOG_LEVEL has been consulted. */
std::atomic<int> currentLevel{-1};

/**
 * Resolve AVF_LOG_LEVEL once, strictly: unset/empty means Info, any
 * other value must be one of the four level names. Runs outside
 * sinkMutex so the fatal() path for a junk value can emit.
 */
int
loadLevelFromEnv()
{
    // AVF_LOG_LEVEL must be readable before any config file loads —
    // logging is what reports loader failures — and the value is
    // strict-validated by parseLogLevel (fatal() on junk), so this
    // is the one read outside the config loader.
    // avflint: allow(env-knob-discipline)
    const char *val = std::getenv("AVF_LOG_LEVEL");
    if (!val || !*val)
        return static_cast<int>(LogLevel::Info);
    return static_cast<int>(parseLogLevel(val));
}

int
resolvedLevel()
{
    int level = currentLevel.load(std::memory_order_relaxed);
    if (level >= 0)
        return level;
    const int fromEnv = loadLevelFromEnv();
    // Racing resolvers compute the same value; only a concurrent
    // setLogLevel() can differ, and it wins — never clobber it.
    if (currentLevel.compare_exchange_strong(
            level, fromEnv, std::memory_order_relaxed))
        return fromEnv;
    return level;
}

/**
 * The single sink: takes a fully-assembled "tag: message" line and
 * hands it to the stream in one write, under the lock — worker
 * threads can never interleave mid-line.
 */
void
emitRaw(std::string text)
{
    text += '\n';
    std::lock_guard<std::mutex> lock(sinkMutex);
    (void)std::fwrite(text.data(), 1, text.size(), stderr);
}

/** Render a printf-style message into a std::string. */
std::string
vformat(const char *fmt, va_list args)
{
    va_list measure;
    va_copy(measure, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, measure);
    va_end(measure);
    if (needed < 0)
        needed = 0;
    // Log lines are rendered only past the severity filter (or on
    // panic), never on the per-cycle simulation path.
    // avflint: allow(hot-path-alloc)
    std::string text(static_cast<std::size_t>(needed), '\0');
    std::vsnprintf(text.data(), static_cast<std::size_t>(needed) + 1,
                   fmt, args);
    return text;
}

/** Assemble and emit one "tag: message" line. */
void
vemitLine(const char *tag, const char *fmt, va_list args)
{
    // Same cold path as vformat. avflint: allow(hot-path-alloc)
    emitRaw(std::string(tag) + ": " + vformat(fmt, args));
}

/** Severity-filtered emission for warn/inform/debugLog. */
void
vreport(LogLevel level, const char *tag, const char *fmt,
        va_list args)
{
    if (static_cast<int>(level) < resolvedLevel())
        return;
    vemitLine(tag, fmt, args);
}

} // namespace

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vemitLine("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vemitLine("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport(LogLevel::Warn, "warn", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport(LogLevel::Info, "info", fmt, args);
    va_end(args);
}

void
debugLog(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport(LogLevel::Debug, "debug", fmt, args);
    va_end(args);
}

void
panicAt(const char *file, int line, const char *cond, const char *fmt,
        ...)
{
    va_list args;
    va_start(args, fmt);
    const std::string message = vformat(fmt, args);
    va_end(args);
    // Two lines would risk interleaving; fold location and message
    // into one panic line. The condition and file are text, not a
    // format: passed through "%s", a '%' in either prints as itself.
    panic("assertion '%s' failed at %s:%d: %s", cond, file, line,
          message.c_str());
}

void
panicAt(const char *file, int line, const char *cond)
{
    panicAt(file, line, cond, "%s", "invariant violated");
}

LogLevel
parseLogLevel(const char *name)
{
    if (std::strcmp(name, "debug") == 0)
        return LogLevel::Debug;
    if (std::strcmp(name, "info") == 0)
        return LogLevel::Info;
    if (std::strcmp(name, "warn") == 0)
        return LogLevel::Warn;
    if (std::strcmp(name, "error") == 0)
        return LogLevel::Error;
    fatal("'%s' is not a log level (use debug|info|warn|error)",
          name);
}

void
setLogLevel(LogLevel level)
{
    currentLevel.store(static_cast<int>(level),
                       std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return static_cast<LogLevel>(resolvedLevel());
}

void
setQuiet(bool quiet)
{
    setLogLevel(quiet ? LogLevel::Error : LogLevel::Info);
}

bool
isQuiet()
{
    return logLevel() > LogLevel::Warn;
}

} // namespace avf
