/**
 * @file
 * The repo's one JSON reader and one JSON writer.
 *
 * parse() reads strict RFC 8259 JSON into an ordered document tree:
 * object keys keep file order, so reports iterate deterministically,
 * and the first error is reported with its byte offset instead of
 * guessed around. Numbers keep double precision plus a lossless
 * uint64 path for counters. exactInteger() and Reader are the one
 * checked way to read numbers back out: every decoder of a document
 * Writer wrote (task codec, checkpoints, requests, configs, the
 * avf-report loaders) rejects a number of the wrong kind, a fraction
 * or an integer outside its field instead of reading 0 or truncating.
 *
 * Writer emits every JSON document src/ and tools/ produce: the task
 * wire codec, serve requests, responses, feeds and checkpoints, the
 * METRICS / ROOTCAUSE / lifecycle / TRACE exports and the reports.
 * It owns the four decisions that fix an export's bytes, so no
 * emitter makes them on its own:
 *   - strings pass through escape();
 *   - numbers: exact() is %.17g (round-trips every finite double),
 *     fixed() is %.Nf, integers print with std::to_chars;
 *   - separators: Compact writes "," and ":", Spaced ", " and ": ";
 *   - line breaks: a container is Inline or Lines. A Lines container
 *     puts each member on its own line, indented two spaces per
 *     enclosing Lines container, and closes on its own line unless
 *     it is empty.
 * Each format picks its style and layouts in code; none is a setting.
 */

#ifndef AVF_UTIL_JSON_HH
#define AVF_UTIL_JSON_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace avf::json
{

/** One JSON value; a tagged union over the seven RFC 8259 kinds
 *  (integers get their own tag so 64-bit counters survive). */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        /** Number that parsed exactly as an unsigned 64-bit integer. */
        Uint,
        /** Any other number. */
        Double,
        String,
        Array,
        Object
    };

    /** Object member list; keeps source order. */
    using Members = std::vector<std::pair<std::string, Value>>;

    Kind kind = Kind::Null;
    bool boolean = false;
    std::uint64_t uintValue = 0;
    double number = 0.0;
    std::string text;
    std::vector<Value> items; ///< Array elements
    Members members;          ///< Object members

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const
    {
        return kind == Kind::Uint || kind == Kind::Double;
    }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Numeric value as double (Uint converts; else 0). */
    double asDouble() const;

    /** Numeric value as uint64 (Uint only; else 0). Decoders of
     *  outside input read through exactInteger() or Reader instead. */
    std::uint64_t asUint() const;

    /**
     * Object member lookup, first match; nullptr when absent or when
     * this value is not an object.
     */
    const Value *find(std::string_view key) const;

    /** find() that also requires the member to be kind @p k. */
    const Value *find(std::string_view key, Kind k) const;
};

/**
 * Parse @p input as one JSON document (trailing whitespace allowed,
 * trailing garbage is an error).
 *
 * @param input the JSON text.
 * @param out receives the document on success; unspecified on error.
 * @param error receives "offset N: message" on failure.
 * @return true on success.
 */
bool parse(std::string_view input, Value &out, std::string &error);

/**
 * @p value as an integer of type T, exactly. An unsigned T takes only
 * a Uint (what Writer::uint() writes). A signed T also takes an
 * integral Double within +-2^53: a negative Writer::sint(), or a
 * whole number written by exact() or fixed(), such as an index kept
 * in a metrics series.
 * @return false, leaving @p out unchanged, when @p value is any other
 * kind, fractional, or outside T's range.
 */
template <typename T>
bool
exactInteger(const Value &value, T &out)
{
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    if (value.kind == Value::Kind::Uint) {
        if (value.uintValue >
            static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
            return false;
        out = static_cast<T>(value.uintValue);
        return true;
    }
    if constexpr (std::is_signed_v<T>) {
        // Past 2^53 a double no longer holds every integer.
        constexpr double exactLimit = 9007199254740992.0;
        constexpr double lo = std::max(
            static_cast<double>(std::numeric_limits<T>::min()),
            -exactLimit);
        constexpr double hi = std::min(
            static_cast<double>(std::numeric_limits<T>::max()),
            exactLimit);
        const double x = value.number;
        if (value.kind == Value::Kind::Double && x >= lo && x <= hi &&
            std::floor(x) == x) {
            out = static_cast<T>(x);
            return true;
        }
    }
    return false;
}

/**
 * Checked reads of numbers out of a parsed document, for decoders of
 * what Writer wrote. A double takes any number; an integer goes
 * through exactInteger(), so it is exact and fits its destination;
 * an std::array must have exactly its length.
 *
 * A failed read records "<prefix><message>" in the caller's error
 * string, naming the member, and returns false; once a read has
 * failed, later failures keep the first message, so a decoder chains
 * reads with && and reports what broke first. No text is built until
 * a read fails.
 */
class Reader
{
  public:
    /** Failures go to @p error; @p prefix (say "checkpoint: ") must
     *  outlive the reader. */
    Reader(std::string &error, std::string_view prefix)
        : error(error), prefix(prefix)
    {}

    /** Record "<prefix><what>" unless a failure is already recorded.
     *  @return false. */
    bool fail(std::string_view what);

    /** @p value as one number; @p name labels it in a failure. */
    template <typename T>
    bool
    read(const Value &value, const char *name, T &out)
    {
        return convert(value, out) || fail(name, "", expect<T>(false));
    }

    /** An array of exactly N numbers. */
    template <typename T, std::size_t N>
    bool
    read(const Value &value, const char *name, std::array<T, N> &out)
    {
        bool ok = value.isArray() && value.items.size() == N;
        for (std::size_t i = 0; ok && i < N; ++i)
            ok = convert(value.items[i], out[i]);
        return ok || fail(name, "an array of " + std::to_string(N) + " ",
                          expect<T>(true));
    }

    /** An array of numbers of any length. */
    template <typename T>
    bool
    read(const Value &value, const char *name, std::vector<T> &out)
    {
        bool ok = value.isArray();
        out.assign(ok ? value.items.size() : 0, T{});
        for (std::size_t i = 0; ok && i < out.size(); ++i)
            ok = convert(value.items[i], out[i]);
        return ok || fail(name, "an array of ", expect<T>(true));
    }

    /** An array of [name, number] pairs; the pair's name labels its
     *  number. */
    template <typename T>
    bool
    read(const Value &value, const char *name,
         std::vector<std::pair<std::string, T>> &out)
    {
        constexpr std::string_view shape =
            "an array of [name, value] pairs";
        if (!value.isArray())
            return fail(name, shape, "");
        out.clear();
        out.reserve(value.items.size());
        for (const Value &item : value.items) {
            if (!item.isArray() || item.items.size() != 2 ||
                !item.items[0].isString())
                return fail(name, shape, "");
            T number{};
            if (!read(item.items[1], item.items[0].text.c_str(), number))
                return false;
            out.emplace_back(item.items[0].text, number);
        }
        return true;
    }

    /** Member @p key of @p object, read as read() does. */
    template <typename Out>
    bool
    member(const Value &object, const char *key, Out &out)
    {
        const Value *value = object.find(key);
        return value ? read(*value, key, out) : missing(key);
    }

  private:
    template <typename T>
    static bool
    convert(const Value &value, T &out)
    {
        if constexpr (std::is_floating_point_v<T>) {
            if (!value.isNumber())
                return false;
            out = value.asDouble();
            return true;
        } else {
            return exactInteger(value, out);
        }
    }

    /** What a T must be: "a number", "integers in 0..255", ... */
    template <typename T>
    static std::string
    expect(bool plural)
    {
        if constexpr (std::is_floating_point_v<T>) {
            return plural ? "numbers" : "a number";
        } else {
            return (plural ? "integers in " : "an integer in ") +
                   std::to_string(std::numeric_limits<T>::min()) + ".." +
                   std::to_string(std::numeric_limits<T>::max());
        }
    }

    /** Record '"<name>" must be <shape><kind>'. */
    bool fail(const char *name, std::string_view shape,
              std::string_view kind);
    /** Record 'missing numeric "<key>"'. */
    bool missing(const char *key);

    std::string &error;
    std::string_view prefix;
    bool failed = false;
};

/**
 * Append @p text to @p out as the body of a JSON string (no quotes):
 * '"' and '\' get a backslash, \n \r \t their short escapes, and
 * every other byte below 0x20 the \u00XX form. Other bytes, UTF-8
 * included, pass through unchanged.
 */
void escape(std::string &out, std::string_view text);

/**
 * Streaming JSON writer over a caller-owned string or a stdio file.
 * Calls nest like the document: startObject() ... endObject(), with
 * member() naming each object member before its value. File-backed
 * writers hold at most a small buffer, so an export of any size is
 * never built in memory; call finish() to flush it and learn whether
 * every write reached the file.
 */
class Writer
{
  public:
    /** Separator spelling; see the file comment. */
    enum class Style
    {
        Compact,
        Spaced
    };

    /** Container layout; see the file comment. */
    enum class Layout
    {
        Inline,
        Lines
    };

    /** Append the document to @p out. */
    Writer(std::string &out, Style style)
        : buf(out), compact(style == Style::Compact)
    {}
    /** Write the document to @p file, which stays open and owned by
     *  the caller. */
    Writer(std::FILE *file, Style style);
    /** Calls finish(); call it yourself to learn of write errors. */
    ~Writer();

    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    /** Open an object or array (as a value: at top level, as an
     *  array item, or after member()); close it with its end*(). */
    Writer &startObject(Layout layout = Layout::Inline)
    {
        return nest(true, layout);
    }
    Writer &startArray(Layout layout = Layout::Inline)
    {
        return nest(false, layout);
    }
    Writer &endObject() { return unnest(true); }
    Writer &endArray() { return unnest(false); }

    /** Name the next member of the innermost object. */
    Writer &member(std::string_view key);

    /** A string value, escaped. */
    Writer &text(std::string_view value);
    Writer &uint(std::uint64_t value);
    Writer &sint(std::int64_t value);
    /** A double as %.17g; @p value must be finite. */
    Writer &exact(double value);
    /** A double as %.<places>f (display formats, not round-trips). */
    Writer &fixed(double value, int places);
    Writer &boolean(bool value) { return put(value ? "true" : "false"); }

    /** End a top-level line: a JSON Lines record or a file's last
     *  line. Only valid between top-level values. */
    Writer &newline();

    /**
     * Flush a file-backed writer's buffer. @return false when any
     * write to the file failed (always true for a string writer).
     */
    bool finish();

  private:
    /** One open container. */
    struct Frame
    {
        bool lines = false;
        bool object = false;
        bool any = false; ///< holds a member or item already
    };

    /** Deepest nesting any format needs, with headroom. */
    static constexpr int maxDepth = 16;
    /** File mode hands the buffer to the file past this size. */
    static constexpr std::size_t spillBytes = 1 << 16;

    /** Separator, line break and indent before a member or item. */
    void separate();
    /** What must precede a value: nothing after member(), else
     *  separate(). */
    void prefix();
    /** prefix(), then @p token verbatim. */
    Writer &put(std::string_view token);
    Writer &nest(bool object, Layout layout);
    Writer &unnest(bool object);
    void spill()
    {
        if (file && buf.size() >= spillBytes)
            (void)finish();
    }

    std::string own;
    std::string &buf;
    std::FILE *file = nullptr;
    bool compact = false;
    bool failed = false;
    /** A member() name was written and awaits its value. */
    bool afterKey = false;
    int depth = 0;
    /** Open Lines containers; members indent two spaces each. */
    int breaks = 0;
    Frame frames[maxDepth];
};

} // namespace avf::json

#endif // AVF_UTIL_JSON_HH
