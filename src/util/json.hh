/**
 * @file
 * The repo's one JSON reader and one JSON writer.
 *
 * parse() reads strict RFC 8259 JSON into an ordered document tree:
 * object keys keep file order, so reports iterate deterministically,
 * and the first error is reported with its byte offset instead of
 * guessed around. Numbers keep double precision plus a lossless
 * uint64 path for counters.
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

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
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

    /** Numeric value as uint64 (Double truncates if exact; else 0). */
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
