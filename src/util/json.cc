#include "util/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/logging.hh"

namespace avf::json
{

namespace
{

/** Parser state: cursor over the input plus the first error. */
struct Parser
{
    std::string_view in;
    std::size_t pos = 0;
    std::string error;
    /** Nesting guard: malformed deeply-nested input must fail
     *  cleanly instead of exhausting the stack. */
    int depth = 0;
    static constexpr int maxDepth = 128;

    bool fail(const std::string &message)
    {
        if (error.empty())
            error = "offset " + std::to_string(pos) + ": " + message;
        return false;
    }

    bool done() const { return pos >= in.size(); }
    char peek() const { return done() ? '\0' : in[pos]; }

    void
    skipWs()
    {
        while (!done() && (in[pos] == ' ' || in[pos] == '\t' ||
                           in[pos] == '\n' || in[pos] == '\r'))
            ++pos;
    }

    bool
    expect(char c)
    {
        if (peek() != c)
            return fail(std::string("expected '") + c + "'");
        ++pos;
        return true;
    }

    bool
    literal(std::string_view word)
    {
        if (in.compare(pos, word.size(), word) != 0)
            return fail("invalid literal");
        pos += word.size();
        return true;
    }

    bool parseValue(Value &out);

    bool
    parseString(std::string &out)
    {
        if (!expect('"'))
            return false;
        out.clear();
        while (!done()) {
            char c = in[pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (done())
                    break;
                char esc = in[pos++];
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos + 4 > in.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int k = 0; k < 4; ++k) {
                        char h = in[pos++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad hex digit in \\u escape");
                    }
                    // UTF-8 encode (surrogate pairs are passed through
                    // as two 3-byte sequences; escape() only emits
                    // \u00XX control escapes, so this is ample).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return fail("raw control character in string");
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Value &out)
    {
        std::size_t start = pos;
        if (peek() == '-')
            ++pos;
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            return fail("malformed number");
        // RFC 8259: no leading zeros ("01" is two tokens, an error).
        if (peek() == '0' && pos + 1 < in.size() &&
            std::isdigit(static_cast<unsigned char>(in[pos + 1])))
            return fail("leading zero in number");
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos;
        bool integral = true;
        if (peek() == '.') {
            integral = false;
            ++pos;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return fail("digit required after decimal point");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos;
        }
        if (peek() == 'e' || peek() == 'E') {
            integral = false;
            ++pos;
            if (peek() == '+' || peek() == '-')
                ++pos;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return fail("digit required in exponent");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos;
        }
        std::string token(in.substr(start, pos - start));
        // An integer past 2^64-1 stays a Double rather than
        // saturating, so no reader takes it for UINT64_MAX.
        if (integral && token[0] != '-') {
            const char *last = token.data() + token.size();
            std::uint64_t u = 0;
            auto [end, ec] = std::from_chars(token.data(), last, u);
            if (ec == std::errc{} && end == last) {
                out.kind = Value::Kind::Uint;
                out.uintValue = u;
                out.number = static_cast<double>(u);
                return true;
            }
        }
        out.kind = Value::Kind::Double;
        out.number = std::strtod(token.c_str(), nullptr);
        return true;
    }

    bool
    parseArray(Value &out)
    {
        ++pos; // '['
        out.kind = Value::Kind::Array;
        skipWs();
        if (peek() == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            Value item;
            if (!parseValue(item))
                return false;
            out.items.push_back(std::move(item));
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            return expect(']');
        }
    }

    bool
    parseObject(Value &out)
    {
        ++pos; // '{'
        out.kind = Value::Kind::Object;
        skipWs();
        if (peek() == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            skipWs();
            const std::size_t keyPos = pos;
            std::string key;
            if (!parseString(key))
                return false;
            // A repeated key would be shadowed by find(): refuse it.
            for (const auto &member : out.members) {
                if (member.first == key) {
                    pos = keyPos;
                    return fail("repeated key \"" + key + "\"");
                }
            }
            skipWs();
            if (!expect(':'))
                return false;
            Value member;
            if (!parseValue(member))
                return false;
            out.members.emplace_back(std::move(key),
                                     std::move(member));
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            return expect('}');
        }
    }
};

bool
Parser::parseValue(Value &out)
{
    if (++depth > maxDepth)
        return fail("nesting too deep");
    skipWs();
    bool ok = false;
    switch (peek()) {
      case '{': ok = parseObject(out); break;
      case '[': ok = parseArray(out); break;
      case '"':
        out.kind = Value::Kind::String;
        ok = parseString(out.text);
        break;
      case 't':
        out.kind = Value::Kind::Bool;
        out.boolean = true;
        ok = literal("true");
        break;
      case 'f':
        out.kind = Value::Kind::Bool;
        out.boolean = false;
        ok = literal("false");
        break;
      case 'n':
        out.kind = Value::Kind::Null;
        ok = literal("null");
        break;
      case '\0':
        ok = fail("unexpected end of input");
        break;
      default:
        ok = parseNumber(out);
        break;
    }
    --depth;
    return ok;
}

} // namespace

double
Value::asDouble() const
{
    if (kind == Kind::Uint)
        return static_cast<double>(uintValue);
    if (kind == Kind::Double)
        return number;
    return 0.0;
}

std::uint64_t
Value::asUint() const
{
    return kind == Kind::Uint ? uintValue : 0;
}

const Value *
Value::find(std::string_view key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : members)
        if (name == key)
            return &value;
    return nullptr;
}

const Value *
Value::find(std::string_view key, Kind k) const
{
    const Value *v = find(key);
    return (v && v->kind == k) ? v : nullptr;
}

bool
Reader::fail(std::string_view what)
{
    if (!failed) {
        failed = true;
        error.assign(prefix).append(what);
    }
    return false;
}

bool
Reader::fail(const char *name, std::string_view shape,
             std::string_view kind)
{
    std::string what = "\"";
    what.append(name).append("\" must be ").append(shape).append(kind);
    return fail(what);
}

bool
Reader::missing(const char *key)
{
    return fail(std::string("missing numeric \"") + key + "\"");
}

bool
parse(std::string_view input, Value &out, std::string &error)
{
    Parser p{input, 0, {}, 0};
    out = Value{};
    if (!p.parseValue(out)) {
        error = p.error;
        return false;
    }
    p.skipWs();
    if (!p.done()) {
        p.fail("trailing garbage after document");
        error = p.error;
        return false;
    }
    error.clear();
    return true;
}

void
escape(std::string &out, std::string_view text)
{
    static constexpr char hex[] = "0123456789abcdef";
    // Copy each run of plain bytes in one append; most strings are
    // one run.
    std::size_t run = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const auto c = static_cast<unsigned char>(text[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(text.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            out += "\\u00";
            out += hex[c >> 4];
            out += hex[c & 0xf];
        }
    }
    out.append(text.data() + run, text.size() - run);
}

Writer::Writer(std::FILE *out, Style style)
    : buf(own), file(out), compact(style == Style::Compact)
{
    own.reserve(spillBytes + 1024);
}

Writer::~Writer()
{
    (void)finish();
}

bool
Writer::finish()
{
    if (file && !buf.empty() &&
        std::fwrite(buf.data(), 1, buf.size(), file) != buf.size())
        failed = true;
    if (file)
        buf.clear();
    return !failed;
}

void
Writer::separate()
{
    Frame &f = frames[depth - 1];
    if (f.any)
        buf += (compact || f.lines) ? "," : ", ";
    f.any = true;
    if (f.lines) {
        buf += '\n';
        buf.append(2 * static_cast<std::size_t>(breaks), ' ');
    }
}

void
Writer::prefix()
{
    if (afterKey) {
        afterKey = false;
    } else if (depth > 0) {
        avf_assert(!frames[depth - 1].object,
                   "json::Writer: object value without member()");
        separate();
    }
}

Writer &
Writer::member(std::string_view key)
{
    avf_assert(depth > 0 && frames[depth - 1].object && !afterKey,
               "json::Writer: member() outside an object");
    separate();
    buf += '"';
    escape(buf, key);
    buf += compact ? "\":" : "\": ";
    afterKey = true;
    return *this;
}

Writer &
Writer::nest(bool object, Layout layout)
{
    prefix();
    avf_assert(depth < maxDepth, "json::Writer: nesting too deep");
    const bool lines = layout == Layout::Lines;
    frames[depth++] = Frame{lines, object, false};
    breaks += lines ? 1 : 0;
    buf += object ? '{' : '[';
    return *this;
}

Writer &
Writer::unnest(bool object)
{
    avf_assert(depth > 0 && frames[depth - 1].object == object &&
                   !afterKey,
               "json::Writer: unbalanced close");
    const Frame f = frames[--depth];
    if (f.lines) {
        --breaks;
        if (f.any) {
            buf += '\n';
            buf.append(2 * static_cast<std::size_t>(breaks), ' ');
        }
    }
    buf += object ? '}' : ']';
    spill();
    return *this;
}

Writer &
Writer::put(std::string_view token)
{
    prefix();
    buf += token;
    spill();
    return *this;
}

Writer &
Writer::text(std::string_view value)
{
    prefix();
    buf += '"';
    escape(buf, value);
    buf += '"';
    spill();
    return *this;
}

Writer &
Writer::uint(std::uint64_t value)
{
    char digits[24];
    const char *end =
        std::to_chars(digits, digits + sizeof digits, value).ptr;
    return put({digits, static_cast<std::size_t>(end - digits)});
}

Writer &
Writer::sint(std::int64_t value)
{
    char digits[24];
    const char *end =
        std::to_chars(digits, digits + sizeof digits, value).ptr;
    return put({digits, static_cast<std::size_t>(end - digits)});
}

Writer &
Writer::exact(double value)
{
    // %.17g round-trips every finite double through strtod exactly;
    // non-finite values have no JSON spelling.
    avf_assert(std::isfinite(value), "json::Writer: non-finite double");
    char digits[32];
    const int n = std::snprintf(digits, sizeof digits, "%.17g", value);
    return put({digits, static_cast<std::size_t>(n)});
}

Writer &
Writer::fixed(double value, int places)
{
    avf_assert(places >= 0 && places <= 17,
               "json::Writer: fixed() takes 0..17 places");
    // DBL_MAX prints 309 integer digits; room for that plus places.
    char digits[352];
    const int n =
        std::snprintf(digits, sizeof digits, "%.*f", places, value);
    return put({digits, static_cast<std::size_t>(n)});
}

Writer &
Writer::newline()
{
    avf_assert(depth == 0, "json::Writer: newline() inside a value");
    buf += '\n';
    spill();
    return *this;
}

} // namespace avf::json
