/** @file The one parser for command-line counts (tools, examples). */

#ifndef AVF_UTIL_CLI_HH
#define AVF_UTIL_CLI_HH

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace avf
{

/**
 * Parse @p text, the value given for @p what (a flag or argument
 * name), as a count in [@p lo, @p hi]: all decimal digits, with no
 * sign, space or trailing junk. On failure print "<program>: <what>
 * wants an integer in <lo>..<hi>, got '<text>'" on stderr and return
 * false, leaving @p out untouched.
 */
inline bool
parseCount(const char *program, const char *what, const char *text,
           std::uint64_t lo, std::uint64_t hi, std::uint64_t &out)
{
    const char *end = text + std::strlen(text);
    std::uint64_t value = 0;
    auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end || value < lo || value > hi) {
        std::fprintf(stderr, "%s: %s wants an integer in %llu..%llu, "
                     "got '%s'\n", program, what,
                     static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi), text);
        return false;
    }
    out = value;
    return true;
}

} // namespace avf

#endif // AVF_UTIL_CLI_HH
