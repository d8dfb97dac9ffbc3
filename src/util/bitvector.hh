/**
 * @file
 * A compact dynamic bit vector: the valid bits of mem::Cache. Much
 * smaller interface than std::vector<bool>, with an explicit clear-all
 * for a cache flush. Error bits live in ErrorPlane
 * (util/error_plane.hh), not here.
 */

#ifndef AVF_UTIL_BITVECTOR_HH
#define AVF_UTIL_BITVECTOR_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace avf
{

/** Fixed-size-after-construction vector of bits. */
class BitVector
{
  public:
    BitVector() = default;

    /** Construct with @p count bits, all zero. */
    explicit BitVector(std::size_t count)
        : numBits(count), words((count + 63) / 64, 0)
    {}

    /** Number of bits held. */
    std::size_t size() const { return numBits; }

    /** Read bit @p idx. */
    bool
    test(std::size_t idx) const
    {
        avf_assert(idx < numBits, "bit index %zu out of range %zu",
                   idx, numBits);
        return (words[idx >> 6] >> (idx & 63)) & 1;
    }

    /** Set bit @p idx to @p value. */
    void
    set(std::size_t idx, bool value = true)
    {
        avf_assert(idx < numBits, "bit index %zu out of range %zu",
                   idx, numBits);
        std::uint64_t mask = std::uint64_t(1) << (idx & 63);
        if (value)
            words[idx >> 6] |= mask;
        else
            words[idx >> 6] &= ~mask;
    }

    /** Clear bit @p idx. */
    void reset(std::size_t idx) { set(idx, false); }

    /** Clear every bit. */
    void
    clearAll()
    {
        for (auto &w : words)
            w = 0;
    }

    /** Count of set bits. */
    std::size_t
    count() const
    {
        std::size_t total = 0;
        for (auto w : words)
            total += static_cast<std::size_t>(std::popcount(w));
        return total;
    }

    /** True if no bit is set. */
    bool
    none() const
    {
        for (auto w : words)
            if (w)
                return false;
        return true;
    }

  private:
    std::size_t numBits = 0;
    std::vector<std::uint64_t> words;
};

} // namespace avf

#endif // AVF_UTIL_BITVECTOR_HH
