/**
 * @file
 * Append-only JSONL feed writer — the streaming counterpart of the
 * batch exporters. One line per record, appended as the campaign
 * runs, so a reader (`avf-report tail`) can follow results mid-run
 * instead of waiting for a METRICS.json at collect().
 *
 * Durability contract (the serve layer's crash-resume leans on it):
 * flushSync() pushes every appended byte through the OS to the disk
 * (fflush + fsync), and bytesWritten() after a flushSync() is a
 * durable offset — a checkpoint that records it can truncate the
 * feed back to that offset on resume, discarding any torn line a
 * SIGKILL left behind, and re-append from there to reproduce the
 * uninterrupted byte stream exactly.
 */

#ifndef AVF_OBS_FEED_WRITER_HH
#define AVF_OBS_FEED_WRITER_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace avf::obs
{

/**
 * One open feed file. Not copyable; the destructor closes (without
 * syncing — call flushSync() at every durable point).
 */
class FeedWriter
{
  public:
    FeedWriter() = default;
    ~FeedWriter();

    FeedWriter(const FeedWriter &) = delete;
    FeedWriter &operator=(const FeedWriter &) = delete;

    /**
     * Create @p path (truncating any previous content) and start a
     * fresh feed. @return false with @p errorOut set on I/O failure.
     */
    bool create(const std::string &path, std::string &errorOut);

    /**
     * Open an existing feed for resumption: truncate it to
     * @p durableBytes (the last checkpointed offset, discarding any
     * torn tail) and position appends there. Fails when the file is
     * shorter than @p durableBytes — that means the checkpoint and
     * the feed disagree, which resume must treat as corruption
     * rather than silently re-emitting a diverged feed.
     */
    bool resume(const std::string &path, std::uint64_t durableBytes,
                std::string &errorOut);

    /** Append one record plus the terminating newline. */
    bool appendLine(std::string_view line, std::string &errorOut);

    /** Flush user and OS buffers to disk (fflush + fsync). */
    bool flushSync(std::string &errorOut);

    /** Bytes appended so far (durable only after flushSync()). */
    std::uint64_t bytesWritten() const { return written; }

    /** Close the file (idempotent; does not sync). */
    void close();

  private:
    std::FILE *stream = nullptr;
    std::string filePath;
    std::uint64_t written = 0;
};

} // namespace avf::obs

#endif // AVF_OBS_FEED_WRITER_HH
