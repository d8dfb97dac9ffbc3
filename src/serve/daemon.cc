#include "serve/daemon.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/protocol.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace avf::serve
{

namespace
{

/** Longest request line the daemon will buffer before rejecting. */
constexpr std::size_t maxRequestBytes = 1 << 16;

/** Campaigns with a checkpoint in @p stateDir; none when it cannot
 *  be read. */
std::vector<std::string>
campaignsIn(const std::string &stateDir)
{
    std::vector<std::string> names;
    std::string error;
    (void)listCampaigns(stateDir, names, error);
    return names;
}

/** {"ok":true,"campaigns":[...]} from every checkpoint on disk;
 *  a checkpoint that does not load is left out. */
std::string
statusResponse(const StatePaths &paths)
{
    std::string line;
    json::Writer out(line, json::Writer::Style::Compact);
    out.startObject().member("ok").boolean(true)
        .member("campaigns").startArray();
    for (const std::string &name : campaignsIn(paths.dir)) {
        Checkpoint checkpoint;
        std::string error;
        if (!loadCheckpoint(paths.checkpointPath(name), checkpoint,
                            error))
            continue;
        out.startObject()
            .member("name").text(checkpoint.campaign.name)
            .member("slices_done").uint(checkpoint.slicesDone)
            .member("slices").uint(checkpoint.campaign.numSlices())
            .member("complete").boolean(checkpoint.complete)
            .member("feed_bytes").uint(checkpoint.feedBytes)
            .endObject();
    }
    out.endArray().endObject();
    return line;
}

/** {"ok":true,"shutdown":true} */
std::string
shutdownResponse()
{
    std::string line;
    json::Writer(line, json::Writer::Style::Compact)
        .startObject()
        .member("ok").boolean(true)
        .member("shutdown").boolean(true)
        .endObject();
    return line;
}

/** {"ok":true,"campaign":name,"slices":N} */
std::string
acceptedResponse(const CampaignSpec &spec)
{
    std::string line;
    json::Writer(line, json::Writer::Style::Compact)
        .startObject()
        .member("ok").boolean(true)
        .member("campaign").text(spec.name)
        .member("slices").uint(spec.numSlices())
        .endObject();
    return line;
}

/**
 * Read one '\n'-terminated line from @p fd. Returns false on EOF,
 * transport error, or an oversized line (all of which end the
 * connection — a peer that cannot frame a line gets no response).
 */
bool
readRequestLine(int fd, std::string &lineOut)
{
    lineOut.clear();
    char c = 0;
    while (lineOut.size() < maxRequestBytes) {
        ssize_t got = ::recv(fd, &c, 1, 0);
        if (got <= 0)
            return false;
        if (c == '\n')
            return true;
        lineOut += c;
    }
    return false;
}

/**
 * Send @p line plus a newline. MSG_NOSIGNAL keeps a vanished peer
 * from raising SIGPIPE — the daemon installs no signal handlers.
 */
bool
writeResponseLine(int fd, std::string_view line)
{
    std::string framed(line);
    framed += '\n';
    std::size_t sent = 0;
    while (sent < framed.size()) {
        ssize_t wrote = ::send(fd, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
        if (wrote <= 0)
            return false;
        sent += static_cast<std::size_t>(wrote);
    }
    return true;
}

/**
 * Resume every incomplete checkpointed campaign, in name order,
 * before the socket starts listening. Hard failure: a daemon that
 * cannot honour its crash contract should not accept new work.
 */
bool
resumeIncomplete(const StatePaths &paths, int workers)
{
    for (const std::string &name : campaignsIn(paths.dir)) {
        std::string error;
        Checkpoint checkpoint;
        if (!loadCheckpoint(paths.checkpointPath(name), checkpoint,
                            error)) {
            warn("avf-serve: cannot resume '%s': %s", name.c_str(),
                 error.c_str());
            return false;
        }
        if (checkpoint.complete)
            continue;
        inform("avf-serve: resuming campaign '%s' (%llu/%llu slices)",
               name.c_str(),
               static_cast<unsigned long long>(checkpoint.slicesDone),
               static_cast<unsigned long long>(
                   checkpoint.campaign.numSlices()));
        if (!resumeCampaign(name, paths, workers, error)) {
            warn("avf-serve: resume of '%s' failed: %s", name.c_str(),
                 error.c_str());
            return false;
        }
    }
    return true;
}

/** Bind and listen on the state directory's Unix socket. */
int
openListener(const std::string &socketPath)
{
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (socketPath.size() >= sizeof(address.sun_path)) {
        warn("avf-serve: socket path too long: %s",
             socketPath.c_str());
        return -1;
    }
    std::memcpy(address.sun_path, socketPath.c_str(),
                socketPath.size() + 1);

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        warn("avf-serve: socket() failed: %s", std::strerror(errno));
        return -1;
    }
    // A previous daemon's socket file would make bind() fail; the
    // state directory is single-daemon by contract, so reclaim it.
    (void)::unlink(socketPath.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&address),
               sizeof(address)) != 0 ||
        ::listen(fd, 8) != 0) {
        warn("avf-serve: bind/listen on %s failed: %s",
             socketPath.c_str(), std::strerror(errno));
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace

int
runDaemon(const DaemonOptions &options)
{
    StatePaths paths(options.stateDir);
    if (options.resume && !resumeIncomplete(paths, options.workers))
        return 1;

    int listener = openListener(paths.socketPath());
    if (listener < 0)
        return 1;
    inform("avf-serve: listening on %s (%d worker process%s)",
           paths.socketPath().c_str(), options.workers,
           options.workers == 1 ? "" : "es");

    bool shutdown = false;
    while (!shutdown) {
        int client = ::accept(listener, nullptr, nullptr);
        if (client < 0) {
            if (errno == EINTR)
                continue;
            warn("avf-serve: accept() failed: %s",
                 std::strerror(errno));
            ::close(listener);
            return 1;
        }

        std::string line;
        if (!readRequestLine(client, line)) {
            ::close(client);
            continue;
        }

        Request request;
        std::string error;
        if (!parseRequest(line, request, error)) {
            (void)writeResponseLine(client, errorResponse(error));
            ::close(client);
            continue;
        }

        switch (request.op) {
        case Request::Op::Status:
            (void)writeResponseLine(client, statusResponse(paths));
            ::close(client);
            break;
        case Request::Op::Shutdown:
            (void)writeResponseLine(client, shutdownResponse());
            ::close(client);
            shutdown = true;
            break;
        case Request::Op::Submit: {
            // Acknowledge only once the feed header and the initial
            // checkpoint are durable: from that instant a SIGKILL at
            // ANY point is recoverable with --resume.
            if (!prepareCampaign(request.campaign, paths, error)) {
                (void)writeResponseLine(client, errorResponse(error));
                ::close(client);
                break;
            }
            (void)writeResponseLine(client,
                                    acceptedResponse(request.campaign));
            ::close(client);
            inform("avf-serve: running campaign '%s' (%d intervals)",
                   request.campaign.name.c_str(),
                   request.campaign.intervals);
            if (!resumeCampaign(request.campaign.name, paths,
                                options.workers, error)) {
                warn("avf-serve: campaign '%s' failed: %s",
                     request.campaign.name.c_str(), error.c_str());
            }
            break;
        }
        }
    }

    ::close(listener);
    (void)::unlink(paths.socketPath().c_str());
    inform("avf-serve: shut down cleanly");
    return 0;
}

bool
sendRequest(const std::string &stateDir,
            const std::string &requestLine, std::string &responseOut,
            std::string &errorOut)
{
    StatePaths paths(stateDir);
    const std::string socketPath = paths.socketPath();
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (socketPath.size() >= sizeof(address.sun_path)) {
        errorOut = "socket path too long: " + socketPath;
        return false;
    }
    std::memcpy(address.sun_path, socketPath.c_str(),
                socketPath.size() + 1);

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        errorOut = std::string("socket() failed: ") +
                   std::strerror(errno);
        return false;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&address),
                  sizeof(address)) != 0) {
        errorOut = "cannot connect to " + socketPath + ": " +
                   std::strerror(errno);
        ::close(fd);
        return false;
    }
    if (!writeResponseLine(fd, requestLine)) {
        errorOut = "send failed: " + std::string(std::strerror(errno));
        ::close(fd);
        return false;
    }
    if (!readRequestLine(fd, responseOut)) {
        errorOut = "no response from daemon";
        ::close(fd);
        return false;
    }
    ::close(fd);
    return true;
}

} // namespace avf::serve
