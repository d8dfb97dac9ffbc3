/**
 * @file
 * avf-serve: the AVF-as-a-service CLI. One binary is both the
 * resident daemon and its client.
 *
 * Commands:
 *   serve --dir DIR [--procs P] [--resume]
 *       run the daemon: finish any incomplete checkpointed campaigns
 *       (--resume), then listen on DIR/serve.sock for line-delimited
 *       JSON requests.
 *   batch --dir DIR [--procs P] <campaign flags>
 *       run one campaign to completion without a daemon — the
 *       uninterrupted reference run CI diffs the crash-resumed feed
 *       against.
 *   submit --dir DIR <campaign flags>
 *       send a submit request to the daemon and print its response.
 *   status --dir DIR
 *       print the daemon's per-campaign progress response.
 *   shutdown --dir DIR
 *       ask the daemon to exit after the current campaign.
 *
 * Campaign flags: --name N --benchmark B [--intervals I]
 *   [--slice-intervals S] [--m M] [--n N] [--lanes L]
 *   [--seed-salt SALT] [--checkpoint-every K] [--metrics]
 *   [--root-cause]
 *
 * Every spec — client- or batch-side — round-trips through
 * serve::parseRequest before it runs, so the CLI enforces exactly the
 * wire protocol's validation and nothing else.
 *
 * Exit status: 0 = done, 1 = usage error, 2 = request/campaign
 * failed.
 */

#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "serve/campaign.hh"
#include "serve/daemon.hh"
#include "serve/protocol.hh"
#include "util/json.hh"

namespace
{

using namespace avf;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: avf-serve <command> [args]\n"
        "  serve    --dir DIR [--procs P] [--resume]\n"
        "  batch    --dir DIR [--procs P] <campaign flags>\n"
        "  submit   --dir DIR <campaign flags>\n"
        "  status   --dir DIR\n"
        "  shutdown --dir DIR\n"
        "campaign flags:\n"
        "  --name N --benchmark B [--intervals I]\n"
        "  [--slice-intervals S] [--m M] [--n N] [--lanes L]\n"
        "  [--seed-salt SALT] [--checkpoint-every K] [--metrics]\n"
        "  [--root-cause]\n");
    return 1;
}

/**
 * Strict unsigned parse: the whole string is decimal digits, with no
 * sign, space or trailing junk, and fits a uint64_t.
 */
bool
parseU64(const char *text, std::uint64_t &out)
{
    const char *end = text + std::strlen(text);
    auto [ptr, ec] = std::from_chars(text, end, out);
    return ec == std::errc() && ptr == end;
}

/**
 * parseU64 for a flag whose CampaignSpec field holds at most @p max.
 * A larger value is refused here, naming @p flag, rather than cut to
 * size by the cast, so parseRequest's range checks see the number as
 * typed.
 */
bool
parseFieldValue(const char *flag, const char *text, std::uint64_t max,
                std::uint64_t &out)
{
    if (!parseU64(text, out))
        return false;
    if (out > max) {
        std::fprintf(stderr, "avf-serve: %s %s does not fit its field "
                     "(at most %llu)\n", flag, text,
                     static_cast<unsigned long long>(max));
        return false;
    }
    return true;
}

/**
 * Parse the shared campaign flags into @p spec. Range validation is
 * deliberately NOT done here — the spec round-trips through
 * serve::parseRequest below, which applies the wire protocol's rules.
 * Only a value too large for its field's type is refused here.
 */
bool
parseCampaignFlags(int argc, char **argv, int first,
                   serve::CampaignSpec &spec)
{
    for (int i = first; i < argc; ++i) {
        const char *flag = argv[i];
        if (std::strcmp(flag, "--root-cause") == 0) {
            spec.rootCause = true;
            continue;
        }
        if (std::strcmp(flag, "--metrics") == 0) {
            spec.metrics = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const char *value = argv[++i];
        std::uint64_t number = 0;
        if (std::strcmp(flag, "--name") == 0) {
            spec.name = value;
        } else if (std::strcmp(flag, "--benchmark") == 0) {
            spec.benchmark = value;
        } else if (std::strcmp(flag, "--intervals") == 0 &&
                   parseFieldValue(flag, value, INT_MAX, number)) {
            spec.intervals = static_cast<int>(number);
        } else if (std::strcmp(flag, "--slice-intervals") == 0 &&
                   parseFieldValue(flag, value, INT_MAX, number)) {
            spec.sliceIntervals = static_cast<int>(number);
        } else if (std::strcmp(flag, "--m") == 0 &&
                   parseU64(value, number)) {
            spec.m = number;
        } else if (std::strcmp(flag, "--n") == 0 &&
                   parseFieldValue(flag, value, UINT32_MAX, number)) {
            spec.n = static_cast<std::uint32_t>(number);
        } else if (std::strcmp(flag, "--lanes") == 0 &&
                   parseFieldValue(flag, value, INT_MAX, number)) {
            spec.lanes = static_cast<int>(number);
        } else if (std::strcmp(flag, "--seed-salt") == 0 &&
                   parseU64(value, number)) {
            spec.seedSalt = number;
        } else if (std::strcmp(flag, "--checkpoint-every") == 0 &&
                   parseFieldValue(flag, value, INT_MAX, number)) {
            spec.checkpointEverySlices = static_cast<int>(number);
        } else {
            return false;
        }
    }
    return true;
}

/**
 * Validate @p spec exactly as the daemon would: encode a submit
 * request and parse it back through the wire protocol.
 */
bool
validateSpec(serve::CampaignSpec &spec, std::string &error)
{
    serve::Request request;
    request.op = serve::Request::Op::Submit;
    request.campaign = spec;
    serve::Request parsed;
    if (!serve::parseRequest(serve::encodeRequest(request), parsed,
                             error))
        return false;
    spec = parsed.campaign;
    return true;
}

/** Send one already-encoded request and print the response line. */
int
roundTrip(const std::string &dir, const std::string &line)
{
    std::string response, error;
    if (!serve::sendRequest(dir, line, response, error)) {
        std::fprintf(stderr, "avf-serve: %s\n", error.c_str());
        return 2;
    }
    std::printf("%s\n", response.c_str());
    // The daemon answers errors as {"ok":false,...} on a clean
    // transport; reflect that in the exit status for scripts.
    json::Value doc;
    const json::Value *ok = json::parse(response, doc, error)
                                ? doc.find("ok", json::Value::Kind::Bool)
                                : nullptr;
    return ok && ok->boolean ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];

    std::string dir;
    int procs = 1;
    bool resume = false;
    serve::CampaignSpec spec;
    int i = 2;
    while (i < argc) {
        if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
            dir = argv[i + 1];
            i += 2;
        } else if (std::strcmp(argv[i], "--procs") == 0 &&
                   i + 1 < argc) {
            std::uint64_t number = 0;
            if (!parseU64(argv[i + 1], number) || number < 1 ||
                number > 64)
                return usage();
            procs = static_cast<int>(number);
            i += 2;
        } else if (std::strcmp(argv[i], "--resume") == 0) {
            resume = true;
            ++i;
        } else {
            break; // campaign flags; parsed by the command below
        }
    }
    if (dir.empty())
        return usage();

    if (command == "serve") {
        if (i != argc)
            return usage();
        serve::DaemonOptions options;
        options.stateDir = dir;
        options.workers = procs;
        options.resume = resume;
        return serve::runDaemon(options) == 0 ? 0 : 2;
    }

    if (command == "batch" || command == "submit") {
        if (!parseCampaignFlags(argc, argv, i, spec))
            return usage();
        std::string error;
        if (!validateSpec(spec, error)) {
            std::fprintf(stderr, "avf-serve: %s\n", error.c_str());
            return 2;
        }
        if (command == "batch") {
            serve::StatePaths paths(dir);
            if (!serve::runCampaignFresh(spec, paths, procs, error)) {
                std::fprintf(stderr, "avf-serve: campaign '%s' "
                             "failed: %s\n", spec.name.c_str(),
                             error.c_str());
                return 2;
            }
            std::printf("campaign '%s' complete: %s\n",
                        spec.name.c_str(),
                        paths.feedPath(spec.name).c_str());
            return 0;
        }
        serve::Request request;
        request.op = serve::Request::Op::Submit;
        request.campaign = spec;
        return roundTrip(dir, serve::encodeRequest(request));
    }

    if (command == "status" || command == "shutdown") {
        if (i != argc)
            return usage();
        serve::Request request;
        request.op = command == "status"
                         ? serve::Request::Op::Status
                         : serve::Request::Op::Shutdown;
        return roundTrip(dir, serve::encodeRequest(request));
    }

    return usage();
}
