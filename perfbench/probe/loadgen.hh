/**
 * @file
 * Load generator for dphls_serve: open loop timed from due times, and
 * closed loop.
 *
 * Every request of every open-loop phase is generated and encoded
 * before the clock starts. The sending thread then walks the schedule,
 * sleeping until each request's due time; a receiving thread matches
 * responses by request id, so responses are drained even while a send
 * blocks.
 * Latency runs from the due time, not the send time, so a stall of the
 * generator shows as latency on the requests it delayed, and how late
 * the generator ran is reported as lag. A closed-loop phase instead
 * keeps a fixed number of requests outstanding, so its throughput is
 * the daemon's; it builds each request while earlier ones are in
 * flight, so its memory stays bounded. One connection, two threads.
 */

#ifndef PERFBENCH_LOADGEN_HH
#define PERFBENCH_LOADGEN_HH

#include <array>
#include <string>
#include <vector>

#include "common.hh"
#include "serve/protocol.hh"
#include "tracer.hh"

namespace perfbench {

/** The serve-short request mix, shared by the untraced and traced runs. */
constexpr double kBulkRps = 80;      //!< bulk requests/s in open-loop phases
constexpr int kBulkChunk = 8;        //!< pairs per bulk request
constexpr double kDeadlineMs = 1000; //!< interactive deadline (meetable)
constexpr int kMinLen = 32;          //!< interactive pair lengths, bp
constexpr int kMaxLen = 256;

struct LoadPhase
{
    /** Open loop: Poisson interactive arrivals at this rate for
     *  `seconds`, plus bulk requests at kBulkRps. */
    double interactiveRps = 0;
    double seconds = 0;
    /** Closed loop when > 0: `requests` interactive requests, each sent
     *  as soon as fewer than `inFlight` of the phase are unanswered, so
     *  the daemon sets the rate. No bulk requests. */
    int inFlight = 0;
    int requests = 0;
};

struct LoadConfig
{
    std::string socket;
    uint64_t seed = 1;
    /** Phase whose interactive responses are checked in-process. */
    size_t samplePhase = 0;
    std::vector<LoadPhase> phases;
};

struct PhaseResult
{
    LoadPhase phase;
    /** due -> response, answered (closed loop: send -> response) */
    std::vector<double> interactiveMs;
    std::vector<double> bulkMs;
    std::vector<double> lagMs;         //!< send - due, open loop only
    uint64_t sent = 0;
    uint64_t answered = 0; //!< AlignOk responses
    uint64_t rejected = 0;
    uint64_t unanswered = 0;
    uint64_t pairs = 0;    //!< pairs in AlignOk responses
    double cells = 0;      //!< sum of qlen * rlen over those pairs
    double windowS = 0;    //!< phase start -> last response
    double drainS = 0;     //!< last due time -> last response
};

struct LoadResult
{
    std::vector<PhaseResult> phases;
    uint64_t protocolErrors = 0;
    /** Reject frames by serve::RejectReason value. */
    std::array<uint64_t, 8> rejects{};
    bool statsOk = false;
    dphls::serve::ServeStats stats;
    int samplesChecked = 0;
    int sampleMismatches = 0;
};

/** Run every phase back to back on one connection, then fetch Stats
 *  (and shut the daemon down when @p shutdown). Spans for the codec
 *  calls go to @p tracer. */
LoadResult runLoad(const LoadConfig &cfg, bool shutdown, Tracer &tracer);

/** Hello round trips on a fresh connection, in microseconds. */
std::vector<double> helloRoundTrips(const std::string &socket, int count);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HH
