/**
 * @file
 * Open-loop serving load (see loadgen.hh) and the `loadgen` subcommand.
 */

#include "loadgen.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include <sys/socket.h>

#include "kernels/global_affine.hh"
#include "probe.hh"
#include "seq/random.hh"
#include "serve/socket_io.hh"
#include "systolic/engine.hh"

namespace perfbench {

using namespace dphls;

namespace {

constexpr int kSamples = 16;         //!< responses checked in-process
constexpr double kDrainLimitS = 20;  //!< give up on stragglers after

/** One request of the schedule, pre-built unless it is closed-loop. */
struct Request
{
    double due = 0; //!< seconds after its phase starts (open loop)
    int phase = 0;
    bool interactive = false;
    uint32_t pairs = 0;
    double cells = 0;
    std::vector<uint8_t> payload; //!< empty until sent (closed loop)
};

/** Receiver-side record of one request id. */
struct Outcome
{
    Clock::time_point at{};
    uint8_t state = 0; //!< 0 pending, 1 answered, 2 rejected
};

std::vector<uint8_t>
randomCodes(seq::Rng &rng, int lo, int hi)
{
    std::vector<uint8_t> v(static_cast<size_t>(rng.range(lo, hi)));
    for (auto &c : v)
        c = static_cast<uint8_t>(rng.below(4));
    return v;
}

/**
 * Poisson arrival times in [0, seconds) conditioned on their count
 * round(rate * seconds): sorted uniform times. The offered load is
 * then the same for every seed; only the arrival pattern changes.
 */
std::vector<double>
arrivals(seq::Rng &rng, double rate, double seconds)
{
    std::vector<double> t(static_cast<size_t>(std::llround(rate * seconds)));
    for (auto &x : t)
        x = rng.uniform() * seconds;
    std::sort(t.begin(), t.end());
    return t;
}

/** One request of the mix: a single interactive pair or a bulk chunk.
 *  Adds its cells (sum of qlen * rlen) to @p cells. */
serve::AlignRequest
makeRequest(seq::Rng &rng, bool interactive, double &cells)
{
    serve::AlignRequest ar;
    ar.trafficClass = interactive ? serve::TrafficClass::Interactive
                                  : serve::TrafficClass::Bulk;
    ar.deadlineMicros =
        interactive ? static_cast<uint64_t>(kDeadlineMs * 1e3) : 0;
    ar.tenant = interactive ? "interactive" : "bulk";
    for (int j = 0; j < (interactive ? 1 : kBulkChunk); j++) {
        serve::WireJob job{randomCodes(rng, kMinLen, kMaxLen),
                           randomCodes(rng, kMinLen, kMaxLen)};
        cells += static_cast<double>(job.query.size()) *
                 static_cast<double>(job.reference.size());
        ar.jobs.push_back(std::move(job));
    }
    return ar;
}

Clock::time_point
after(Clock::time_point t, double s)
{
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(s));
}

} // namespace

LoadResult
runLoad(const LoadConfig &cfg, bool shutdown, Tracer &tracer)
{
    LoadResult out;
    // ---- pre-build every open-loop request before the clock starts
    seq::Rng rng(cfg.seed * 0x2545F491 + 3);
    seq::Rng closed_rng(cfg.seed * 0x9E3779B9 + 5);
    std::vector<Request> reqs(1); // request id 0 is unused
    std::map<uint64_t, serve::WireJob> sample_jobs;
    std::optional<Tracer::Scope> step(std::in_place, tracer, "gen.prebuild");
    for (size_t p = 0; p < cfg.phases.size(); p++) {
        const LoadPhase &ph = cfg.phases[p];
        if (ph.inFlight > 0) {
            Request r;
            r.phase = static_cast<int>(p);
            r.interactive = true;
            r.pairs = 1;
            reqs.insert(reqs.end(), static_cast<size_t>(ph.requests), r);
            continue;
        }
        std::vector<std::pair<double, bool>> due;
        for (const double t : arrivals(rng, ph.interactiveRps, ph.seconds))
            due.push_back({t, true});
        for (const double t : arrivals(rng, kBulkRps, ph.seconds))
            due.push_back({t, false});
        std::sort(due.begin(), due.end());
        const size_t n_int = static_cast<size_t>(
            std::count_if(due.begin(), due.end(),
                          [](const auto &d) { return d.second; }));
        const size_t stride = std::max<size_t>(1, n_int / kSamples);
        size_t int_seen = 0;
        for (const auto &[t, interactive] : due) {
            Request r;
            r.due = t;
            r.phase = static_cast<int>(p);
            r.interactive = interactive;
            r.pairs = static_cast<uint32_t>(interactive ? 1 : kBulkChunk);
            const serve::AlignRequest ar =
                makeRequest(rng, interactive, r.cells);
            const uint64_t rid = reqs.size();
            if (interactive && p == cfg.samplePhase &&
                int_seen++ % stride == 0 && sample_jobs.size() < kSamples)
                sample_jobs[rid] = ar.jobs.front();
            {
                Tracer::Scope s(tracer, "serve.encode_req", rid);
                r.payload = serve::encodeAlignRequest(ar);
            }
            reqs.push_back(std::move(r));
        }
    }

    step.emplace(tracer, "gen.connect");
    serve::Fd conn = serve::unixConnect(cfg.socket);
    if (!conn.valid())
        throw std::runtime_error("cannot connect to " + cfg.socket);
    const int fd = conn.get();
    const uint64_t stats_rid = reqs.size();
    const uint64_t shutdown_rid = reqs.size() + 1;

    // The receiving thread; everything it writes is guarded by `mutex`.
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<Outcome> outcomes(reqs.size());
    std::map<uint64_t, serve::AlignResponse> sampled;
    uint64_t settled = 0;   // answered or rejected requests
    bool stats_seen = false;
    bool closing = false;   // EOF from here on is expected
    bool dead = false;      // the receiver has exited
    std::thread receiver([&] {
        serve::Frame frame;
        for (;;) {
            if (!serve::readFrame(fd, frame)) {
                std::lock_guard lk(mutex);
                if (!closing)
                    out.protocolErrors++;
                dead = true;
                cv.notify_all();
                return;
            }
            const auto now = Clock::now();
            const uint64_t rid = frame.requestId();
            std::lock_guard lk(mutex);
            try {
                if (frame.type() == serve::MsgType::StatsOk) {
                    out.stats = serve::decodeStats(frame);
                    out.statsOk = true;
                    stats_seen = true;
                } else if (frame.type() == serve::MsgType::ShutdownOk &&
                           rid == shutdown_rid) {
                    closing = true;
                } else if (rid == 0 || rid >= reqs.size() ||
                           outcomes[rid].state != 0) {
                    out.protocolErrors++;
                } else if (frame.type() == serve::MsgType::AlignOk) {
                    Tracer::Scope s(tracer, "serve.decode_resp", rid);
                    auto res = serve::decodeAlignResponse(frame);
                    outcomes[rid] = {now, 1};
                    settled++;
                    if (sample_jobs.count(rid))
                        sampled[rid] = std::move(res);
                } else if (frame.type() == serve::MsgType::Reject) {
                    const auto info = serve::decodeReject(frame);
                    out.rejects[static_cast<size_t>(info.reason) & 7]++;
                    outcomes[rid] = {now, 2};
                    settled++;
                } else {
                    out.protocolErrors++;
                }
            } catch (const serve::ProtocolError &) {
                out.protocolErrors++;
            }
            cv.notify_all();
        }
    });
    const auto waitFor = [&](double limit_s, const auto &done) {
        std::unique_lock lk(mutex);
        return cv.wait_until(lk, after(Clock::now(), limit_s),
                             [&] { return dead || done(); }) &&
               !dead;
    };

    // ---- send, phase by phase; each phase drains before the next
    step.reset();
    bool transport_ok = true;
    uint64_t rid = 1;
    // Latency origin of each request: its due time (open loop) or its
    // send time (closed loop).
    std::vector<Clock::time_point> origin(reqs.size());
    for (size_t p = 0; p < cfg.phases.size() && transport_ok; p++) {
        PhaseResult pr;
        pr.phase = cfg.phases[p];
        const int in_flight = pr.phase.inFlight;
        const uint64_t first = rid;
        uint64_t settled0 = 0;
        {
            std::lock_guard lk(mutex);
            settled0 = settled;
        }
        const Clock::time_point start =
            after(Clock::now(), in_flight > 0 ? 0.0 : 0.02);
        Clock::time_point last_due = start;
        for (; rid < reqs.size() && reqs[rid].phase == static_cast<int>(p);
             rid++) {
            Request &r = reqs[rid];
            if (in_flight > 0) {
                // Built while earlier requests are in flight, so memory
                // stays bounded and the daemon still sets the rate.
                r.payload = serve::encodeAlignRequest(
                    makeRequest(closed_rng, true, r.cells));
                const uint64_t sent = rid - first;
                if (!waitFor(kDrainLimitS, [&] {
                        return sent - (settled - settled0) <
                               static_cast<uint64_t>(in_flight);
                    })) {
                    transport_ok = false; // the daemon stalled or left
                    break;
                }
                origin[rid] = Clock::now();
            } else {
                origin[rid] = after(start, r.due);
                {
                    Tracer::Scope s(tracer, "gen.sleep");
                    std::this_thread::sleep_until(origin[rid]);
                }
                pr.lagMs.push_back(1e3 * seconds(origin[rid], Clock::now()));
            }
            last_due = origin[rid];
            pr.sent++;
            Tracer::Scope s(tracer, "serve.send", rid);
            const bool written =
                serve::writeFrame(fd, serve::MsgType::Align, rid, r.payload);
            if (in_flight > 0)
                std::vector<uint8_t>().swap(r.payload);
            if (!written) {
                out.protocolErrors++;
                transport_ok = false;
                break;
            }
        }
        // Requests left unsent by a failure count as unanswered.
        while (rid < reqs.size() && reqs[rid].phase == static_cast<int>(p))
            rid++;
        const uint64_t end = rid;
        Tracer::Scope s(tracer, "gen.drain_wait");
        waitFor(kDrainLimitS, [&] { return settled >= end - 1; });
        std::lock_guard lk(mutex);
        Clock::time_point last = start;
        for (uint64_t i = first; i < end; i++) {
            const Outcome &o = outcomes[i];
            const Request &r = reqs[i];
            if (o.state == 0) {
                pr.unanswered++;
                continue;
            }
            last = std::max(last, o.at);
            const double ms = 1e3 * seconds(origin[i], o.at);
            if (o.state == 2) {
                pr.rejected++;
                continue;
            }
            pr.answered++;
            pr.pairs += r.pairs;
            pr.cells += r.cells;
            (r.interactive ? pr.interactiveMs : pr.bulkMs).push_back(ms);
        }
        pr.windowS = seconds(start, last);
        pr.drainS = std::max(0.0, seconds(last_due, last));
        out.phases.push_back(std::move(pr));
    }

    // ---- Stats (accounting closure), then optional shutdown
    step.emplace(tracer, "gen.finish");
    if (transport_ok &&
        serve::writeFrame(fd, serve::MsgType::Stats, stats_rid, {}))
        waitFor(10.0, [&] { return stats_seen; });
    if (shutdown && transport_ok &&
        serve::writeFrame(fd, serve::MsgType::Shutdown, shutdown_rid, {}))
        waitFor(30.0, [&] { return closing; });
    {
        std::lock_guard lk(mutex);
        closing = true;
    }
    ::shutdown(fd, SHUT_RDWR);
    receiver.join();

    // ---- sampled responses against an in-process single-pair engine
    step.emplace(tracer, "gen.check");
    sim::EngineConfig ecfg; // dphls_serve defaults: 32 PEs, band 64, 1024
    sim::SystolicAligner<kernels::GlobalAffine> engine(ecfg);
    for (const auto &[srid, job] : sample_jobs) {
        const auto it = sampled.find(srid);
        out.samplesChecked++;
        if (it == sampled.end() || it->second.results.size() != 1) {
            out.sampleMismatches++;
            continue;
        }
        seq::DnaSequence q, r;
        for (const uint8_t c : job.query)
            q.chars.push_back(seq::DnaChar{c});
        for (const uint8_t c : job.reference)
            r.chars.push_back(seq::DnaChar{c});
        const auto res = engine.align(q, r);
        const auto &got = it->second.results.front();
        if (!got.completed || got.score != res.scoreAsDouble() ||
            got.cycles != engine.lastTotalCycles() ||
            got.runs != serve::encodeRuns(res.ops))
            out.sampleMismatches++;
    }
    return out;
}

std::vector<double>
helloRoundTrips(const std::string &socket, int count)
{
    serve::Fd conn = serve::unixConnect(socket);
    if (!conn.valid())
        throw std::runtime_error("cannot connect to " + socket);
    std::vector<double> us;
    serve::Frame frame;
    const auto payload = serve::encodeHello("global-affine");
    for (int i = 0; i < count; i++) {
        const auto t0 = Clock::now();
        if (!serve::writeFrame(conn.get(), serve::MsgType::Hello,
                               static_cast<uint64_t>(i + 1), payload) ||
            !serve::readFrame(conn.get(), frame) ||
            frame.type() != serve::MsgType::HelloOk)
            throw std::runtime_error("Hello round trip failed");
        us.push_back(1e6 * secondsSince(t0));
    }
    return us;
}

namespace {

void
printList(const char *key, const std::vector<double> &v)
{
    std::printf("\"%s\":[", key);
    for (size_t i = 0; i < v.size(); i++)
        std::printf("%s%.6g", i ? "," : "", v[i]);
    std::printf("]");
}

} // namespace

/**
 * loadgen subcommand: --socket --seed --rate --seconds [--warmup S]
 * [--closed-requests N --in-flight W] [--sweep r1,r2,.. --sweep-seconds
 * S] [--shutdown 0|1]. A warm-up phase at the fixed rate runs first and
 * is not reported. The reported phases are the fixed rate (whose
 * sampled responses are checked in-process), then the closed loop of N
 * requests with W outstanding when N > 0, then the sweep. Prints one
 * JSON object with the request mix and every latency sample (ms, in
 * due-time order) for the caller to reduce.
 */
int
cmdLoadgen(const Args &a)
{
    LoadConfig cfg;
    cfg.socket = a.str("socket");
    cfg.seed = static_cast<uint64_t>(a.num("seed", 1));
    cfg.phases.push_back({a.num("rate", 1000), a.num("warmup", 0.5)});
    cfg.samplePhase = cfg.phases.size();
    cfg.phases.push_back({a.num("rate", 1000), a.num("seconds", 5)});
    if (a.num("closed-requests", 0) > 0)
        cfg.phases.push_back({0, 0, static_cast<int>(a.num("in-flight", 1)),
                              static_cast<int>(a.num("closed-requests", 0))});
    if (a.has("sweep")) {
        std::stringstream ss(a.str("sweep"));
        std::string tok;
        while (std::getline(ss, tok, ','))
            cfg.phases.push_back({std::stod(tok), a.num("sweep-seconds", 1)});
    }
    Tracer off(false);
    const LoadResult r = runLoad(cfg, a.num("shutdown", 0) != 0, off);

    std::printf("{\"bulk_rps\":%g,\"bulk_chunk\":%d,\"deadline_ms\":%g,"
                "\"min_len\":%d,\"max_len\":%d,"
                "\"protocol_errors\":%llu,\"accounting_closed\":%s,"
                "\"isa_tier\":\"%s\",\"samples_checked\":%d,"
                "\"sample_mismatches\":%d,\"phases\":[",
                kBulkRps, kBulkChunk, kDeadlineMs, kMinLen, kMaxLen,
                static_cast<unsigned long long>(r.protocolErrors),
                r.statsOk && r.stats.accountingClosed ? "true" : "false",
                r.stats.isaTier.c_str(), r.samplesChecked,
                r.sampleMismatches);
    for (size_t i = 1; i < r.phases.size(); i++) {
        const PhaseResult &p = r.phases[i];
        std::printf("%s{\"rate\":%.17g,\"in_flight\":%d,"
                    "\"sent\":%llu,\"answered\":%llu,"
                    "\"rejected\":%llu,\"unanswered\":%llu,\"pairs\":%llu,"
                    "\"cells\":%.17g,\"window_s\":%.17g,\"drain_s\":%.17g,",
                    i > 1 ? "," : "", p.phase.interactiveRps, p.phase.inFlight,
                    static_cast<unsigned long long>(p.sent),
                    static_cast<unsigned long long>(p.answered),
                    static_cast<unsigned long long>(p.rejected),
                    static_cast<unsigned long long>(p.unanswered),
                    static_cast<unsigned long long>(p.pairs), p.cells,
                    p.windowS, p.drainS);
        printList("interactive_ms", p.interactiveMs);
        std::printf(",");
        printList("bulk_ms", p.bulkMs);
        std::printf(",");
        printList("lag_ms", p.lagMs);
        std::printf("}");
    }
    std::printf("]}\n");
    return 0;
}

} // namespace perfbench
