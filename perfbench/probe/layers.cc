/**
 * @file
 * trace: the traced run. Replays each workload's inputs in-process
 * through the modules' public functions, with spans around every call
 * (tracer.hh), and prints every per-layer metric as one JSON object.
 *
 * The align and map replays mirror the host loops of dphls_align and
 * dphls_map (same configuration, same call sequence); the serve part
 * drives an in-process AlignService configured like the daemon and,
 * for the socket figures, the running daemon itself. Engine figures
 * come from a single-thread replay of the align inputs. Every run
 * measures every layer; the workload being traced gets the larger
 * inputs (chosen by run.py), the others small ones.
 */

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "common.hh"
#include "core/cigar.hh"
#include "host/stream_pipeline.hh"
#include "kernels/all.hh"
#include "loadgen.hh"
#include "model/frequency_model.hh"
#include "probe.hh"
#include "seq/fasta.hh"
#include "seq/random.hh"
#include "serve/service.hh"
#include "systolic/lane_engine.hh"
#include "tracer.hh"
#include "workloads/mapper.hh"

namespace perfbench {

using namespace dphls;

namespace {

using AlignK = kernels::LocalAffine;
using AlignPipeline = host::StreamPipeline<AlignK>;

/** Read every pair of an align input (parse time is traced). */
std::vector<AlignPipeline::Job>
loadPairs(const std::string &qpath, const std::string &rpath)
{
    std::vector<AlignPipeline::Job> jobs;
    seq::FastaStream qs(qpath), rs(rpath);
    seq::FastaRecord qr, rr;
    while (qs.next(qr) && rs.next(rr))
        jobs.push_back({seq::dnaFromString(qr.residues, qr.name),
                        seq::dnaFromString(rr.residues, rr.name)});
    return jobs;
}

struct AlignReplay
{
    double wallS = 0;
    double cells = 0;
    size_t pairs = 0;
    size_t tickets = 0;
    host::CacheCounters cache;
};

/**
 * dphls_align's streaming host loop (local-affine, --lanes 8, --nk 4,
 * cache on, chunks of 256, traceback on) with @p threads workers.
 * Driver-thread spans: parse, submit, collect wait, writeback.
 */
AlignReplay
replayAlign(const std::string &qpath, const std::string &rpath,
            int threads, Tracer &tr)
{
    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nb = 1;
    cfg.nk = 4;
    cfg.threads = threads;
    cfg.fmaxMhz = model::kernelFrequencyMhz<AlignK>();
    cfg.maxQueryLength = 4096;
    cfg.maxReferenceLength = 4096;
    cfg.hostOverheadCycles = 0;
    cfg.laneWidth = 8;
    cfg.cacheEntries = 4096;

    AlignReplay out;
    const auto t0 = Clock::now();
    std::unique_ptr<AlignPipeline> owned;
    {
        Tracer::Scope s(tr, "host.pipeline_ctor");
        owned = std::make_unique<AlignPipeline>(cfg);
    }
    AlignPipeline &pipeline = *owned;
    seq::FastaStream qs(qpath), rs(rpath);
    std::deque<AlignPipeline::Ticket> pending;
    const size_t max_pending = 4 + static_cast<size_t>(threads);
    std::string sink; // formatted output, dropped
    uint64_t rid = 0;

    const auto writeback = [&](const AlignPipeline::Ticket &t) {
        {
            Tracer::Scope s(tr, "host.collect_wait");
            pipeline.collect(t);
        }
        Tracer::Scope s(tr, "driver.writeback");
        const auto &jobs = t->jobs();
        const auto &res = t->results();
        char line[96];
        for (size_t i = 0; i < jobs.size(); i++) {
            std::string cigar;
            {
                Tracer::Scope c(tr, "core.to_cigar");
                cigar = core::toCigar(res[i].ops);
            }
            std::snprintf(line, sizeof line, "%-20.20s %-20.20s %-10.0f %-12llu ",
                          jobs[i].query.name.c_str(),
                          jobs[i].reference.name.c_str(),
                          res[i].scoreAsDouble(),
                          static_cast<unsigned long long>(t->cycles()[i]));
            sink.assign(line);
            sink += cigar;
            out.cells += static_cast<double>(jobs[i].query.length()) *
                         jobs[i].reference.length();
            out.pairs++;
        }
    };

    bool done = false;
    while (!done) {
        std::vector<AlignPipeline::Job> jobs;
        {
            Tracer::Scope s(tr, "driver.parse");
            seq::FastaRecord qr, rr;
            while (jobs.size() < 256) {
                bool ok;
                {
                    Tracer::Scope n(tr, "seq.fasta_next");
                    ok = qs.next(qr) && rs.next(rr);
                }
                if (!ok) {
                    done = true;
                    break;
                }
                Tracer::Scope d(tr, "seq.dna_from_string");
                jobs.push_back({seq::dnaFromString(qr.residues, qr.name),
                                seq::dnaFromString(rr.residues, rr.name)});
            }
        }
        if (!jobs.empty()) {
            Tracer::Scope s(tr, "host.submit", ++rid);
            const auto submitted = Clock::now();
            pending.push_back(pipeline.submit(
                std::move(jobs), host::TicketOptions{},
                [&tr, submitted, rid](host::BatchTicket<AlignK> &) {
                    tr.record("host.residence", submitted, Clock::now(),
                              rid);
                }));
            out.tickets++;
        }
        while (!pending.empty() && (pending.front()->done() ||
                                    pending.size() > max_pending)) {
            writeback(pending.front());
            pending.pop_front();
        }
    }
    while (!pending.empty()) {
        writeback(pending.front());
        pending.pop_front();
    }
    out.cache = pipeline.cacheCounters();
    out.wallS = secondsSince(t0);
    return out;
}

/** Single-thread lane-engine replay: fill and traceback per group. */
void
replayEngine(const std::vector<AlignPipeline::Job> &jobs, Tracer &tr,
             Metrics &m)
{
    sim::EngineConfig ecfg;
    ecfg.maxQueryLength = 4096;
    ecfg.maxReferenceLength = 4096;
    sim::LaneAligner<AlignK> lanes(ecfg);
    using Lane = sim::LaneAligner<AlignK>::LanePair;
    double cells = 0, tb_bytes = 0;
    size_t groups = 0, tracebacks = 0;
    for (size_t g = 0; g < jobs.size(); g += 8) {
        std::vector<Lane> group;
        for (size_t i = g; i < std::min(jobs.size(), g + 8); i++) {
            group.push_back({&jobs[i].query, &jobs[i].reference});
            cells += static_cast<double>(jobs[i].query.length()) *
                     jobs[i].reference.length();
        }
        std::vector<sim::LaneAligner<AlignK>::LaneFillState> states;
        {
            Tracer::Scope s(tr, "systolic.fill_lanes");
            states = lanes.fillLanes(group);
        }
        groups++;
        for (auto &st : states) {
            tb_bytes += static_cast<double>(st.tb.size()) *
                        sizeof(core::TbPtr);
            for (int lane = 0; lane < st.count; lane++) {
                sim::CycleStats cs;
                Tracer::Scope s(tr, "systolic.lane_traceback");
                lanes.laneTraceback(st, lane, cs);
                tracebacks++;
            }
            lanes.recycleBank(std::move(st));
        }
    }
    const double fill = tr.total("systolic.fill_lanes");
    const double tb = tr.total("systolic.lane_traceback");
    m.set("systolic.fill_gcups", cells / fill / 1e9);
    m.set("systolic.traceback_us_per_pair",
          1e6 * tb / static_cast<double>(std::max<size_t>(1, tracebacks)));
    m.set("systolic.tb_bytes", tb_bytes / static_cast<double>(groups));
    m.set("systolic.tb_gbps", tb_bytes / (fill + tb) / 1e9);
}

/** Streaming read-modify-write over one array of >= 4x the LLC. */
void
memoryProbe(Tracer &tr, Metrics &m)
{
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0)
        llc = 32L << 20;
    const size_t n = static_cast<size_t>(4 * llc) / sizeof(uint64_t);
    std::vector<uint64_t> a(n, 1); // first touch outside the timing
    double best = 0;
    for (int pass = 0; pass < 3; pass++) {
        const auto t0 = Clock::now();
        {
            Tracer::Scope s(tr, "mem.stream");
            for (size_t i = 0; i < n; i++)
                a[i] = a[i] * 3 + 1;
        }
        best = std::max(best, 2.0 * static_cast<double>(n) *
                                  sizeof(uint64_t) / secondsSince(t0));
    }
    volatile uint64_t keep = a[n / 2];
    (void)keep;
    m.set("mem.stream_gbps", best / 1e9);
    m.set("mem.llc_bytes", static_cast<double>(llc));
    m.set("mem.stream_array_bytes", static_cast<double>(n * sizeof(uint64_t)));
}

// ------------------------------------------------------------------ serve

using ServeK = kernels::GlobalAffine;

/** The daemon's pipeline configuration for --kernel global-affine
 *  --nk 2 --threads 2 (tools/dphls_serve.cc defaults otherwise). */
host::BatchConfig
serveConfig()
{
    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nb = 1;
    cfg.nk = 2;
    cfg.threads = 2;
    cfg.fmaxMhz = model::kernelFrequencyMhz<ServeK>();
    cfg.maxQueryLength = 1024;
    cfg.maxReferenceLength = 1024;
    cfg.hostOverheadCycles = 0;
    cfg.laneWidth = 8;
    cfg.dispatch = host::DispatchPolicy::CostModel;
    cfg.agingEvery = 16;
    cfg.cacheEntries = 0;
    cfg.collectPathStats = false;
    return cfg;
}

serve::AlignRequest
interactiveRequest(seq::Rng &rng)
{
    serve::AlignRequest req;
    req.trafficClass = serve::TrafficClass::Interactive;
    req.deadlineMicros = static_cast<uint64_t>(kDeadlineMs * 1e3);
    req.tenant = "interactive";
    serve::WireJob job;
    for (auto *v : {&job.query, &job.reference}) {
        v->resize(static_cast<size_t>(rng.range(kMinLen, kMaxLen)));
        for (auto &c : *v)
            c = static_cast<uint8_t>(rng.below(4));
    }
    req.jobs.push_back(std::move(job));
    return req;
}

serve::Frame
frameOf(serve::MsgType type, uint64_t rid, std::vector<uint8_t> payload)
{
    serve::Frame f;
    f.header.type = static_cast<uint8_t>(type);
    f.header.payloadLen = static_cast<uint32_t>(payload.size());
    f.header.requestId = rid;
    f.payload = std::move(payload);
    return f;
}

/** Protocol codec: one span around each loop of @p n calls. */
void
codecProbe(uint64_t seed, int n, Tracer &tr, Metrics &m)
{
    seq::Rng rng(seed * 31 + 5);
    std::vector<serve::AlignRequest> reqs;
    for (int i = 0; i < n; i++)
        reqs.push_back(interactiveRequest(rng));
    // Responses carry real run-length CIGARs of these pairs.
    sim::SystolicAligner<ServeK> engine;
    std::vector<serve::AlignResponse> resps;
    for (const auto &r : reqs) {
        seq::DnaSequence q, ref;
        for (const uint8_t c : r.jobs[0].query)
            q.chars.push_back(seq::DnaChar{c});
        for (const uint8_t c : r.jobs[0].reference)
            ref.chars.push_back(seq::DnaChar{c});
        const auto res = engine.align(q, ref);
        serve::AlignResponse ar;
        ar.results.push_back({true, res.scoreAsDouble(),
                              engine.lastTotalCycles(),
                              serve::encodeRuns(res.ops)});
        resps.push_back(std::move(ar));
    }
    std::vector<serve::Frame> req_frames, resp_frames;
    size_t sink = 0;
    {
        Tracer::Scope s(tr, "serve.encode_req_loop");
        for (int i = 0; i < n; i++)
            req_frames.push_back(frameOf(
                serve::MsgType::Align, static_cast<uint64_t>(i + 1),
                serve::encodeAlignRequest(reqs[static_cast<size_t>(i)])));
    }
    {
        Tracer::Scope s(tr, "serve.decode_req_loop");
        for (const auto &f : req_frames)
            sink += serve::decodeAlignRequest(f).jobs.size();
    }
    {
        Tracer::Scope s(tr, "serve.encode_resp_loop");
        for (int i = 0; i < n; i++)
            resp_frames.push_back(frameOf(
                serve::MsgType::AlignOk, static_cast<uint64_t>(i + 1),
                serve::encodeAlignResponse(resps[static_cast<size_t>(i)])));
    }
    {
        Tracer::Scope s(tr, "serve.decode_resp_loop");
        for (const auto &f : resp_frames)
            sink += serve::decodeAlignResponse(f).results.size();
    }
    if (sink != 2 * static_cast<size_t>(n))
        throw std::runtime_error("codec round trip lost jobs");
    const double per = 1e6 / n;
    m.set("serve.encode_req_us", per * tr.total("serve.encode_req_loop"));
    m.set("serve.decode_req_us", per * tr.total("serve.decode_req_loop"));
    m.set("serve.encode_resp_us", per * tr.total("serve.encode_resp_loop"));
    m.set("serve.decode_resp_us", per * tr.total("serve.decode_resp_loop"));
}

/**
 * In-process AlignService: Align frames paced at @p rate per second for
 * @p secs; handleFrame time per call and handleFrame -> sink latency.
 */
void
serviceProbe(uint64_t seed, double rate, double secs, Tracer &tr,
             Metrics &m)
{
    serve::ServiceConfig scfg;
    scfg.kernelAlias = "global-affine";
    serve::AlignService<ServeK> service(serveConfig(), scfg);
    seq::Rng rng(seed * 17 + 9);
    const int n = std::max(1, static_cast<int>(rate * secs));
    std::vector<serve::Frame> frames;
    for (int i = 0; i < n; i++)
        frames.push_back(frameOf(serve::MsgType::Align,
                                 static_cast<uint64_t>(i + 1),
                                 serve::encodeAlignRequest(
                                     interactiveRequest(rng))));
    std::mutex mu;
    std::vector<Clock::time_point> entered(static_cast<size_t>(n) + 1),
        answered(static_cast<size_t>(n) + 1);
    size_t answers = 0, ok = 0;
    const auto sink = [&](serve::MsgType type, uint64_t rid,
                          std::vector<uint8_t>) {
        const auto now = Clock::now();
        std::lock_guard lk(mu);
        answered[rid] = now;
        answers++;
        ok += type == serve::MsgType::AlignOk ? 1 : 0;
    };
    const auto start = Clock::now();
    for (int i = 0; i < n; i++) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i / rate)));
        const uint64_t rid = static_cast<uint64_t>(i + 1);
        {
            std::lock_guard lk(mu);
            entered[rid] = Clock::now();
        }
        Tracer::Scope s(tr, "serve.handle_frame", rid);
        service.handleFrame(frames[static_cast<size_t>(i)], sink);
    }
    service.pipeline().drain();
    std::vector<double> service_ms;
    {
        std::lock_guard lk(mu);
        if (answers != static_cast<size_t>(n) || ok != answers)
            throw std::runtime_error("in-process service lost requests");
        for (int i = 1; i <= n; i++)
            service_ms.push_back(1e3 * seconds(entered[static_cast<size_t>(i)],
                                               answered[static_cast<size_t>(i)]));
    }
    m.set("serve.handle_frame_us",
          1e6 * tr.total("serve.handle_frame") / n);
    m.set("serve.service_ms_p99", pct(service_ms, 0.99));
}

// -------------------------------------------------------------------- map

struct Truth
{
    int refStart = 0;
    int length = 0;
};

std::map<std::string, Truth>
loadTruth(const std::string &path)
{
    std::map<std::string, Truth> out;
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        throw std::runtime_error("cannot read " + path);
    char name[64];
    Truth t;
    while (std::fscanf(f, "%63s %d %d", name, &t.refStart, &t.length) == 3)
        out[name] = t;
    std::fclose(f);
    return out;
}

struct MapReplay
{
    double wallS = 0;
    int reads = 0;
    int placed = 0;
    double extJobs = 0; //!< extension jobs submitted (a tiled read is one)
};

/** dphls_map's file loop (defaults: nk 2, max-len 1024), traced. */
MapReplay
replayMap(const Args &a, const std::map<std::string, Truth> &truth,
          Tracer &tr)
{
    using workloads::ReadMapper;
    MapReplay out;
    const auto t0 = Clock::now();
    seq::DnaSequence genome;
    {
        Tracer::Scope s(tr, "driver.parse");
        seq::FastaStream rs(a.str("map-ref"));
        seq::FastaRecord rec;
        {
            Tracer::Scope n(tr, "seq.fasta_next");
            if (!rs.next(rec))
                throw std::runtime_error("empty map reference");
        }
        Tracer::Scope d(tr, "seq.dna_from_string");
        genome = seq::dnaFromString(rec.residues, rec.name);
    }
    std::unique_ptr<ReadMapper> mapper;
    {
        Tracer::Scope s(tr, "workloads.index_build");
        mapper = std::make_unique<ReadMapper>(std::move(genome));
    }
    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nk = 2;
    cfg.fmaxMhz = model::kernelFrequencyMhz<ReadMapper::Kernel>();
    cfg.maxQueryLength = 1024;
    cfg.maxReferenceLength = 1024;
    cfg.hostOverheadCycles = 0;
    cfg.collectPathStats = false;
    std::unique_ptr<ReadMapper::Pipeline> pipeline;
    {
        Tracer::Scope s(tr, "host.pipeline_ctor");
        pipeline = std::make_unique<ReadMapper::Pipeline>(cfg);
    }

    uint64_t rid = 0;
    const auto place = [&](const seq::DnaSequence &read,
                           const workloads::ReadMapping &mp) {
        out.reads++;
        const auto it = truth.find(read.name);
        if (mp.mapped && it != truth.end() &&
            std::abs(mp.refStart - it->second.refStart) <=
                mapper->config().windowPad)
            out.placed++;
    };
    std::deque<std::pair<seq::DnaSequence, ReadMapper::Pending>> pending;
    const size_t max_pending =
        4 + static_cast<size_t>(pipeline->threadCount());
    const auto retire = [&](bool force) {
        while (!pending.empty() &&
               (force || !pending.front().second.ticket ||
                pending.front().second.ticket->done() ||
                pending.size() > max_pending)) {
            auto &[read, p] = pending.front();
            workloads::ReadMapping mp;
            {
                Tracer::Scope s(tr, "workloads.finish");
                mp = mapper->finish(read, p);
            }
            place(read, mp);
            pending.pop_front();
        }
    };

    seq::FastaStream rs(a.str("map-reads"));
    seq::FastaRecord rec;
    for (;;) {
        seq::DnaSequence read;
        {
            Tracer::Scope s(tr, "driver.parse");
            bool ok;
            {
                Tracer::Scope n(tr, "seq.fasta_next");
                ok = rs.next(rec);
            }
            if (!ok)
                break;
            Tracer::Scope d(tr, "seq.dna_from_string");
            read = seq::dnaFromString(rec.residues, rec.name);
        }
        const bool long_read = read.length() > cfg.maxQueryLength;
        workloads::MapPlan plan;
        {
            Tracer::Scope s(tr, long_read ? "workloads.plan_long"
                                          : "workloads.plan_short");
            plan = mapper->plan(read, cfg.maxQueryLength,
                                cfg.maxReferenceLength);
        }
        if (plan.longRead) {
            workloads::ReadMapping mp;
            {
                Tracer::Scope s(tr, "workloads.map_long");
                mp = mapper->mapLong(read, plan);
            }
            out.extJobs += plan.candidates.empty() ? 0 : 1;
            place(read, mp);
            continue;
        }
        ReadMapper::Pending p;
        p.plan = std::move(plan);
        if (!p.plan.candidates.empty()) {
            std::vector<ReadMapper::Job> jobs;
            {
                Tracer::Scope s(tr, "workloads.extension_jobs");
                jobs = mapper->extensionJobs(read, p.plan);
            }
            out.extJobs += static_cast<double>(jobs.size());
            Tracer::Scope s(tr, "host.submit_map", ++rid);
            const auto submitted = Clock::now();
            p.ticket = pipeline->submit(
                std::move(jobs), host::TicketOptions{},
                [&tr, submitted,
                 rid](host::BatchTicket<ReadMapper::Kernel> &) {
                    tr.record("host.residence_map", submitted,
                              Clock::now(), rid);
                });
        }
        pending.emplace_back(std::move(read), std::move(p));
        retire(false);
    }
    retire(true);
    out.wallS = secondsSince(t0);
    return out;
}

/**
 * Single-pair engine on long-read tiles: tile-sized windows of each
 * long read against its true locus, with the mapper's tile engine
 * configuration (tile-sized maxima, default path).
 */
void
tileProbe(const Args &a, const std::map<std::string, Truth> &truth,
          Tracer &tr, Metrics &m)
{
    const workloads::MapperConfig mcfg;
    seq::FastaStream gs(a.str("map-ref"));
    seq::FastaRecord rec;
    gs.next(rec);
    const auto ref = seq::dnaFromString(rec.residues);
    sim::EngineConfig ecfg;
    ecfg.maxQueryLength = mcfg.tiling.tileSize;
    ecfg.maxReferenceLength = mcfg.tiling.tileSize;
    sim::SystolicAligner<kernels::GlobalAffine> engine(ecfg);
    const int tile = mcfg.tiling.tileSize;
    const int step = tile - mcfg.tiling.tileOverlap;
    constexpr int max_tiles = 64;
    double cells = 0;
    int tiles = 0;
    seq::FastaStream rs(a.str("map-reads"));
    while (tiles < max_tiles && rs.next(rec)) {
        const auto it = truth.find(rec.name);
        if (static_cast<int>(rec.residues.size()) <= 1024 ||
            it == truth.end())
            continue;
        const auto read = seq::dnaFromString(rec.residues);
        const int at = it->second.refStart;
        for (int off = 0; tiles < max_tiles && off + tile <= read.length() &&
                          at + off + tile <= ref.length();
             off += step) {
            seq::DnaSequence q, r;
            q.chars.assign(read.chars.begin() + off,
                           read.chars.begin() + off + tile);
            r.chars.assign(ref.chars.begin() + at + off,
                           ref.chars.begin() + at + off + tile);
            Tracer::Scope s(tr, "systolic.align_tile");
            engine.align(q, r);
            cells += static_cast<double>(tile) * tile;
            tiles++;
        }
    }
    m.set("systolic.single_pair_gcups",
          tiles ? cells / tr.total("systolic.align_tile") / 1e9 : 0.0);
}

/** Wall time of @p f and the top-level spans it left on this thread. */
template <typename F>
std::pair<double, double>
closureOf(Tracer &tr, F &&f)
{
    const double spans0 = tr.topLevelTotal();
    const auto t0 = Clock::now();
    f();
    return {secondsSince(t0), tr.topLevelTotal() - spans0};
}

} // namespace

/**
 * trace subcommand. Options: --workload --seed --align-query
 * --align-ref --map-ref --map-reads --map-truth --socket --rate
 * --burst-seconds --service-seconds --spans.
 *
 * bench.trace_overhead is the traced replay's wall time over the
 * untraced one, minus 1, for the workload being traced (serve-short:
 * interactive p50 of a traced burst over an untraced one). Its
 * bench.closure_err is |driver wall - driver top-level spans| / wall.
 */
int
cmdTrace(const Args &a)
{
    const std::string workload = a.str("workload");
    const uint64_t seed = static_cast<uint64_t>(a.num("seed", 1));
    const double rate = a.num("rate", 2000);
    Metrics m;
    Tracer tr(true);
    Tracer off(false);
    double overhead = 0, closure = 0;
    const auto state = [&](double traced, double plain,
                           std::pair<double, double> wall_spans) {
        overhead = traced / plain - 1.0;
        closure = std::abs(wall_spans.first - wall_spans.second) /
                  wall_spans.first;
    };

    // ---- host + seq + core: align replay, untraced then traced
    const std::string q = a.str("align-query"), r = a.str("align-ref");
    replayAlign(q, r, 3, off); // warm-up: page cache, allocator, code
    const AlignReplay plain = replayAlign(q, r, 3, off);
    AlignReplay traced;
    const auto align_closure =
        closureOf(tr, [&] { traced = replayAlign(q, r, 3, tr); });
    const AlignReplay single = replayAlign(q, r, 1, off);
    if (workload == "align-batch")
        state(traced.wallS, plain.wallS, align_closure);
    std::vector<double> res_ms;
    for (const double d : tr.durations("host.residence"))
        res_ms.push_back(1e3 * d);
    const double tickets = static_cast<double>(traced.tickets);
    m.set("seq.parse_s",
          tr.total("seq.fasta_next") + tr.total("seq.dna_from_string"));
    m.set("host.submit_us", 1e6 * tr.total("host.submit") / tickets);
    m.set("host.residence_ms_p50", pct(res_ms, 0.5));
    m.set("host.residence_ms_p99", pct(res_ms, 0.99));
    m.set("host.collect_wait_s", tr.total("host.collect_wait"));
    m.set("host.tickets", tickets);
    m.set("host.jobs_per_ticket", static_cast<double>(traced.pairs) / tickets);
    const auto cc = traced.cache;
    m.set("host.cache_hit_ratio",
          static_cast<double>(cc.hits) /
              static_cast<double>(std::max<uint64_t>(1, cc.hits + cc.misses)));
    m.set("host.scaling_eff", (plain.cells / plain.wallS) /
                                  (3.0 * single.cells / single.wallS));
    m.set("core.cigar_us_per_pair", 1e6 * tr.total("core.to_cigar") /
                                        static_cast<double>(traced.pairs));

    // ---- systolic + mem
    replayEngine(loadPairs(q, r), tr, m);
    memoryProbe(tr, m);

    // ---- serve: codec, in-process service, daemon socket
    codecProbe(seed, 2000, tr, m);
    serviceProbe(seed, rate, a.num("service-seconds", 1.0), tr, m);
    const std::string socket = a.str("socket");
    m.set("serve.hello_rtt_us", pct(helloRoundTrips(socket, 200), 0.5));
    LoadConfig lc;
    lc.socket = socket;
    lc.seed = seed;
    lc.phases.push_back({rate, a.num("burst-seconds", 1.0)});
    double plain_p50 = 0;
    if (workload == "serve-short") {
        const LoadResult base = runLoad(lc, false, off);
        plain_p50 = pct(base.phases.at(0).interactiveMs, 0.5);
    }
    LoadResult load;
    const auto load_closure =
        closureOf(tr, [&] { load = runLoad(lc, true, tr); });
    const PhaseResult &ph = load.phases.at(0);
    if (workload == "serve-short")
        state(pct(ph.interactiveMs, 0.5), plain_p50, load_closure);
    m.set("bench.gen_lag_p99_ms", pct(ph.lagMs, 0.99));
    using serve::RejectReason;
    const auto rej = [&](RejectReason why) {
        return static_cast<double>(load.rejects[static_cast<size_t>(why)]);
    };
    m.set("serve.rejects.deadline", rej(RejectReason::DeadlineUnmeetable));
    m.set("serve.rejects.quota", rej(RejectReason::QuotaExceeded));
    m.set("serve.rejects.undispatchable", rej(RejectReason::Undispatchable));
    m.set("serve.rejects.malformed", rej(RejectReason::Malformed));
    m.set("serve.rejects.shutting_down", rej(RejectReason::ShuttingDown));
    m.set("serve.protocol_errors", static_cast<double>(load.protocolErrors));
    m.set("serve.accounting_closed",
          load.statsOk && load.stats.accountingClosed ? 1.0 : 0.0);
    m.set("serve.sample_mismatches", load.sampleMismatches);

    // ---- workloads: map replay (untraced first when it is traced)
    const auto truth = loadTruth(a.str("map-truth"));
    if (workload == "map-reads")
        replayMap(a, truth, off); // warm-up
    const double map_plain =
        workload == "map-reads" ? replayMap(a, truth, off).wallS : 0;
    MapReplay mr;
    const auto map_closure =
        closureOf(tr, [&] { mr = replayMap(a, truth, tr); });
    if (workload == "map-reads")
        state(mr.wallS, map_plain, map_closure);
    const auto mean = [&](const char *name) {
        const auto d = tr.durations(name);
        double s = 0;
        for (const double x : d)
            s += x;
        return d.empty() ? 0.0 : s / static_cast<double>(d.size());
    };
    m.set("workloads.index_build_s", tr.total("workloads.index_build"));
    m.set("workloads.plan_us_short", 1e6 * mean("workloads.plan_short"));
    m.set("workloads.plan_us_long", 1e6 * mean("workloads.plan_long"));
    m.set("workloads.map_long_ms", 1e3 * mean("workloads.map_long"));
    m.set("workloads.extend_jobs_per_read",
          mr.extJobs / std::max(1, mr.reads));
    m.set("workloads.useful_ratio", mr.placed / std::max(1.0, mr.extJobs));
    tileProbe(a, truth, tr, m);

    m.set("bench.trace_overhead", overhead);
    m.set("bench.closure_err", closure);
    for (const auto &[name, self] : tr.selfTimes())
        m.set("self_s." + name, self);
    if (a.has("spans"))
        tr.write(a.str("spans"));
    m.print(stdout);
    return 0;
}

} // namespace perfbench
