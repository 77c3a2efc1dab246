/**
 * @file
 * In-memory span recorder of the traced run.
 *
 * A span is (name, start, end, parent span, request id, thread). Spans
 * are recorded by the benchmark's own code around calls into the
 * program's modules, kept in memory, and written out when the run
 * ends. The parent of a span opened through Scope is the innermost
 * open Scope of the same thread. A disabled tracer records nothing, so
 * the same replay code runs traced and untraced.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench {

class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        Clock::time_point t0{}, t1{};
        int parent = -1;
        uint64_t rid = 0;
        int thread = 0;
    };

    explicit Tracer(bool enabled) : _enabled(enabled) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return _enabled; }

    /** RAII span around one call; nests under the thread's open span. */
    class Scope
    {
      public:
        Scope(Tracer &tr, const char *name, uint64_t rid = 0)
            : _tr(tr.enabled() ? &tr : nullptr)
        {
            if (!_tr)
                return;
            _outer = current();
            _id = _tr->open(name, _outer, rid);
            current() = _id;
        }
        ~Scope()
        {
            if (!_tr)
                return;
            _tr->close(_id);
            current() = _outer;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *_tr;
        int _id = -1;
        int _outer = -1;
    };

    /** Record a span whose endpoints were taken elsewhere. */
    void
    record(const char *name, Clock::time_point t0, Clock::time_point t1,
           uint64_t rid = 0)
    {
        if (!_enabled)
            return;
        std::lock_guard lk(_mutex);
        _spans.push_back({name, t0, t1, -1, rid, threadId()});
    }

    /** Durations (seconds) of every closed span named @p name. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::lock_guard lk(_mutex);
        std::vector<double> out;
        for (const auto &s : _spans)
            if (name == s.name)
                out.push_back(seconds(s.t0, s.t1));
        return out;
    }

    double
    total(const std::string &name) const
    {
        double t = 0;
        for (const double d : durations(name))
            t += d;
        return t;
    }

    /**
     * Total duration of the top-level spans recorded on the calling
     * thread, and per-name self time (duration minus child spans).
     */
    double
    topLevelTotal() const
    {
        std::lock_guard lk(_mutex);
        const int me = threadId();
        double t = 0;
        for (const auto &s : _spans)
            if (s.thread == me && s.parent < 0)
                t += seconds(s.t0, s.t1);
        return t;
    }

    std::map<std::string, double>
    selfTimes() const
    {
        std::lock_guard lk(_mutex);
        std::vector<double> self(_spans.size());
        for (size_t i = 0; i < _spans.size(); i++)
            self[i] = seconds(_spans[i].t0, _spans[i].t1);
        for (const auto &s : _spans)
            if (s.parent >= 0)
                self[static_cast<size_t>(s.parent)] -= seconds(s.t0, s.t1);
        std::map<std::string, double> out;
        for (size_t i = 0; i < _spans.size(); i++)
            out[_spans[i].name] += self[i];
        return out;
    }

    /** Write every span as TSV (times in ns from the first span). */
    void
    write(const std::string &path) const
    {
        std::lock_guard lk(_mutex);
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return;
        std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\trid\tthread\n");
        const Clock::time_point base =
            _spans.empty() ? Clock::time_point{} : _spans.front().t0;
        for (size_t i = 0; i < _spans.size(); i++) {
            const auto &s = _spans[i];
            std::fprintf(
                f, "%zu\t%s\t%lld\t%lld\t%d\t%llu\t%d\n", i, s.name,
                static_cast<long long>((s.t0 - base).count()),
                static_cast<long long>((s.t1 - base).count()), s.parent,
                static_cast<unsigned long long>(s.rid), s.thread);
        }
        std::fclose(f);
    }

  private:
    static int &
    current()
    {
        thread_local int cur = -1;
        return cur;
    }

    static int
    threadId()
    {
        static std::atomic<int> next{0};
        thread_local const int id = next.fetch_add(1);
        return id;
    }

    int
    open(const char *name, int parent, uint64_t rid)
    {
        const int tid = threadId();
        const auto t0 = Clock::now();
        std::lock_guard lk(_mutex);
        _spans.push_back({name, t0, t0, parent, rid, tid});
        return static_cast<int>(_spans.size() - 1);
    }

    void
    close(int id)
    {
        const auto t1 = Clock::now();
        std::lock_guard lk(_mutex);
        _spans[static_cast<size_t>(id)].t1 = t1;
    }

    const bool _enabled;
    mutable std::mutex _mutex;
    std::vector<Span> _spans;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
