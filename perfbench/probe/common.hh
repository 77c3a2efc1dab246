/**
 * @file
 * Shared helpers of the perfbench probe: argument parsing, timing,
 * percentiles, FASTA writing and a flat JSON metric emitter.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "host/latency_probe.hh"
#include "seq/alphabet.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Nearest-rank percentile on a copy (0 when empty). */
inline double
pct(std::vector<double> v, double p)
{
    return dphls::host::percentile(v, p);
}

/** `--key value` options after the subcommand name. */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; i++) {
            std::string k = argv[i];
            if (k.rfind("--", 0) != 0 || i + 1 >= argc)
                throw std::invalid_argument("bad argument: " + k);
            _kv[k.substr(2)] = argv[++i];
        }
    }

    std::string
    str(const std::string &k, const std::string &dflt = {}) const
    {
        const auto it = _kv.find(k);
        if (it != _kv.end())
            return it->second;
        if (dflt.empty())
            throw std::invalid_argument("missing --" + k);
        return dflt;
    }

    double
    num(const std::string &k, double dflt) const
    {
        const auto it = _kv.find(k);
        return it == _kv.end() ? dflt : std::stod(it->second);
    }

    bool has(const std::string &k) const { return _kv.count(k) != 0; }

  private:
    std::map<std::string, std::string> _kv;
};

/** Flat name -> number metrics, printed as one JSON object. */
class Metrics
{
  public:
    void set(const std::string &k, double v) { _num[k] = v; }
    void setText(const std::string &k, const std::string &v) { _text[k] = v; }

    void
    print(std::FILE *out) const
    {
        std::fputc('{', out);
        bool first = true;
        for (const auto &[k, v] : _num) {
            std::fprintf(out, "%s\"%s\":%.17g", first ? "" : ",",
                         k.c_str(), v);
            first = false;
        }
        for (const auto &[k, v] : _text) {
            std::fprintf(out, "%s\"%s\":\"%s\"", first ? "" : ",",
                         k.c_str(), v.c_str());
            first = false;
        }
        std::fputs("}\n", out);
    }

  private:
    std::map<std::string, double> _num;
    std::map<std::string, std::string> _text;
};

/** Write @p seqs as FASTA (80 columns). */
inline void
writeFasta(const std::string &path,
           const std::vector<dphls::seq::DnaSequence> &seqs)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    for (const auto &s : seqs) {
        const std::string text = dphls::seq::dnaToString(s);
        std::fprintf(f, ">%s\n", s.name.c_str());
        for (size_t i = 0; i < text.size(); i += 80)
            std::fprintf(f, "%.*s\n",
                         static_cast<int>(std::min<size_t>(80, text.size() - i)),
                         text.c_str() + i);
    }
    if (std::fclose(f) != 0)
        throw std::runtime_error("write failed: " + path);
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
