/**
 * @file
 * Seeded input generators. The measured programs see only these files.
 *
 *   gen-align: distinct DNA pairs (random reference, query mutated from
 *     it with substitutions and indels) as two FASTA files.
 *   gen-map: a synthetic genome plus reads drawn from it; short reads
 *     of one length and long reads whose lengths are evenly spaced over
 *     [1 kb, 8 kb] in a seeded order, so the total work of a
 *     read set depends little on the seed. A truth table records each
 *     read's origin.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common.hh"
#include "probe.hh"
#include "seq/read_simulator.hh"

namespace perfbench {

using namespace dphls;

namespace {

// align-batch pairs: ~1 kb at ~5% divergence.
constexpr int kAlignLen = 1000;
constexpr double kAlignSub = 0.03;
constexpr double kAlignIndel = 0.02;

// map-reads reads: 150 bp short reads, 1-8 kb long reads.
constexpr int kShortLen = 150;
constexpr int kLongMin = 1000;
constexpr int kLongMax = 8000;
constexpr double kReadError = 0.04;

} // namespace

int
cmdGenAlign(const Args &a)
{
    const int pairs = static_cast<int>(a.num("pairs", 1));
    seq::Rng rng(static_cast<uint64_t>(a.num("seed", 1)) * 0x9e37 + 11);
    std::vector<seq::DnaSequence> q, r;
    q.reserve(static_cast<size_t>(pairs));
    r.reserve(static_cast<size_t>(pairs));
    for (int i = 0; i < pairs; i++) {
        char name[32];
        auto ref = seq::randomDna(kAlignLen, rng);
        auto qry = seq::mutateDna(ref, kAlignSub, kAlignIndel, rng);
        std::snprintf(name, sizeof name, "r%06d", i);
        ref.name = name;
        std::snprintf(name, sizeof name, "q%06d", i);
        qry.name = name;
        r.push_back(std::move(ref));
        q.push_back(std::move(qry));
    }
    writeFasta(a.str("query"), q);
    writeFasta(a.str("reference"), r);
    return 0;
}

int
cmdGenMap(const Args &a)
{
    const int genome_len = static_cast<int>(a.num("genome", 2000000));
    const int n_short = static_cast<int>(a.num("short", 400));
    const int n_long = static_cast<int>(a.num("long", 200));
    seq::Rng rng(static_cast<uint64_t>(a.num("seed", 1)) * 0x51ed + 7);

    auto genome = seq::makeReferenceGenome(genome_len, rng);
    genome.name = "synth_genome";

    // Class order: a seeded shuffle of n_short 'S' and n_long 'L'.
    std::vector<char> order(static_cast<size_t>(n_short), 'S');
    order.insert(order.end(), static_cast<size_t>(n_long), 'L');
    for (size_t i = order.size(); i > 1; i--)
        std::swap(order[i - 1], order[rng.below(i)]);
    // Long-read lengths: evenly spaced, then shuffled.
    std::vector<int> long_lens(static_cast<size_t>(n_long));
    for (int k = 0; k < n_long; k++)
        long_lens[static_cast<size_t>(k)] =
            kLongMin + static_cast<int>((kLongMax - kLongMin) *
                                        (k + 0.5) / std::max(1, n_long));
    for (size_t i = long_lens.size(); i > 1; i--)
        std::swap(long_lens[i - 1], long_lens[rng.below(i)]);

    std::vector<seq::DnaSequence> reads;
    std::FILE *truth = std::fopen(a.str("truth").c_str(), "w");
    if (!truth)
        throw std::runtime_error("cannot write truth table");
    int si = 0, li = 0;
    for (const char cls : order) {
        seq::ReadSimConfig rc;
        rc.errorRate = kReadError;
        char name[32];
        if (cls == 'S') {
            rc.readLength = kShortLen;
            std::snprintf(name, sizeof name, "s%06d", si++);
        } else {
            rc.readLength = long_lens[static_cast<size_t>(li)];
            std::snprintf(name, sizeof name, "l%06d", li++);
        }
        auto sim = seq::simulateRead(genome, rc, rng);
        sim.read.name = name;
        std::fprintf(truth, "%s\t%d\t%d\n", name, sim.refStart,
                     sim.read.length());
        reads.push_back(std::move(sim.read));
    }
    std::fclose(truth);
    writeFasta(a.str("reference"), {genome});
    writeFasta(a.str("reads"), reads);
    return 0;
}

} // namespace perfbench
