/**
 * @file
 * expect-align: golden expectations for sampled align-batch pairs.
 *
 * The score and CIGAR come from the full-matrix reference aligner
 * (ref::MatrixAligner), the modeled cycles from a single-pair systolic
 * engine configured like dphls_align's defaults. Cycles are analytic,
 * so a host change that moves them is a correctness failure.
 */

#include <set>
#include <sstream>

#include "common.hh"
#include "core/cigar.hh"
#include "kernels/all.hh"
#include "probe.hh"
#include "reference/matrix_aligner.hh"
#include "seq/fasta.hh"
#include "systolic/engine.hh"

namespace perfbench {

using namespace dphls;

int
cmdExpectAlign(const Args &a)
{
    using K = kernels::LocalAffine;
    std::set<size_t> wanted;
    {
        std::stringstream ss(a.str("indices"));
        std::string tok;
        while (std::getline(ss, tok, ','))
            wanted.insert(std::stoul(tok));
    }
    const auto queries = seq::readFastaFile(a.str("query"));
    const auto refs = seq::readFastaFile(a.str("reference"));

    // dphls_align's defaults: 32 PEs, band 64, 4096-long sequences.
    sim::EngineConfig ecfg;
    ecfg.numPe = 32;
    ecfg.bandWidth = 64;
    ecfg.maxQueryLength = 4096;
    ecfg.maxReferenceLength = 4096;
    sim::SystolicAligner<K> engine(ecfg);
    const ref::MatrixAligner<K> golden(K::defaultParams(), ecfg.bandWidth);

    std::printf("[");
    bool first = true;
    for (const size_t i : wanted) {
        if (i >= queries.size() || i >= refs.size())
            throw std::out_of_range("pair index out of range");
        const auto q = seq::dnaFromString(queries[i].residues);
        const auto r = seq::dnaFromString(refs[i].residues);
        const auto gold = golden.align(q, r);
        engine.align(q, r);
        std::printf("%s{\"index\":%zu,\"query\":\"%s\",\"score\":%.17g,"
                    "\"cigar\":\"%s\",\"cycles\":%llu}",
                    first ? "" : ",", i, queries[i].name.c_str(),
                    gold.scoreAsDouble(),
                    gold.ops.empty() ? "-" : core::toCigar(gold.ops).c_str(),
                    static_cast<unsigned long long>(engine.lastTotalCycles()));
        first = false;
    }
    std::printf("]\n");
    return 0;
}

} // namespace perfbench
