/**
 * @file
 * perfbench_probe: the benchmark's own helper binary.
 *
 *   env           environment stamp (ISA tier, compiler, flags) as JSON
 *   gen-align     seeded FASTA pairs for align-batch
 *   gen-map       seeded genome, reads and truth table for map-reads
 *   expect-align  golden score, CIGAR and modeled cycles of given pairs
 *   loadgen       open-loop serving load from pre-built requests
 *   trace         traced in-process replay: per-layer metrics
 *
 * Every subcommand takes `--key value` options and prints its result
 * as one JSON object on stdout.
 */

#include <cstdio>
#include <cstring>
#include <exception>

#include "probe.hh"
#include "systolic/isa_tier.hh"

namespace {

int
cmdEnv()
{
    perfbench::Metrics m;
    m.setText("isa_tier",
              dphls::sim::isaTierName(dphls::sim::detectIsaTier()));
    m.setText("build_type", PERFBENCH_BUILD_TYPE);
    m.setText("cxx_flags", PERFBENCH_CXX_FLAGS);
    m.setText("compiler", PERFBENCH_COMPILER);
    m.print(stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench_probe <subcommand> "
                             "[--key value ...]\n");
        return 2;
    }
    const char *cmd = argv[1];
    try {
        const perfbench::Args args(argc, argv, 2);
        if (!std::strcmp(cmd, "env"))
            return cmdEnv();
        if (!std::strcmp(cmd, "gen-align"))
            return perfbench::cmdGenAlign(args);
        if (!std::strcmp(cmd, "gen-map"))
            return perfbench::cmdGenMap(args);
        if (!std::strcmp(cmd, "expect-align"))
            return perfbench::cmdExpectAlign(args);
        if (!std::strcmp(cmd, "loadgen"))
            return perfbench::cmdLoadgen(args);
        if (!std::strcmp(cmd, "trace"))
            return perfbench::cmdTrace(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_probe %s: %s\n", cmd, e.what());
        return 1;
    }
    std::fprintf(stderr, "perfbench_probe: unknown subcommand %s\n", cmd);
    return 2;
}
