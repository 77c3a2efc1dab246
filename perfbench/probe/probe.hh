/**
 * @file
 * Subcommands of the perfbench probe binary (see main.cc).
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include "common.hh"

namespace perfbench {

int cmdGenAlign(const Args &a);
int cmdGenMap(const Args &a);
int cmdExpectAlign(const Args &a);
int cmdLoadgen(const Args &a);
int cmdTrace(const Args &a);

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
