/**
 * @file
 * Option parsing and table output for bench_components, the component
 * micro suite. It accepts:
 *   --jobs=N        parallel micros (default: hardware concurrency;
 *                   1 times them sequentially)
 *   --csv           emit tables as CSV (for external plotting)
 */

#ifndef FP_BENCH_FIG_COMMON_HH
#define FP_BENCH_FIG_COMMON_HH

#include <string>

#include "sim/sweep.hh"
#include "util/cli.hh"
#include "util/table.hh"

namespace fp::bench
{

struct BenchOptions
{
    bool csv = false;
    sim::SweepOptions sweep;
};

/** Parse the common flags. */
BenchOptions parseOptions(const CliArgs &args);

/** Print a table followed by a blank line. */
void emit(const TextTable &table);

/** Print the figure header + the paper's reported takeaway. */
void banner(const std::string &figure, const std::string &paper_says);

} // namespace fp::bench

#endif // FP_BENCH_FIG_COMMON_HH
