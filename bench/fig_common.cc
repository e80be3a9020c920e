#include "fig_common.hh"

#include <iostream>

namespace fp::bench
{

namespace
{
bool csvMode = false;
} // anonymous namespace

BenchOptions
parseOptions(const CliArgs &args)
{
    BenchOptions opt;
    opt.csv = args.getBool("csv");
    csvMode = opt.csv;
    opt.sweep = sim::sweepOptionsFromArgs(args);
    return opt;
}

void
emit(const TextTable &table)
{
    if (csvMode)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\n";
}

void
banner(const std::string &figure, const std::string &paper_says)
{
    if (csvMode)
        return; // keep CSV output machine-clean
    std::cout << "==================================================="
                 "=====\n"
              << figure << "\n"
              << "paper reports: " << paper_says << "\n"
              << "==================================================="
                 "=====\n\n";
}

} // namespace fp::bench
