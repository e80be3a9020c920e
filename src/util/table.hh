/**
 * @file
 * ASCII table rendering for the benchmark harnesses. Each bench prints
 * the rows/series of its paper figure through a TextTable so the
 * output is diff-able and readable in a terminal.
 */

#ifndef FP_UTIL_TABLE_HH
#define FP_UTIL_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace fp
{

class TextTable
{
  public:
    /** Optional caption printed above the table. */
    explicit TextTable(std::string title = "");

    /** Set the header row. */
    void setHeader(std::vector<std::string> header);

    /** Append a preformatted row. */
    void addRow(std::vector<std::string> row);

    /** Format a double with @p precision decimal places. */
    static std::string fmt(double v, int precision = 3);

    /** Format an integer. */
    static std::string fmt(std::uint64_t v);

    /** Render with aligned columns and a separator under the header. */
    void print(std::ostream &os) const;

    /** Render as CSV (RFC-4180-style quoting), header first. */
    void printCsv(std::ostream &os) const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace fp

#endif // FP_UTIL_TABLE_HH
