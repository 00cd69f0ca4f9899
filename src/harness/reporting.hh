/**
 * @file
 * Paper-style table and CSV reporting.
 *
 * Every bench binary prints its results as an aligned text table
 * (the rows the paper's tables/figures report) and optionally as
 * CSV for plotting.
 */

#ifndef SER_HARNESS_REPORTING_HH
#define SER_HARNESS_REPORTING_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace ser
{
namespace harness
{

/** A simple aligned text table with a CSV mode. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Add a row; cell counts must match the header. */
    void addRow(std::vector<std::string> cells);

    /** Fixed-precision numeric formatting helpers. */
    static std::string fmt(double value, int precision = 2);
    static std::string pct(double fraction, int precision = 1);

    /** A percent range — a confidence interval or an analytical
     * band — as pct(lo) + sep + pct(hi), or one pct() when the ends
     * are equal. */
    static std::string range(double lo, double hi,
                             const std::string &sep = "..");

    void print(std::ostream &os) const;

    /** RFC-4180 CSV: cells containing a comma, quote, or newline
     * are quoted, with embedded quotes doubled. */
    void printCsv(std::ostream &os) const;

    const std::vector<std::string> &headers() const
    {
        return _headers;
    }
    const std::vector<std::vector<std::string>> &rows() const
    {
        return _rows;
    }

  private:
    std::vector<std::string> _headers;
    std::vector<std::vector<std::string>> _rows;
};

/** A titled section separator for bench output. */
void printHeading(std::ostream &os, const std::string &title);

} // namespace harness
} // namespace ser

#endif // SER_HARNESS_REPORTING_HH
