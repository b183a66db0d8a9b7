/**
 * @file
 * Column-aligned text tables and CSV output for the benches, which
 * regenerate the paper's figures and tables as printed rows/series.
 */

#ifndef SMTHILL_HARNESS_TABLE_HH
#define SMTHILL_HARNESS_TABLE_HH

#include <string>
#include <vector>

namespace smthill
{

/** Builds and prints a simple aligned table. */
class Table
{
  public:
    /** @param headers column titles (fixes the column count) */
    explicit Table(std::vector<std::string> headers);

    /** Start a new row; fatal if the previous row is incomplete. */
    void beginRow();

    /** Append a string cell to the current row. */
    void cell(const std::string &value);

    /** Append a numeric cell with @p precision decimal places. */
    void cell(double value, int precision = 3);

    /** Append an integer cell. */
    void cell(std::int64_t value);

    /** Print the table to stdout. */
    void print() const;

    std::size_t numRows() const { return rows.size(); }

  private:
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

/** Format a double with fixed precision. */
std::string fmt(double value, int precision = 3);

/** Print a section banner for bench output. */
void banner(const std::string &title);

} // namespace smthill

#endif // SMTHILL_HARNESS_TABLE_HH
