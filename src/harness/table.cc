#include "harness/table.hh"

#include <cstdint>
#include <cstdio>
#include <sstream>

#include "common/log.hh"

namespace smthill
{

Table::Table(std::vector<std::string> column_headers)
    : headers(std::move(column_headers))
{
    if (headers.empty())
        fatal("Table: need at least one column");
}

void
Table::beginRow()
{
    if (!rows.empty() && rows.back().size() != headers.size())
        fatal(msg("Table: row has ", rows.back().size(), " cells, want ",
                  headers.size()));
    rows.emplace_back();
    rows.back().reserve(headers.size());
}

void
Table::cell(const std::string &value)
{
    if (rows.empty() || rows.back().size() >= headers.size())
        fatal("Table: cell outside a row");
    rows.back().push_back(value);
}

void
Table::cell(double value, int precision)
{
    cell(fmt(value, precision));
}

void
Table::cell(std::int64_t value)
{
    cell(std::to_string(value));
}

void
Table::print() const
{
    std::vector<std::size_t> width(headers.size());
    for (std::size_t c = 0; c < headers.size(); ++c)
        width[c] = headers[c].size();
    for (const auto &row : rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < headers.size(); ++c) {
            const std::string &v = c < row.size() ? row[c] : std::string();
            std::printf("%-*s%s", static_cast<int>(width[c]), v.c_str(),
                        c + 1 < headers.size() ? "  " : "");
        }
        std::printf("\n");
    };

    print_row(headers);
    std::size_t total = 0;
    for (std::size_t c = 0; c < headers.size(); ++c)
        total += width[c] + (c + 1 < headers.size() ? 2 : 0);
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto &row : rows)
        print_row(row);
}

std::string
fmt(double value, int precision)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << value;
    return os.str();
}

void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

} // namespace smthill
