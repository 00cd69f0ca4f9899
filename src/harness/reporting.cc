#include "reporting.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "sim/logging.hh"

namespace ser
{
namespace harness
{

Table::Table(std::vector<std::string> headers)
    : _headers(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    if (cells.size() != _headers.size())
        SER_PANIC("table row has {} cells, expected {}", cells.size(),
                  _headers.size());
    _rows.push_back(std::move(cells));
}

std::string
Table::fmt(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

std::string
Table::pct(double fraction, int precision)
{
    return fmt(fraction * 100.0, precision) + "%";
}

std::string
Table::range(double lo, double hi, const std::string &sep)
{
    if (lo == hi)
        return pct(hi);
    return pct(lo) + sep + pct(hi);
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(_headers.size());
    for (std::size_t c = 0; c < _headers.size(); ++c)
        widths[c] = _headers[c].size();
    for (const auto &row : _rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    // Cells are padded to their column's width, but a row ends at
    // its last visible character: no trailing spaces.
    auto print_row = [&](const std::vector<std::string> &cells) {
        std::string line;
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c)
                line += "  ";
            line += cells[c];
            line.append(widths[c] - cells[c].size(), ' ');
        }
        line.erase(line.find_last_not_of(' ') + 1);
        os << line << "\n";
    };

    print_row(_headers);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c == 0 ? 0 : 2);
    os << std::string(total, '-') << "\n";
    for (const auto &row : _rows)
        print_row(row);
}

namespace
{

/** Quote a CSV cell per RFC 4180 when it needs it. */
std::string
csvCell(const std::string &cell)
{
    if (cell.find_first_of(",\"\r\n") == std::string::npos)
        return cell;
    std::string quoted = "\"";
    for (char ch : cell) {
        if (ch == '"')
            quoted += '"';
        quoted += ch;
    }
    quoted += '"';
    return quoted;
}

} // namespace

void
Table::printCsv(std::ostream &os) const
{
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c)
            os << (c == 0 ? "" : ",") << csvCell(cells[c]);
        os << "\n";
    };
    emit(_headers);
    for (const auto &row : _rows)
        emit(row);
}

void
printHeading(std::ostream &os, const std::string &title)
{
    os << "\n==== " << title << " ====\n\n";
}

} // namespace harness
} // namespace ser
