#include "util/csv.h"

#include <cstdio>

#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace util {

std::string
roundTrip(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

CsvWriter::CsvWriter(std::ostream &out)
    : out_(out)
{
}

std::string
CsvWriter::escape(const std::string &cell)
{
    bool needs_quotes = cell.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quotes)
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

void
CsvWriter::writeLine(const std::vector<std::string> &cells)
{
    for (size_t i = 0; i < cells.size(); i++) {
        out_ << escape(cells[i]);
        if (i + 1 < cells.size())
            out_ << ',';
    }
    out_ << '\n';
}

void
CsvWriter::writeHeader(const std::vector<std::string> &cells)
{
    PRA_CHECK(!headerWritten_ && rows_ == 0,
                   "CSV header must be written first and only once");
    width_ = cells.size();
    headerWritten_ = true;
    writeLine(cells);
}

void
CsvWriter::writeRow(const std::vector<std::string> &cells)
{
    // The first row (header or not) locks the table width; headerless
    // tables must not silently emit ragged CSV.
    if (!headerWritten_ && rows_ == 0)
        width_ = cells.size();
    PRA_CHECK(cells.size() == width_, "CSV row width mismatch");
    rows_++;
    writeLine(cells);
}

} // namespace util
} // namespace pra
