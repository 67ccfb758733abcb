/**
 * @file
 * Minimal CSV writer and the round-trip number format the sweep and
 * serving CSVs share.
 */

#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace pra {
namespace util {

/**
 * @p value at round-trip precision (%.17g): parsing the text back
 * yields the same double, so two result sets are bit-identical iff
 * their CSV dumps are byte-identical.
 */
std::string roundTrip(double value);

/**
 * Streams rows of cells as RFC-4180-ish CSV (quotes cells containing
 * commas, quotes or newlines). The writer does not own the stream.
 */
class CsvWriter
{
  public:
    /** @param out destination stream; must outlive the writer. */
    explicit CsvWriter(std::ostream &out);

    /** Write a header row; may only be called before any data row. */
    void writeHeader(const std::vector<std::string> &cells);

    /**
     * Write one data row. The first row written (header or data)
     * locks the table width; later rows must match it.
     */
    void writeRow(const std::vector<std::string> &cells);

    size_t rowsWritten() const { return rows_; }

    /** Escape one cell per the CSV quoting rules. */
    static std::string escape(const std::string &cell);

  private:
    std::ostream &out_;
    size_t width_ = 0;
    size_t rows_ = 0;
    bool headerWritten_ = false;

    void writeLine(const std::vector<std::string> &cells);
};

} // namespace util
} // namespace pra

