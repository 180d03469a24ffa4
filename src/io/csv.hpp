// Minimal CSV writing (RFC-4180 quoting) for experiment data exports.
//
// CsvWriter is a single append buffer: every header, row and cell is
// escaped and appended at call time, so writing a schedule costs
// O(bytes) with no per-row allocation, and write() is one stream write.
#pragma once

#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace pfair {

/// Quotes a field if it contains a comma, quote or newline.
[[nodiscard]] std::string csv_escape(std::string_view field);

/// Builds CSV text in one buffer and writes it to a stream or file.
///
/// Two ways to append a row, with the same width check against the
/// header (when one was given):
///   * row({...}) — a whole row of text fields;
///   * cell(...)... end_row() — typed cells, for hot exporters.
class CsvWriter {
 public:
  CsvWriter() = default;
  // Move-only; a moved-from writer is empty and reusable (its sizes
  // must not outlive the buffer they describe).
  CsvWriter(CsvWriter&& o) noexcept { *this = std::move(o); }
  CsvWriter& operator=(CsvWriter&& o) noexcept {
    data_ = std::move(o.data_);
    size_ = std::exchange(o.size_, 0);
    cap_ = std::exchange(o.cap_, 0);
    row_start_ = std::exchange(o.row_start_, 0);
    width_ = std::exchange(o.width_, 0);
    cells_ = std::exchange(o.cells_, 0);
    rows_ = std::exchange(o.rows_, 0);
    return *this;
  }

  /// Starts the document; must precede every row.
  CsvWriter& header(std::initializer_list<std::string_view> cols);
  CsvWriter& row(std::initializer_list<std::string_view> cols);

  /// One integer cell (decimal, as std::to_string prints it).
  CsvWriter& cell(std::int64_t v) {
    char* p = open_cell(kMaxDigits);
    size_ = static_cast<std::size_t>(
        std::to_chars(p, p + kMaxDigits, v).ptr - data_.get());
    return *this;
  }
  /// One text cell, escaped.
  CsvWriter& cell(std::string_view text);
  /// One cell already passed through csv_escape — lets an exporter
  /// escape a repeated field (a task name) once instead of per row.
  CsvWriter& escaped_cell(std::string_view escaped) {
    char* p = open_cell(escaped.size());
    escaped.copy(p, escaped.size());
    size_ += escaped.size();
    return *this;
  }
  /// Closes the row started by cell(); checks its width.  A rejected
  /// row is dropped, leaving the writer as it was before the row.
  CsvWriter& end_row();

  /// Pre-sizes the buffer for `bytes` of output.
  void reserve(std::size_t bytes) {
    if (bytes > cap_) grow_to(bytes);
  }

  void write(std::ostream& os) const;
  /// Writes to `path`, throwing ContractViolation on I/O failure.
  void write_file(const std::string& path) const;

  /// The CSV text written so far (header and completed rows).
  [[nodiscard]] std::string_view text() const {
    return {data_.get(), row_start_};
  }
  /// Number of data rows (the header is not counted).
  [[nodiscard]] std::size_t rows() const { return rows_; }

 private:
  static constexpr std::size_t kMaxDigits = 20;  // "-9223372036854775808"

  /// Makes room for a separator plus `payload` bytes, writes the
  /// separator, and returns where the cell's text goes.
  char* open_cell(std::size_t payload) {
    if (cap_ - size_ < payload + 1) grow_to(size_ + payload + 1);
    if (cells_++ > 0) data_[size_++] = ',';
    return data_.get() + size_;
  }
  void put(char c) {
    if (size_ == cap_) grow_to(size_ + 1);
    data_[size_++] = c;
  }
  void grow_to(std::size_t min_cap);

  // A plain growable byte buffer, so to_chars writes each number in
  // place.  Appending to a std::string or std::vector<char> instead
  // copies every cell through a memcpy call; on the n = 4096 export
  // loops that measured 1.5-1.7x slower.
  std::unique_ptr<char[]> data_;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
  std::size_t row_start_ = 0;  // end of the last completed line
  std::size_t width_ = 0;  // header width; 0 = no header, rows unchecked
  std::size_t cells_ = 0;  // cells in the row under construction
  std::size_t rows_ = 0;
};

}  // namespace pfair
