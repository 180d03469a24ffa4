#include "io/csv.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <ostream>
#include <utility>

#include "core/assert.hpp"

namespace pfair {

namespace {

bool needs_quote(std::string_view field) {
  return field.find_first_of(",\"\n\r") != std::string_view::npos;
}

}  // namespace

std::string csv_escape(std::string_view field) {
  if (!needs_quote(field)) return std::string(field);
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::grow_to(std::size_t min_cap) {
  const std::size_t cap = std::max({min_cap, 2 * cap_, std::size_t{256}});
  auto data = std::make_unique_for_overwrite<char[]>(cap);
  if (size_ > 0) std::memcpy(data.get(), data_.get(), size_);
  data_ = std::move(data);
  cap_ = cap;
}

CsvWriter& CsvWriter::cell(std::string_view text) {
  // Quoted fields are rare; only they pay for a temporary.
  return needs_quote(text) ? escaped_cell(csv_escape(text))
                           : escaped_cell(text);
}

CsvWriter& CsvWriter::header(std::initializer_list<std::string_view> cols) {
  PFAIR_REQUIRE(size_ == 0 && cells_ == 0,
                "CSV header must precede every row");
  if (cols.size() == 0) return *this;
  for (const std::string_view c : cols) cell(c);
  cells_ = 0;
  put('\n');
  row_start_ = size_;
  width_ = cols.size();
  return *this;
}

CsvWriter& CsvWriter::row(std::initializer_list<std::string_view> cols) {
  PFAIR_REQUIRE(cells_ == 0, "CSV row started while a cell row is open");
  PFAIR_REQUIRE(width_ == 0 || cols.size() == width_,
                "CSV row width " << cols.size() << " != header width "
                                 << width_);
  for (const std::string_view c : cols) cell(c);
  return end_row();
}

CsvWriter& CsvWriter::end_row() {
  const std::size_t cells = std::exchange(cells_, 0);
  if (width_ != 0 && cells != width_) {
    size_ = row_start_;  // drop the rejected row
    PFAIR_REQUIRE(false, "CSV row width " << cells << " != header width "
                                          << width_);
  }
  put('\n');
  row_start_ = size_;
  ++rows_;
  return *this;
}

void CsvWriter::write(std::ostream& os) const {
  os.write(data_.get(), static_cast<std::streamsize>(row_start_));
}

void CsvWriter::write_file(const std::string& path) const {
  std::ofstream f(path);
  PFAIR_REQUIRE(f.good(), "cannot open " << path << " for writing");
  write(f);
  f.flush();
  PFAIR_REQUIRE(f.good(), "write to " << path << " failed");
}

}  // namespace pfair
