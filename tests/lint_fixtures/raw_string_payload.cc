// Golden violation fixture for scripts/agora_lint.py (never compiled):
// reading a string column's raw payload outside the column vector and
// the expression kernels sees no strings when the column is
// dictionary-encoded — read through GetString/GetValue instead.
// lint-as: src/exec/bad_minmax.cc
// expect-violation: raw-string-payload

#include <string>

#include "storage/column_vector.h"

namespace agora {

size_t BadLongestString(const ColumnVector& col) {
  const std::string* data = col.string_data();
  size_t longest = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.IsValid(i) && data[i].size() > longest) longest = data[i].size();
  }
  return longest;
}

}  // namespace agora
