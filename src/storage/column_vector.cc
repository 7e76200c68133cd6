#include "storage/column_vector.h"

#include <algorithm>

#include "common/hash.h"

namespace agora {
namespace {

/// Heap cost attributed to one element of a string column.
inline size_t StrCost(const std::string& s) {
  return sizeof(std::string) + s.capacity();
}

/// StrCost of a copy of `s`: a copied string's capacity is its length,
/// or the inline (SSO) capacity for short strings.
inline size_t CopiedStrCost(const std::string& s) {
  static const size_t kInlineCapacity = std::string().capacity();
  return sizeof(std::string) + std::max(s.size(), kInlineCapacity);
}

/// Reps refresh their tracker charge only when the payload drifted this
/// many bytes, so per-row appends pay a compare, not an atomic RMW.
constexpr size_t kChargeGranularity = 16 * 1024;

}  // namespace

int64_t StringDict::Find(const std::string& s, uint64_t h) const {
  if (slots_.empty()) return -1;
  size_t mask = slots_.size() - 1;
  for (size_t pos = h & mask;; pos = (pos + 1) & mask) {
    uint16_t c1 = slots_[pos];
    if (c1 == 0) return -1;
    if (hashes_[c1 - 1] == h && values_[c1 - 1] == s) return c1 - 1;
  }
}

uint32_t StringDict::Add(const std::string& s, uint64_t h) {
  AGORA_DCHECK(values_.size() < kDictCap);
  // Load factor <= 1/2; at the cap the table has 2 * kDictCap slots.
  if ((values_.size() + 1) * 2 > slots_.size()) {
    Rehash(std::max<size_t>(16, slots_.size() * 2));
  }
  auto code = static_cast<uint32_t>(values_.size());
  values_.push_back(s);
  hashes_.push_back(h);
  size_t mask = slots_.size() - 1;
  size_t pos = h & mask;
  while (slots_[pos] != 0) pos = (pos + 1) & mask;
  slots_[pos] = static_cast<uint16_t>(code + 1);
  return code;
}

void StringDict::Rehash(size_t slots) {
  slots_.assign(slots, 0);
  size_t mask = slots - 1;
  for (size_t c = 0; c < values_.size(); ++c) {
    size_t pos = hashes_[c] & mask;
    while (slots_[pos] != 0) pos = (pos + 1) & mask;
    slots_[pos] = static_cast<uint16_t>(c + 1);
  }
}

const std::string& ColumnVector::EmptyString() {
  static const std::string kEmpty;
  return kEmpty;
}

ColumnVector::Rep::Rep(const Rep& other)
    : validity(other.validity),
      ints(other.ints),
      doubles(other.doubles),
      strings(other.strings) {
  // The copies' string capacities may differ from the source's, so the
  // incremental counter is recomputed rather than copied.
  for (const auto& s : strings) string_bytes += StrCost(s);
  Recharge();
}

void ColumnVector::Rep::Recharge() {
  if (charge.tracker() == nullptr) return;
  size_t now = validity.capacity() + ints.capacity() * sizeof(int64_t) +
               doubles.capacity() * sizeof(double) + string_bytes;
  size_t cur = charge.amount();
  if (now > cur + kChargeGranularity || now + kChargeGranularity < cur) {
    charge.Update(now);
  }
}

ColumnVector::Rep* ColumnVector::EnsureUnique() {
  if (view_) {
    // A view never writes through to the buffer it shares, even as its
    // last owner: it takes a private copy of just its own rows.
    rep_ = CopyRows();
    view_ = false;
    offset_ = 0;
    logical_size_ = 0;
  } else if (!rep_) {
    rep_ = std::make_shared<Rep>();
  } else if (rep_.use_count() > 1) {
    rep_ = std::make_shared<Rep>(*rep_);
  }
  if (constant_) Flatten();
  return rep_.get();
}

std::shared_ptr<ColumnVector::Rep> ColumnVector::CopyRows() const {
  AGORA_DCHECK(!constant_);
  auto dst = std::make_shared<Rep>();
  const Rep& src = *rep_;
  size_t first = offset_;
  size_t end = first + size();
  dst->validity.assign(src.validity.begin() + first,
                       src.validity.begin() + end);
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate:
      dst->ints.assign(src.ints.begin() + first, src.ints.begin() + end);
      break;
    case TypeId::kDouble:
      dst->doubles.assign(src.doubles.begin() + first,
                          src.doubles.begin() + end);
      break;
    case TypeId::kString:
      if (dict_ != nullptr) {
        dst->ints.assign(src.ints.begin() + first, src.ints.begin() + end);
        break;
      }
      dst->strings.assign(src.strings.begin() + first,
                          src.strings.begin() + end);
      for (const auto& s : dst->strings) dst->string_bytes += StrCost(s);
      break;
    case TypeId::kInvalid:
      break;
  }
  dst->Recharge();
  return dst;
}

ColumnVector ColumnVector::MakeConstant(TypeId type, const Value& v,
                                        size_t n) {
  ColumnVector out(type);
  out.AppendValue(v);
  out.constant_ = true;
  out.logical_size_ = n;
  return out;
}

void ColumnVector::Flatten() {
  if (!constant_) return;
  AGORA_DCHECK(dict_ == nullptr);  // constants are built flat
  size_t n = logical_size_;
  auto flat = std::make_shared<Rep>();
  const Rep& one = *rep_;
  flat->validity.assign(n, one.validity[0]);
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate:
      flat->ints.assign(n, one.ints[0]);
      break;
    case TypeId::kDouble:
      flat->doubles.assign(n, one.doubles[0]);
      break;
    case TypeId::kString:
      flat->strings.assign(n, one.strings[0]);
      for (const auto& s : flat->strings) flat->string_bytes += StrCost(s);
      break;
    case TypeId::kInvalid:
      break;
  }
  flat->Recharge();
  rep_ = std::move(flat);
  constant_ = false;
  logical_size_ = 0;
}

void ColumnVector::Reserve(size_t n) {
  Rep* rep = EnsureUnique();
  rep->validity.reserve(n);
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate:
      rep->ints.reserve(n);
      break;
    case TypeId::kDouble:
      rep->doubles.reserve(n);
      break;
    case TypeId::kString:
      if (dict_ != nullptr) {
        rep->ints.reserve(n);
      } else {
        rep->strings.reserve(n);
      }
      break;
    case TypeId::kInvalid:
      break;
  }
  rep->Recharge();
}

void ColumnVector::Clear() {
  rep_.reset();
  dict_.reset();
  encodes_ = false;
  constant_ = false;
  view_ = false;
  offset_ = 0;
  logical_size_ = 0;
}

void ColumnVector::ResizeForOverwrite(size_t n) {
  // A shared rep is dropped rather than cloned: the contents are about to
  // be overwritten, so copying them would be pure waste.
  if (!rep_ || rep_.use_count() > 1 || view_) {
    rep_ = std::make_shared<Rep>();
  }
  dict_.reset();
  encodes_ = false;
  constant_ = false;
  view_ = false;
  offset_ = 0;
  logical_size_ = 0;
  Rep* rep = rep_.get();
  rep->validity.resize(n);
  rep->ints.clear();
  rep->doubles.clear();
  rep->strings.clear();
  rep->string_bytes = 0;
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate:
      rep->ints.resize(n);
      break;
    case TypeId::kDouble:
      rep->doubles.resize(n);
      break;
    case TypeId::kString:
      rep->strings.resize(n);
      if (n != 0) rep->string_bytes = n * StrCost(rep->strings.front());
      break;
    case TypeId::kInvalid:
      break;
  }
  rep->Recharge();
}

void ColumnVector::AppendNull() {
  Rep* rep = EnsureUnique();
  rep->validity.push_back(0);
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate:
      rep->ints.push_back(0);
      break;
    case TypeId::kDouble:
      rep->doubles.push_back(0.0);
      break;
    case TypeId::kString:
      if (dict_ != nullptr) {
        rep->ints.push_back(0);
        break;
      }
      rep->strings.emplace_back();
      rep->string_bytes += StrCost(rep->strings.back());
      break;
    case TypeId::kInvalid:
      break;
  }
  rep->Recharge();
}

void ColumnVector::AppendInt64(int64_t v) {
  AGORA_DCHECK(type_ == TypeId::kInt64 || type_ == TypeId::kDate ||
               type_ == TypeId::kBool);
  Rep* rep = EnsureUnique();
  rep->validity.push_back(1);
  rep->ints.push_back(v);
  rep->Recharge();
}

void ColumnVector::AppendDouble(double v) {
  AGORA_DCHECK(type_ == TypeId::kDouble);
  Rep* rep = EnsureUnique();
  rep->validity.push_back(1);
  rep->doubles.push_back(v);
  rep->Recharge();
}

void ColumnVector::AppendString(std::string v) {
  AGORA_DCHECK(type_ == TypeId::kString);
  if (dict_ != nullptr && AppendEncoded(v, HashString(v))) return;
  Rep* rep = EnsureUnique();
  rep->validity.push_back(1);
  rep->strings.push_back(std::move(v));
  rep->string_bytes += StrCost(rep->strings.back());
  rep->Recharge();
}

void ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case TypeId::kBool:
      AppendBool(v.bool_value());
      break;
    case TypeId::kInt64:
    case TypeId::kDate:
      AppendInt64(v.int64_value());
      break;
    case TypeId::kDouble:
      AppendDouble(v.type() == TypeId::kDouble ? v.double_value()
                                               : v.AsDouble());
      break;
    case TypeId::kString: {
      const std::string& s = v.string_value();
      if (dict_ != nullptr && AppendEncoded(s, HashString(s))) break;
      AppendString(s);
      break;
    }
    case TypeId::kInvalid:
      AGORA_CHECK(false) << "append to invalid-typed column";
  }
}

void ColumnVector::AppendFrom(const ColumnVector& other, size_t row) {
  AGORA_DCHECK(type_ == other.type_);
  if (other.IsNull(row)) {
    AppendNull();
    return;
  }
  size_t p = other.PhysRow(row);
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate:
      AppendInt64(other.rep_->ints[p]);
      break;
    case TypeId::kDouble:
      AppendDouble(other.rep_->doubles[p]);
      break;
    case TypeId::kString: {
      if (TakesCodesOf(other)) {
        Rep* rep = EnsureUnique();
        rep->validity.push_back(1);
        rep->ints.push_back(other.rep_->ints[p]);
        rep->Recharge();
        break;
      }
      const std::string& s = other.StringAt(p);
      if (dict_ != nullptr) {
        uint64_t h = other.dict_ != nullptr
                         ? other.dict_->hashes()[other.rep_->ints[p]]
                         : HashString(s);
        if (AppendEncoded(s, h)) break;
      }
      AppendString(s);
      break;
    }
    case TypeId::kInvalid:
      break;
  }
}

void ColumnVector::EncodeAppends() {
  AGORA_DCHECK(type_ == TypeId::kString);
  if (dict_ == nullptr) {
    if (size() != 0) return;
    dict_ = std::make_shared<StringDict>();
  }
  encodes_ = true;
}

int64_t ColumnVector::CodeFor(const std::string& s, uint64_t h) {
  if (encodes_) {
    int64_t code = dict_->Find(s, h);
    if (code >= 0) return code;
    if (dict_->size() < kDictCap) {
      // Copy-on-write: holders of the dictionary keep its values. The
      // probe copy's increment is an acquire on the count, so the reads
      // of a holder on another thread (a result rendered after the
      // engine lock) happen before an in-place append once it let go.
      std::shared_ptr<StringDict> probe = dict_;
      if (probe.use_count() > 2) {
        dict_ = std::make_shared<StringDict>(*dict_);
      }
      return dict_->Add(s, h);
    }
  }
  Decode();
  return -1;
}

bool ColumnVector::AppendEncoded(const std::string& s, uint64_t h) {
  int64_t code = CodeFor(s, h);
  if (code < 0) return false;
  Rep* rep = EnsureUnique();
  rep->validity.push_back(1);
  rep->ints.push_back(code);
  rep->Recharge();
  return true;
}

bool ColumnVector::TakesCodesOf(const ColumnVector& src) {
  if (dict_ != nullptr && dict_ == src.dict_) return true;
  if (src.dict_ != nullptr && size() == 0 &&
      (dict_ == nullptr || dict_->size() == 0)) {
    dict_ = src.dict_;  // an empty vector adopts the source's dictionary
    return true;
  }
  if (!encodes_) Decode();
  return false;
}

void ColumnVector::Decode() {
  if (dict_ == nullptr) return;
  AGORA_DCHECK(!constant_);
  auto flat = std::make_shared<Rep>();
  size_t n = size();
  if (n != 0) {
    const Rep& src = *rep_;
    const std::string* values = dict_->values();
    flat->validity.assign(src.validity.begin() + offset_,
                          src.validity.begin() + offset_ + n);
    flat->strings.resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (flat->validity[i] != 0) {
        flat->strings[i] = values[src.ints[offset_ + i]];
      }
      flat->string_bytes += StrCost(flat->strings[i]);
    }
  }
  flat->Recharge();
  rep_ = std::move(flat);
  dict_.reset();
  encodes_ = false;
  view_ = false;
  offset_ = 0;
  logical_size_ = 0;
}

Value ColumnVector::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null(type_);
  size_t p = PhysRow(i);
  switch (type_) {
    case TypeId::kBool:
      return Value::Bool(rep_->ints[p] != 0);
    case TypeId::kInt64:
      return Value::Int64(rep_->ints[p]);
    case TypeId::kDate:
      return Value::Date(rep_->ints[p]);
    case TypeId::kDouble:
      return Value::Double(rep_->doubles[p]);
    case TypeId::kString:
      return Value::String(StringAt(p));
    case TypeId::kInvalid:
      return Value::Null();
  }
  return Value::Null();
}

void ColumnVector::SetValue(size_t i, const Value& v) {
  AGORA_DCHECK(i < size());
  if (!v.is_null() && type_ == TypeId::kString) {
    SetString(i, v.string_value());
    return;
  }
  Rep* rep = EnsureUnique();
  if (v.is_null()) {
    rep->validity[i] = 0;
    return;
  }
  rep->validity[i] = 1;
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate:
      rep->ints[i] = v.int64_value();
      break;
    case TypeId::kDouble:
      rep->doubles[i] = v.type() == TypeId::kDouble ? v.double_value()
                                                    : v.AsDouble();
      break;
    case TypeId::kString:  // handled by SetString above
    case TypeId::kInvalid:
      break;
  }
  rep->Recharge();
}

void ColumnVector::SetString(size_t i, std::string v) {
  AGORA_DCHECK(type_ == TypeId::kString && i < size());
  if (dict_ != nullptr) {
    int64_t code = CodeFor(v, HashString(v));
    if (code >= 0) {
      Rep* rep = EnsureUnique();
      rep->validity[i] = 1;
      rep->ints[i] = code;
      return;
    }
  }
  Rep* rep = EnsureUnique();
  rep->validity[i] = 1;
  rep->string_bytes -= StrCost(rep->strings[i]);
  rep->strings[i] = std::move(v);
  rep->string_bytes += StrCost(rep->strings[i]);
  rep->Recharge();
}

bool ColumnVector::AllValid() const {
  if (!rep_) return true;
  size_t n = constant_ ? 1 : size();
  for (size_t i = 0; i < n; ++i) {
    if (rep_->validity[offset_ + i] == 0) return false;
  }
  return true;
}

uint64_t ColumnVector::HashRow(size_t i) const {
  if (IsNull(i)) return 0x6e756c6cULL;
  size_t p = PhysRow(i);
  switch (type_) {
    case TypeId::kString:
      if (dict_ != nullptr) return dict_->hashes()[rep_->ints[p]];
      return HashString(rep_->strings[p]);
    case TypeId::kDouble: {
      uint64_t bits;
      std::memcpy(&bits, &rep_->doubles[p], sizeof(bits));
      return HashMix64(bits);
    }
    default:
      return HashMix64(static_cast<uint64_t>(rep_->ints[p]));
  }
}

void ColumnVector::HashBatch(uint64_t* hashes, size_t n, bool combine,
                             bool normalize_zero) const {
  AGORA_DCHECK(!constant_);
  AGORA_DCHECK(n <= size());
  if (!rep_) return;  // empty vector: size() == 0, so n == 0
  const Rep& rep = *rep_;
  const size_t o = offset_;
  auto emit = [&](size_t i, uint64_t h) {
    hashes[i] = combine ? HashCombine(hashes[i], h) : h;
  };
  switch (type_) {
    case TypeId::kString:
      if (dict_ != nullptr) {
        const uint64_t* dh = dict_->hashes();
        for (size_t i = 0; i < n; ++i) {
          emit(i, rep.validity[o + i] != 0 ? dh[rep.ints[o + i]] : kNullHash);
        }
        break;
      }
      for (size_t i = 0; i < n; ++i) {
        emit(i, rep.validity[o + i] != 0 ? HashString(rep.strings[o + i])
                                         : kNullHash);
      }
      break;
    case TypeId::kDouble:
      for (size_t i = 0; i < n; ++i) {
        if (rep.validity[o + i] == 0) {
          emit(i, kNullHash);
          continue;
        }
        double d = rep.doubles[o + i];
        if (normalize_zero && d == 0.0) d = 0.0;
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        emit(i, HashMix64(bits));
      }
      break;
    default:
      for (size_t i = 0; i < n; ++i) {
        emit(i, rep.validity[o + i] != 0
                    ? HashMix64(static_cast<uint64_t>(rep.ints[o + i]))
                    : kNullHash);
      }
      break;
  }
}

void ColumnVector::BatchEqualRows(const uint32_t* rows,
                                  const ColumnVector& other,
                                  const uint32_t* other_rows, size_t n,
                                  bool bitwise_doubles,
                                  uint8_t* equal) const {
  AGORA_DCHECK(type_ == other.type_);
  AGORA_DCHECK(!constant_ && !other.constant_);
  if (!rep_ || !other.rep_) return;  // an empty side means n == 0
  const Rep& lhs = *rep_;
  const Rep& rhs = *other.rep_;
  switch (type_) {
    case TypeId::kString:
      if (dict_ != nullptr && dict_ == other.dict_) {
        // One dictionary: equal strings have equal codes.
        for (size_t i = 0; i < n; ++i) {
          if (equal[i] == 0) continue;
          size_t a = offset_ + rows[i], b = other.offset_ + other_rows[i];
          bool an = lhs.validity[a] == 0, bn = rhs.validity[b] == 0;
          equal[i] = (an || bn) ? (an && bn) : (lhs.ints[a] == rhs.ints[b]);
        }
        break;
      }
      for (size_t i = 0; i < n; ++i) {
        if (equal[i] == 0) continue;
        size_t a = offset_ + rows[i], b = other.offset_ + other_rows[i];
        bool an = lhs.validity[a] == 0, bn = rhs.validity[b] == 0;
        equal[i] = (an || bn) ? (an && bn)
                              : (StringAt(a) == other.StringAt(b));
      }
      break;
    case TypeId::kDouble:
      for (size_t i = 0; i < n; ++i) {
        if (equal[i] == 0) continue;
        size_t a = offset_ + rows[i], b = other.offset_ + other_rows[i];
        bool an = lhs.validity[a] == 0, bn = rhs.validity[b] == 0;
        if (an || bn) {
          equal[i] = an && bn;
          continue;
        }
        double x = lhs.doubles[a], y = rhs.doubles[b];
        if (bitwise_doubles) {
          if (x == 0.0) x = 0.0;
          if (y == 0.0) y = 0.0;
          uint64_t xb, yb;
          std::memcpy(&xb, &x, sizeof(xb));
          std::memcpy(&yb, &y, sizeof(yb));
          equal[i] = xb == yb;
        } else {
          equal[i] = !(x < y) && !(x > y);
        }
      }
      break;
    default:
      for (size_t i = 0; i < n; ++i) {
        if (equal[i] == 0) continue;
        size_t a = offset_ + rows[i], b = other.offset_ + other_rows[i];
        bool an = lhs.validity[a] == 0, bn = rhs.validity[b] == 0;
        equal[i] = (an || bn) ? (an && bn) : (lhs.ints[a] == rhs.ints[b]);
      }
      break;
  }
}

void ColumnVector::AppendGatherPadded(const ColumnVector& src,
                                      const uint32_t* sel, size_t n) {
  AGORA_DCHECK(type_ == src.type_);
  AGORA_DCHECK(!src.constant_);
  if (n == 0) return;
  constexpr uint32_t kPad = UINT32_MAX;
  const bool codes = type_ == TypeId::kString && TakesCodesOf(src);
  Rep* out = EnsureUnique();
  // An empty src is legal when every sel entry is kPad (NULL padding from
  // an empty build side); fall back to an empty Rep so no entry can index it.
  static const Rep kEmptyRep(nullptr);
  const Rep& in = src.rep_ ? *src.rep_ : kEmptyRep;
  const size_t o = src.offset_;
  out->validity.reserve(out->validity.size() + n);
  switch (codes ? TypeId::kInt64 : type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate:
      // Codes gather like integers: a NULL or padded row holds code 0.
      out->ints.reserve(out->ints.size() + n);
      for (size_t i = 0; i < n; ++i) {
        uint32_t s = sel[i];
        bool valid = s != kPad && in.validity[o + s] != 0;
        out->validity.push_back(valid ? 1 : 0);
        out->ints.push_back(valid ? in.ints[o + s] : 0);
      }
      break;
    case TypeId::kDouble:
      out->doubles.reserve(out->doubles.size() + n);
      for (size_t i = 0; i < n; ++i) {
        uint32_t s = sel[i];
        bool valid = s != kPad && in.validity[o + s] != 0;
        out->validity.push_back(valid ? 1 : 0);
        out->doubles.push_back(valid ? in.doubles[o + s] : 0.0);
      }
      break;
    case TypeId::kString:
      if (dict_ != nullptr) {
        // An encoding vector takes foreign strings one by one.
        for (size_t i = 0; i < n; ++i) {
          uint32_t s = sel[i];
          if (s == kPad || in.validity[o + s] == 0) {
            AppendNull();
          } else {
            AppendFrom(src, s);
          }
        }
        return;
      }
      out->strings.reserve(out->strings.size() + n);
      for (size_t i = 0; i < n; ++i) {
        uint32_t s = sel[i];
        bool valid = s != kPad && in.validity[o + s] != 0;
        out->validity.push_back(valid ? 1 : 0);
        if (valid) {
          out->strings.push_back(src.StringAt(o + s));
        } else {
          out->strings.emplace_back();
        }
        out->string_bytes += StrCost(out->strings.back());
      }
      break;
    case TypeId::kInvalid:
      break;
  }
  out->Recharge();
}

int ColumnVector::CompareRows(size_t i, const ColumnVector& other,
                              size_t j) const {
  AGORA_DCHECK(type_ == other.type_);
  bool an = IsNull(i), bn = other.IsNull(j);
  if (an || bn) {
    if (an && bn) return 0;
    return an ? -1 : 1;
  }
  size_t p = PhysRow(i), q = other.PhysRow(j);
  switch (type_) {
    case TypeId::kString: {
      int c = StringAt(p).compare(other.StringAt(q));
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case TypeId::kDouble: {
      double a = rep_->doubles[p], b = other.rep_->doubles[q];
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    default: {
      int64_t a = rep_->ints[p], b = other.rep_->ints[q];
      return a < b ? -1 : (a > b ? 1 : 0);
    }
  }
}

ColumnVector ColumnVector::Gather(const std::vector<uint32_t>& sel) const {
  if (constant_) {
    // Gathering from a constant yields the same constant, resized.
    ColumnVector out = *this;
    out.logical_size_ = sel.size();
    if (sel.empty()) out.Clear();
    return out;
  }
  ColumnVector out(type_);
  out.AppendGatherPadded(*this, sel.data(), sel.size());
  return out;
}

ColumnVector ColumnVector::Slice(size_t begin, size_t count) const {
  AGORA_DCHECK(begin + count <= size());
  if (count == 0) return ColumnVector(type_);
  ColumnVector out = *this;
  out.encodes_ = false;  // a reader's slice never adds dictionary values
  if (begin == 0 && count == size()) return out;  // zero-copy share
  out.logical_size_ = count;
  if (!constant_) {
    out.view_ = true;
    out.offset_ = offset_ + begin;
  }
  return out;
}

size_t ColumnVector::MemoryBytes() const {
  if (!rep_) return 0;
  const Rep& rep = *rep_;
  if (view_) {
    // The bytes of the exact-capacity copy EnsureUnique() would make.
    size_t n = logical_size_;
    switch (type_) {
      case TypeId::kBool:
      case TypeId::kInt64:
      case TypeId::kDate:
        return n * (1 + sizeof(int64_t));
      case TypeId::kDouble:
        return n * (1 + sizeof(double));
      case TypeId::kString: {
        if (dict_ != nullptr) return n * (1 + sizeof(int64_t));
        size_t bytes = n;
        for (size_t i = 0; i < n; ++i) {
          bytes += CopiedStrCost(rep.strings[offset_ + i]);
        }
        return bytes;
      }
      case TypeId::kInvalid:
        return n;
    }
  }
  return rep.validity.capacity() + rep.ints.capacity() * sizeof(int64_t) +
         rep.doubles.capacity() * sizeof(double) + rep.string_bytes;
}

Status ColumnVector::CheckConsistency() const {
  size_t rows = rep_ ? rep_->validity.size() : 0;
  if (constant_) {
    if (rows != 1) {
      return Status::Internal(
          "constant column vector must hold exactly one physical row, has " +
          std::to_string(rows));
    }
    rows = 1;  // payload check below covers the single physical row
  }
  if (view_ && offset_ + logical_size_ > rows) {
    return Status::Internal(
        "column vector view of rows [" + std::to_string(offset_) + ", " +
        std::to_string(offset_ + logical_size_) +
        ") runs past its buffer of " + std::to_string(rows) + " rows");
  }
  size_t payload = 0;
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate:
      payload = rep_ ? rep_->ints.size() : 0;
      break;
    case TypeId::kDouble:
      payload = rep_ ? rep_->doubles.size() : 0;
      break;
    case TypeId::kString:
      if (dict_ != nullptr) {
        payload = rep_ ? rep_->ints.size() : 0;
        break;
      }
      payload = rep_ ? rep_->strings.size() : 0;
      break;
    default:
      if (rows != 0) {
        return Status::Internal(
            "column vector of invalid type declares " + std::to_string(rows) +
            " rows");
      }
      return Status::OK();
  }
  if (payload != rows) {
    return Status::Internal(
        std::string("column vector payload/validity mismatch: type ") +
        std::string(TypeIdToString(type_)) + " has " +
        std::to_string(payload) + " payload rows but validity declares " +
        std::to_string(rows));
  }
  if (dict_ != nullptr) {
    size_t dict_size = dict_->size();
    if (dict_size > kDictCap) {
      return Status::Internal("string dictionary holds " +
                              std::to_string(dict_size) +
                              " values, over the cap of " +
                              std::to_string(kDictCap));
    }
    // Just this vector's rows: a view need not scan its whole buffer.
    for (size_t r = offset_; r < offset_ + size(); ++r) {
      int64_t code = rep_->ints[r];
      if (rep_->validity[r] != 0 &&
          (code < 0 || static_cast<size_t>(code) >= dict_size)) {
        return Status::Internal("dictionary code " + std::to_string(code) +
                                " at row " + std::to_string(r) +
                                " is outside a dictionary of " +
                                std::to_string(dict_size) + " values");
      }
    }
  }
  return Status::OK();
}

}  // namespace agora
